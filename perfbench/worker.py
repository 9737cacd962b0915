"""One workload process: set up, run the workload in a closed loop, check.

Started by run.py in a fresh interpreter.  The BLAS pool is pinned to one
thread before numpy is imported, and the checkout's ``src`` goes first on
sys.path by absolute path, so no install is needed.  The last stdout line
is a JSON object with the raw measurements.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import refcheck  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE_DIR = os.path.join(HERE, "reference")

# one completed run: trace run id (0 untraced), per-config seconds,
# [(name, cfg, report)], wall seconds, CPU seconds
Run = collections.namedtuple("Run", "run_id times reports wall cpu")


def build_configs(experiment, workload, seed, tiny):
    return [(name, experiment.build_config(experiment.parse_config(text)))
            for name, text in workloads.config_texts(workload, seed, tiny)]


def run_once(experiment, configs, out_dir):
    """One closed-loop run: run + write for each config, timed per config."""
    times, reports = {}, []
    for name, cfg in configs:
        t = time.perf_counter()
        rep = experiment.run(cfg)
        rep.write(os.path.join(out_dir, name))
        times[name] = time.perf_counter() - t
        reports.append((name, cfg, rep))
    return times, reports


def check(reports, out_dir, ref_dir):
    """None if every pass flag holds and the outputs match ref_dir."""
    for name, _cfg, rep in reports:
        if not rep.passed:
            return "%s: pass flag is false" % name
        if ref_dir is not None:
            msg = refcheck.diff_dir(os.path.join(ref_dir, name),
                                    os.path.join(out_dir, name))
            if msg:
                return msg
    return None


def cpu_seconds():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def write_reference(experiment):
    lines = []
    for workload in workloads.NAMES:
        configs = build_configs(experiment, workload,
                                workloads.DEFAULT_SEED, False)
        out = os.path.join(REFERENCE_DIR, workload)
        shutil.rmtree(out, ignore_errors=True)
        _times, reports = run_once(experiment, configs, out)
        msg = check(reports, out, None)
        if msg:
            raise SystemExit("%s: %s" % (workload, msg))
        for name, _cfg, _rep in reports:
            sums = refcheck.sha256_files(os.path.join(out, name))
            lines += ["%s  %s/%s/%s" % (h, workload, name, f)
                      for f, h in sorted(sums.items())]
    with open(os.path.join(REFERENCE_DIR, "SHA256SUMS"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def byte_identical(out_dir, ref_dir, reports):
    """Reference files whose bytes the run reproduced, and the total."""
    same = total = 0
    for name, _cfg, _rep in reports:
        ref = refcheck.sha256_files(os.path.join(ref_dir, name))
        got = refcheck.sha256_files(os.path.join(out_dir, name))
        same += sum(got.get(f) == digest for f, digest in ref.items())
        total += len(ref)
    return same, total


def useful_share(reports):
    rows = flagged = 0
    for _name, _cfg, rep in reports:
        rows += len(rep.rows)
        if "flagged" in rep.header:
            col = rep.header.index("flagged")
            flagged += sum(1 for r in rep.rows if r[col])
    return 1.0 - flagged / rows


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--out")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)

    from rkhslab import experiment
    if args.write_reference:
        write_reference(experiment)
        return 0
    configs = build_configs(experiment, args.workload, args.seed, args.tiny)
    ref_configs = build_configs(experiment, args.workload,
                                workloads.DEFAULT_SEED, args.tiny)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out = args.out
    shutil.rmtree(out, ignore_errors=True)
    kept, work = os.path.join(out, "run"), os.path.join(out, "work")
    env = environment()
    attempted = failed = 0
    errors = []

    def attempt(cfgs, out_dir, ref_dir, run_id=0):
        nonlocal attempted, failed
        attempted += 1
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            times, reports = run_once(experiment, cfgs, out_dir)
        except Exception:
            failed += 1
            errors.append(traceback.format_exc())
            return None
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        msg = check(reports, out_dir, ref_dir)
        if msg:
            failed += 1
            errors.append(msg)
        return Run(run_id, times, reports, wall, cpu)

    # Warm-up: the default-seed configs, checked against the committed
    # reference outputs; untimed, so lazy set-up and caches are filled.
    ref_dir = None if args.tiny else os.path.join(REFERENCE_DIR,
                                                  args.workload)
    warm_dir = os.path.join(out, "warmup")
    warm = attempt(ref_configs, warm_dir, ref_dir)
    identical = (byte_identical(warm_dir, ref_dir, warm.reports)
                 if warm and ref_dir else None)

    # Timed closed loop.  At the default seed every run is checked against
    # the reference; at any other seed the first timed run is checked by
    # its pass flags, its outputs are kept for comparing two commits with
    # refcheck.py, and every later run must match them.
    first_ref = later_ref = ref_dir
    if args.seed != workloads.DEFAULT_SEED or args.tiny:
        first_ref, later_ref = None, kept
    tracer = tracing.Tracer() if args.trace else None
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        first = not plain and not traced
        use_trace = tracer is not None and len(plain) > len(traced)
        uninstall = None
        if use_trace:
            tracer.run_id += 1
            uninstall = tracing.install(tracer)
        try:
            res = attempt(configs, kept if first else work,
                          first_ref if first else later_ref,
                          tracer.run_id if use_trace else 0)
        finally:
            if uninstall is not None:
                uninstall()
        if res is not None:
            (traced if use_trace else plain).append(res)
        if time.perf_counter() >= deadline and (
                (plain and (tracer is None or traced)) or failed):
            break
    if not plain or (tracer is not None and not traced):
        print("\n".join(errors), file=sys.stderr)
        return 1

    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    walls = [r.wall for r in plain]
    result = {"attempted": attempted, "failed": failed, "errors": errors[:5],
              "env": env, "byte_identical": identical,
              "run_s_samples": walls}
    if tracer is None:
        result["metrics"] = {"setup_s": setup_s,
                             "run_s": statistics.median(walls),
                             "peak_rss_mb": peak_kb / 1024.0}
    else:
        tracer.write(os.path.join(out, "spans.csv"))
        result["metrics"] = layer_metrics(tracer, plain, traced)
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, plain, traced):
    """Per-layer metrics: span totals from the traced runs, times per
    trial and CPU time from the untraced runs, medians over runs."""
    per_run = [tracing.layer_totals(tracer, r.run_id, r.wall)
               for r in traced]
    metrics = {key: statistics.median(d[key] for d in per_run)
               for key in per_run[0]}
    reports = plain[0].reports
    for kind in ("recover", "discretize", "eig-check", "concentration",
                 "sweep"):
        names = [name for name, cfg, _rep in reports if cfg.kind == kind]
        rows = sum(len(rep.rows) for name, _cfg, rep in reports
                   if name in names)
        metrics["experiment.trial_s." + kind] = statistics.median(
            sum(r.times[n] for n in names) / rows
            for r in plain) if names else 0.0
    metrics["experiment.cpu_s"] = statistics.median(r.cpu for r in plain)
    metrics["experiment.useful_share"] = useful_share(reports)
    metrics["trace.overhead_share"] = (
        statistics.median(r.wall for r in traced)
        / statistics.median(r.wall for r in plain) - 1.0)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
