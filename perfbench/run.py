"""rkhslab benchmark: closed-loop runs of workloads taken from the
acceptance configs.

    python3 perfbench/run.py --workload recover-secular --seed 0 \\
        --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its ``src``
directory, no install needed.  Each run of a workload calls
``experiment.run(cfg)`` and ``ExperimentReport.write(dir)`` for each of its
configs, one run after the other (one client, closed loop), for
``--seconds``.

With ``--trace 0`` it reports setup_s (median over several fresh
interpreters), run_s (median wall time of one run) and peak_rss_mb.  With
``--trace 1`` it alternates untraced and traced runs and reports the
per-layer split.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Outputs of the first timed run, the environment and (traced) the spans are
kept under perfbench/out/<workload>/seed-<n>/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 4
WORKER_SLACK_S = 120
SETUP_TIMEOUT_S = 30


def _worker(args, extra, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed)] + extra
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("worker failed with exit code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny configs for the benchmark's own test")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rkhslab",
                                       "__init__.py")):
        print("no rkhslab sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2

    out = os.path.join(HERE, "out", args.workload, "seed-%d%s"
                       % (args.seed, "-tiny" if args.tiny else ""))
    res = _worker(args, ["--seconds", str(args.seconds), "--trace",
                         str(args.trace), "--out", out],
                  args.seconds + WORKER_SLACK_S)
    metrics = res["metrics"]
    if not args.trace:
        setup = [metrics["setup_s"]] + [
            _worker(args, ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"]
            for _ in range(SETUP_PROBES)]
        metrics["setup_s"] = statistics.median(setup)

    spec_metrics = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in spec_metrics if m["name"] not in metrics]
    if missing:
        print("no measurement for %s" % ", ".join(missing), file=sys.stderr)
        return 1
    walls = res["run_s_samples"]
    q1, _med, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 \
        else (walls[0],) * 3
    res["run_s_quartiles"] = [q1, q3]
    res["run_s_count"] = len(walls)
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)

    print("env %s" % json.dumps(res["env"], sort_keys=True))
    ident = res["byte_identical"]
    if ident:
        print("reference: %d of %d files byte-identical, the rest within "
              "1e-10 relative" % tuple(ident))
    for err in res["errors"]:
        print("FAILED: %s" % err.strip().splitlines()[-1])
    print("run_s over %d runs: q1 %.4f q3 %.4f" % (len(walls), q1, q3))
    for m in spec_metrics:
        print("%-42s %14.6g %s" % (m["name"], metrics[m["name"]], m["unit"]))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in spec_metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
