"""Command line front end.

Exit codes: 0 means the run's acceptance predicates held, 1 means a
predicate failed, 2 means the config was invalid.
"""

import argparse
import sys

from . import experiment
from .errors import ConfigError


def _parser():
    p = argparse.ArgumentParser(prog="rkhslab")
    sub = p.add_subparsers(dest="command", required=True)
    for name in experiment.KINDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--threads", type=int, default=None)
        sp.add_argument("--out", default=None)
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = experiment.parse_config(fh.read())
        raw["kind"] = args.command
        cfg = experiment.build_config(raw, seed=args.seed, out=args.out,
                                      threads=args.threads)
        report = experiment.run(cfg)
    except (ConfigError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2

    out_dir = cfg.out or "out"
    trials_path, summary_path = report.write(out_dir)
    print("wrote %s and %s" % (trials_path, summary_path))
    print("config hash %s" % report.config_hash)
    status = "PASS" if report.passed else "FAIL"
    print("%s %s" % (status, report.kind))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
