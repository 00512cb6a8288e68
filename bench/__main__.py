"""Command line of the benchmark (see ``bench/README.md``)."""

from __future__ import annotations

import argparse
import json
import sys

from . import ROOT

if not (ROOT / "src" / "repro").is_dir():
    # Nothing to measure: the benchmark never carries a copy of the program.
    sys.exit(f"bench: no program to measure: {ROOT / 'src' / 'repro'} "
             "is missing")

from . import harness, report  # noqa: E402


def _add_run_options(parser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run "
                             "(default: run_seconds of BENCHMARK.json)")


def _one(argv):
    """The driver's entry: one run of one workload, one JSON line last."""
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    _add_run_options(parser)
    args = parser.parse_args(argv)
    seconds = args.seconds or harness.benchmark_spec()["run_seconds"]
    result = harness.run_workload(args.workload, args.seed, seconds,
                                  args.trace)
    print("\n".join(report.run_lines(result)))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result["metrics"].items()
        },
    }))
    return 0


def _run(argv):
    parser = argparse.ArgumentParser(prog="python3 -m bench run")
    _add_run_options(parser)
    parser.add_argument("--smoke", action="store_true",
                        help="one 0.3 s window: checks plumbing, not speed")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds --seed, --seed+1, "
                             "... (compare reads their medians)")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all)")
    parser.add_argument("--out", default=None, help="write results as JSON")
    args = parser.parse_args(argv)
    return report.run_all(args)


def _compare(argv):
    parser = argparse.ArgumentParser(prog="python3 -m bench compare")
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    return report.compare(args.a, args.b)


def _child(argv):
    parser = argparse.ArgumentParser(prog="python3 -m bench child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    harness.child_main(parser.parse_args(argv))
    return 0


def main(argv):
    commands = {"run": _run, "compare": _compare, "child": _child}
    if argv and argv[0] in commands:
        return commands[argv[0]](argv[1:])
    return _one(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
