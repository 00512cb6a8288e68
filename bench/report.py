"""Printing runs, saving them, and comparing two saved sets of runs."""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys

from . import harness

__all__ = ["run_lines", "run_all", "compare"]

#: ``run --smoke``: one 0.3 s window and a single set-up per run.
SMOKE_SECONDS = 0.3


def run_lines(result):
    """One printable line per metric of one run: name, value, unit and —
    for timings — the sample count and the per-window spread.  A timing
    whose windows disagree by more than the metric's bound is marked
    ``unstable``: not a number to compare."""
    bounds = {m["name"]: m["bound"]
              for m in harness.benchmark_spec()["end_to_end"]}
    head = (f"{result['workload']} (seed {result['seed']}, "
            f"{'traced' if result['trace'] else 'untraced'}): "
            f"{result['attempted']} operations, {result['failed']} failed, "
            f"error_rate {result['failed'] / result['attempted']:.6f}")
    lines = [head]
    for name, m in result["metrics"].items():
        line = f"  {name:40s} {m['value']:14.4f} {m['unit']}"
        if "samples" in m:
            line += f"  n={m['samples']} spread={m['spread']:.1%}"
            if m["spread"] > bounds.get(name, float("inf")):
                line += "  unstable"
        lines.append(line)
    return lines


def _environment():
    """What the numbers were measured on (noise hygiene)."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # an older NumPy, or an unusual build
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "loadavg_1min": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
    }


def run_all(args):
    """``python3 -m bench run``: every workload, untraced then traced,
    each in subprocesses of its own; non-zero exit on any failure.
    Repeat *k* uses seed ``--seed`` + *k*."""
    spec = harness.benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    seconds = (SMOKE_SECONDS if args.smoke
               else args.seconds or spec["run_seconds"])
    setup_reps = 1 if args.smoke else harness.SETUP_REPS
    env = _environment()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    runs = []
    failed = 0
    for repeat in range(args.repeat):
        run = {}
        for name in names:
            entry = {}
            for trace in (0, 1):
                result = harness.run_workload(
                    name, args.seed + repeat, seconds, trace, setup_reps)
                print("\n".join(run_lines(result)), flush=True)
                failed += result["failed"]
                entry["traced" if trace else "untraced"] = result
            run[name] = entry
        runs.append(run)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"environment": env, "seconds": seconds,
                       "runs": runs}, f, indent=1)
    if failed:
        print(f"FAILED: {failed} operations failed", file=sys.stderr)
        return 1
    return 0


# -- compare -----------------------------------------------------------------


def _iqr_share(values):
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _series(doc, workload, metric):
    """The metric's value in every run of a saved document, and the
    widest per-window spread any of those runs reported."""
    entries = [run[workload]["untraced"]["metrics"][metric]
               for run in doc["runs"] if workload in run]
    return ([e["value"] for e in entries],
            max((e.get("spread", 0.0) for e in entries), default=0.0))


def compare(path_a, path_b):
    """``python3 -m bench compare A.json B.json``.

    One row per (workload, end-to-end metric): both medians, B/A, the
    bound, and a verdict — ``unresolved`` when the spread (between runs
    when a side has four or more, else between the windows of a run) is
    wider than the bound, otherwise ``worse``/``better`` when B differs
    from A by more than the bound in that direction, else ``same``.
    Exits non-zero on any ``worse`` or on a higher failed share.
    """
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    spec = harness.benchmark_spec()
    worse = 0
    print(f"{'workload':18s} {'metric':18s} {'A median':>14s} "
          f"{'B median':>14s} {'B/A':>7s} {'bound':>6s} {'spread':>7s}  "
          "verdict")
    for w in spec["workloads"]:
        name = w["name"]
        if not any(name in run for run in a["runs"] + b["runs"]):
            continue
        for m in spec["end_to_end"]:
            va, window_a = _series(a, name, m["name"])
            vb, window_b = _series(b, name, m["name"])
            med_a, med_b = statistics.median(va), statistics.median(vb)
            ratio = med_b / med_a
            if min(len(va), len(vb)) >= 4:
                spread = max(_iqr_share(va), _iqr_share(vb))
            else:
                spread = max(window_a, window_b)
            # > 1 means B is worse, whatever the metric's direction.
            worse_by = ratio if m["better"] == "lower" else 1 / ratio
            if spread > m["bound"]:
                verdict = "unresolved"
            elif worse_by > 1 + m["bound"]:
                verdict = "worse"
                worse += 1
            elif worse_by < 1 / (1 + m["bound"]):
                verdict = "better"
            else:
                verdict = "same"
            print(f"{name:18s} {m['name']:18s} {med_a:14.3f} {med_b:14.3f} "
                  f"{ratio:7.3f} {m['bound']:6.0%} {spread:7.1%}  {verdict}")
        share = []
        for doc in (a, b):
            results = [run[name]["untraced"] for run in doc["runs"]
                       if name in run]
            share.append(sum(r["failed"] for r in results)
                         / sum(r["attempted"] for r in results))
        verdict = "worse" if share[1] > share[0] else "same"
        worse += verdict == "worse"
        print(f"{name:18s} {'failed_share':18s} {share[0]:14.6f} "
              f"{share[1]:14.6f} {'':7s} {'+0':>6s} {'':7s}  {verdict}")
    return 1 if worse else 0
