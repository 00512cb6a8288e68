"""Running one workload: the parent that spawns, the child that measures.

The parent (:func:`run_workload`) starts the workload in subprocesses of
its own, so the AutoGraph conversion cache, the plan caches and the peak
RSS of one workload never leak into another, and so set-up — including
interpreter start and ``import repro`` — is timed from outside, several
times per run.  The child (:func:`child_main`) sets the workload up,
reports how long that took, runs either the untraced or the traced pass
and prints one JSON result.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from . import OUT, ROOT
from .measure import closed_loop, summarize

__all__ = ["run_workload", "child_main", "benchmark_spec", "SETUP_REPS"]

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Chrome-trace events written per workload (the self-time table always
#: covers every span).
MAX_TRACE_EVENTS = 50_000


def benchmark_spec():
    """``BENCHMARK.json``: the one list of workload and metric names."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child_env(tmp):
    env = dict(os.environ)
    # One BLAS thread: the numbers measure the program, not the BLAS
    # scheduler fighting the benchmark's own threads for two cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    # glibc moves its mmap threshold with the process's allocation
    # history, so the cost of allocating a large array (page faults or
    # not) depends on what ran before: up to 2x on the RNN workloads
    # between two builds of the same plan.  Fixed thresholds switch the
    # adjustment off.
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(256 << 20)
    # Fixed hashing: plan and graph counts must repeat exactly.
    env["PYTHONHASHSEED"] = "0"
    # AutoGraph writes its generated modules to the temp dir; keep them
    # (and everything else a run writes) inside the checkout.
    env["TMPDIR"] = str(tmp)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _spawn(name, seed, seconds, trace, setup_only, env):
    """Run one child to completion; returns its JSON lines."""
    cmd = [sys.executable, "-m", "bench", "child",
           "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--t0", repr(time.time())]
    if setup_only:
        cmd.append("--setup-only")
    # A hung child must not hang the run (the full child measures for
    # --seconds, at most 60).
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, check=False,
                          timeout=30 if setup_only else 120)
    if proc.returncode != 0:
        raise RuntimeError(
            f"workload {name!r} child exited with {proc.returncode}")
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]


def run_workload(name, seed, seconds, trace, setup_reps=SETUP_REPS):
    """One run of one workload; returns its result document::

        {"workload", "seed", "trace", "attempted", "failed",
         "metrics": {name: {"value", "unit", ["samples", "spread"]}}}

    With ``trace=0`` the metrics are the end-to-end ones, with
    ``trace=1`` the per-layer ones (a metric that does not apply to the
    workload reads 0).
    """
    spec = benchmark_spec()
    if name not in [w["name"] for w in spec["workloads"]]:
        raise ValueError(f"unknown workload {name!r}")
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    env = _child_env(tmp)
    try:
        setups = [
            _spawn(name, seed, seconds, trace, True, env)[0]["setup_s"]
            for _ in range(setup_reps - 1)
        ]
        ready, result = _spawn(name, seed, seconds, trace, False, env)
        setups.append(ready["setup_s"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    values = result["metrics"]
    if trace:
        declared = spec["per_layer"]
        unknown = set(values) - {m["name"] for m in declared}
        if unknown:
            raise RuntimeError(f"undeclared per-layer metrics {unknown}")
    else:
        declared = spec["end_to_end"]
        values["setup_s"] = {
            "value": statistics.median(setups),
            "samples": len(setups),
            "spread": (max(setups) - min(setups))
            / statistics.median(setups),
        }
    metrics = {}
    for m in declared:
        entry = dict(values.get(m["name"], {"value": 0.0}))
        entry["unit"] = m["unit"]
        metrics[m["name"]] = entry
    return {
        "workload": name, "seed": seed, "trace": trace,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": metrics,
    }


# -- the child ---------------------------------------------------------------


def _peak_rss_mb():
    """Max RSS of this process and of its reaped children, in MB."""
    kb = max(resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024.0


def child_main(args):
    """Set up ``args.workload``, then measure it (see module docstring)."""
    from .spans import SpanRecorder
    from .workloads import WORKLOADS
    from .workloads.base import Probes

    workload = WORKLOADS[args.workload](args.seed)

    def measure(callers, warmup_s, seconds):
        return summarize(closed_loop(
            callers, warmup_s, seconds, workload.cycle, workload.calibrated))

    workload.setup()
    print(json.dumps({"setup_s": time.time() - args.t0}), flush=True)
    try:
        if args.setup_only:
            return
        warmup_s = min(2.0, args.seconds / 4)
        if not args.trace:
            summary = measure(workload.callers(), warmup_s, args.seconds)
            metrics = _end_to_end(summary)
        else:
            # A short untraced pass first: the traced pass is read against
            # it, in the same process, for the tracing overhead.
            untraced = measure(workload.callers(), warmup_s,
                               args.seconds / 4)
            spans = SpanRecorder()
            summary = measure(workload.traced_callers(spans), 0.0,
                              args.seconds / 4)
            layers = workload.layers(spans, untraced, Probes(args.seconds))
            layers["bench.trace_overhead_ratio"] = (
                summary["p50_s"] / untraced["p50_s"])
            if workload.calibrated:
                # The probes are raw timings; the calibration says what
                # state the machine was in while they were taken.
                layers["bench.calibration_us"] = statistics.median(
                    [untraced["calibration_s"],
                     summary["calibration_s"]]) * 1e6
            metrics = {k: {"value": v} for k, v in layers.items()}
            summary["attempted"] += untraced["attempted"]
            summary["failed"] += untraced["failed"]
            _write_trace(spans, args.workload)
    finally:
        workload.teardown()
    if not args.trace:
        metrics["peak_rss_mb"] = {"value": _peak_rss_mb()}
    print(json.dumps({"attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}),
          flush=True)


def _end_to_end(summary):
    samples, spread = summary["samples"], summary["spread"]
    return {
        "latency_p50_us": {"value": summary["p50_s"] * 1e6,
                           "samples": samples, "spread": spread["p50"]},
        "latency_p90_us": {"value": summary["p90_s"] * 1e6,
                           "samples": samples, "spread": spread["p90"]},
        "throughput_per_s": {"value": summary["throughput"],
                             "samples": samples,
                             "spread": spread["throughput"]},
    }


def _write_trace(spans, name):
    table = spans.self_time_table()
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"selftime_{name}.txt").write_text("\n".join(table) + "\n")
    spans.save(OUT / f"trace_{name}.json", MAX_TRACE_EVENTS)
    print("\n".join(table), file=sys.stderr)
