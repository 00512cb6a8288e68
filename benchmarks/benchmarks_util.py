"""Benchmark harness matching the paper's measurement protocol.

The paper reports mean ± std over N timed runs after W warm-up runs
(§9: "Five warm-up runs were executed, and the mean and standard
deviation of the 100 following runs are reported").  ``measure``
implements exactly that; sizes/run-counts scale down via the
``REPRO_BENCH_FAST`` environment variable so the suite stays runnable in
constrained environments.
"""

from __future__ import annotations

import os
import time

import numpy as np

__all__ = ["measure", "BenchResult", "fast_mode", "scaled", "print_table"]


def fast_mode():
    """True when REPRO_BENCH_FAST is set: tiny sizes, few runs."""
    return os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")


def scaled(normal, fast):
    """Pick a parameter by mode."""
    return fast if fast_mode() else normal


class BenchResult:
    """Mean/std of per-run wall time, plus derived throughputs."""

    def __init__(self, times, label=""):
        self.times = np.asarray(times, dtype=np.float64)
        self.label = label

    @property
    def mean(self):
        return float(self.times.mean())

    @property
    def std(self):
        return float(self.times.std())

    def throughput(self, units_per_run):
        """(mean, std) of units/sec across runs (e.g. examples/sec)."""
        rates = units_per_run / self.times
        return float(rates.mean()), float(rates.std())

    def __repr__(self):
        return f"BenchResult({self.label!r}, mean={self.mean:.6f}s, std={self.std:.6f}s)"


def measure(fn, warmup=None, runs=None, label=""):
    """Time ``fn`` with the paper's warm-up + timed-runs protocol."""
    if warmup is None:
        warmup = scaled(5, 1)
    if runs is None:
        runs = scaled(20, 3)
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return BenchResult(times, label=label)


def print_table(title, headers, rows):
    """Print a paper-style results table."""
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print()
    print(f"=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    print()
