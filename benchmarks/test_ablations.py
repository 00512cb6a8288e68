"""Ablation benches for the design choices DESIGN.md calls out.

1. **Dynamic dispatch overhead** (§6): "if AutoGraph was used to perform
   normal unstaged Python computation, it would be slower."  We measure a
   pure-Python function raw vs converted.
2. **Session.run overhead** (Table 2's mechanism): per-call cost of
   ``Session.run`` on a trivial graph — the overhead the in-graph loop
   amortizes.
3. **Plan cache** (DESIGN.md §6, "staging cost is paid once"): Session
   with a warm plan cache vs recompiling the plan each call.
"""

from __future__ import annotations

import pytest

import repro.autograph as ag
from repro import framework as fw
from benchmarks_util import scaled
from repro.framework import ops

WARMUP = scaled(3, 1)
RUNS = scaled(15, 3)

TABLE = "Ablations (relative cost of the machinery)"


def _pure_python_work(n):
    total = 0
    i = 0
    while i < n:
        if i % 3 == 0:
            total += i * 2
        else:
            total += 1
        i += 1
    return total


N = scaled(3000, 200)


@pytest.mark.parametrize("impl", ["raw Python", "AutoGraph-converted"])
def test_dispatch_overhead(benchmark, results, impl):
    """§6: dynamic dispatch makes *unstaged* code slower."""
    if impl == "raw Python":
        fn = _pure_python_work
    else:
        fn = ag.to_graph(_pure_python_work)
    assert fn(50) == _pure_python_work(50)

    benchmark.pedantic(lambda: fn(N), rounds=RUNS, warmup_rounds=WARMUP)
    stats = benchmark.stats.stats
    rate = 1.0 / stats.mean
    results.record(TABLE, f"dispatch: {impl}", f"n={N}", rate,
                   rate * (stats.stddev / stats.mean) if stats.mean else 0.0,
                   "calls/s")


@pytest.mark.parametrize("impl", ["per-call Session.run (fed batch)",
                                  "in-graph loop (const batch)"])
def test_session_overhead(benchmark, results, impl):
    """Table 2's mechanism in isolation.

    Each ``Session.run`` validates and copies its feeds (as TF does);
    moving the loop in-graph replaces per-step feeding with a one-time
    constant.  We run the same per-step computation both ways.
    """
    import numpy as np

    iters = scaled(100, 20)
    batch = np.random.default_rng(0).normal(
        size=(scaled(200, 32), 784)).astype(np.float32)
    graph = fw.Graph()
    with graph.as_default():
        x = ops.placeholder(fw.float32, batch.shape)
        step_out = ops.reduce_mean(ops.tanh(x))
        const_x = ops.constant(batch)
        i0 = ops.constant(0, dtype="int32")
        v0 = ops.constant(0.0)
        _, v_final = ops.while_loop(
            lambda i, v: ops.less(i, iters),
            lambda i, v: (ops.add(i, ops.constant(1, dtype="int32")),
                          ops.add(v, ops.reduce_mean(ops.tanh(const_x)))),
            (i0, v0),
        )
    sess = fw.Session(graph)

    if impl.startswith("per-call"):
        def run():
            for _ in range(iters):
                sess.run(step_out, {x: batch})
    else:
        def run():
            return sess.run(v_final)

    benchmark.pedantic(run, rounds=RUNS, warmup_rounds=WARMUP)
    stats = benchmark.stats.stats
    rate = iters / stats.mean
    results.record(TABLE, f"session: {impl}", f"iters={iters}", rate,
                   rate * (stats.stddev / stats.mean) if stats.mean else 0.0,
                   "steps/s")


@pytest.mark.parametrize("impl", ["warm plan cache", "cold (recompiled) plans"])
def test_plan_cache(benchmark, results, impl):
    """The session's compiled-plan cache is what amortizes staging."""
    graph = fw.Graph()
    with graph.as_default():
        x = ops.placeholder(fw.float32, [8, 8])
        out = x
        for _ in range(scaled(30, 10)):
            out = ops.tanh(ops.add(ops.matmul(out, x), 0.1))
    import numpy as np

    feed_value = np.eye(8, dtype=np.float32) * 0.1
    warm = fw.Session(graph)

    if impl == "warm plan cache":
        def run():
            return warm.run(out, {x: feed_value})
    else:
        def run():
            return fw.Session(graph).run(out, {x: feed_value})

    benchmark.pedantic(run, rounds=RUNS, warmup_rounds=WARMUP)
    stats = benchmark.stats.stats
    rate = 1.0 / stats.mean
    results.record(TABLE, f"plan cache: {impl}", "30-op chain", rate,
                   rate * (stats.stddev / stats.mean) if stats.mean else 0.0,
                   "runs/s")