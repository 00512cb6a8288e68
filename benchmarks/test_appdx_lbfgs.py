"""Appendix D.2: L-BFGS, Eager vs AutoGraph.

Paper finding: with a batch of 10 problems, AutoGraph is almost 2x faster
than eager in approximately the same amount of code.  The same
``lbfgs_minimize`` source runs both ways (dynamic dispatch).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.autograph as ag
from repro import framework as fw
from repro.apps.lbfgs import lbfgs_minimize, make_problem
from benchmarks_util import scaled
from repro.framework import ops

BATCH = 10
DIM = scaled(24, 8)
MAX_ITER = scaled(40, 8)
WARMUP = scaled(3, 1)
RUNS = scaled(12, 3)

TABLE = "Appendix D.2: L-BFGS (solves/sec, batch of 10)"


@pytest.mark.parametrize("impl", ["Eager", "AutoGraph"])
def test_lbfgs(benchmark, results, impl):
    a, b, x0 = make_problem(batch_size=BATCH, dim=DIM, seed=3)

    if impl == "Eager":
        ea, eb, ex0 = (ops.constant(v) for v in (a, b, x0))

        def run():
            return lbfgs_minimize(ea, eb, ex0, m=5, max_iter=MAX_ITER)
    else:
        converted = ag.to_graph(lbfgs_minimize)
        graph = fw.Graph()
        with graph.as_default():
            ta, tb, tx0 = (ops.constant(v) for v in (a, b, x0))
            outs = converted(ta, tb, tx0, m=5, max_iter=MAX_ITER)
        sess = fw.Session(graph)

        def run():
            return sess.run(outs)

    # Correctness: the solver actually minimizes (A x ≈ b).
    if impl == "Eager":
        x_final, iters, gnorm = run()
        residual = np.max(np.abs(
            np.einsum("bij,bj->bi", a, np.asarray(x_final)) - b
        ))
        assert residual < 1e-2, f"L-BFGS did not converge: residual {residual}"

    benchmark.pedantic(run, rounds=RUNS, warmup_rounds=WARMUP)
    stats = benchmark.stats.stats
    rate = 1.0 / stats.mean
    results.record(TABLE, impl, f"dim={DIM} iters={MAX_ITER}", rate,
                   rate * (stats.stddev / stats.mean) if stats.mean else 0.0,
                   "solves/s")
