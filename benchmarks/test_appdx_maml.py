"""Appendix D.3: MAML sinusoid meta-learning, Eager vs AutoGraph.

Paper findings: AutoGraph 1.9x faster when training a single
meta-parameter (task per meta-batch), 2.7x with 10 — more tasks mean more
Python-side loop iterations for eager to pay for.

The staged variant builds the inner-loop gradients with graph AD at
staging time; the eager variant rebuilds tapes every step (first-order
MAML in both cases — see apps/maml.py).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.autograph as ag
from repro import framework as fw
from repro.apps import maml
from benchmarks_util import scaled
from repro.framework import ops

HIDDEN = scaled(40, 16)
NUM_POINTS = 10
TASK_COUNTS = scaled((1, 10), (1, 4))
WARMUP = scaled(3, 1)
RUNS = scaled(12, 3)

TABLE = "Appendix D.3: MAML (meta-steps/sec)"


def _tasks(n):
    rng = np.random.default_rng(5)
    out = []
    for _ in range(n):
        xs, ys = maml.sample_task(rng, NUM_POINTS)
        xq, yq = maml.sample_task(rng, NUM_POINTS)
        out.append((xs, ys, xq, yq))
    return out


@pytest.mark.parametrize("num_tasks", TASK_COUNTS)
@pytest.mark.parametrize("impl", ["Eager", "AutoGraph"])
def test_maml(benchmark, results, impl, num_tasks):
    params_np = maml.init_params(hidden=HIDDEN, seed=0)
    tasks = _tasks(num_tasks)

    if impl == "Eager":
        params = [ops.constant(p) for p in params_np]

        def run():
            current = params
            for xs, ys, xq, yq in tasks:
                current, _ = maml.maml_step_eager(
                    ops.constant(xs), ops.constant(ys),
                    ops.constant(xq), ops.constant(yq), current,
                )
            return current
    else:
        converted = ag.to_graph(maml.maml_step_staged)
        graph = fw.Graph()
        with graph.as_default():
            current = [ops.constant(p) for p in params_np]
            loss_t = None
            for xs, ys, xq, yq in tasks:
                current, loss_t = converted(
                    ops.constant(xs), ops.constant(ys),
                    ops.constant(xq), ops.constant(yq), current,
                )
        sess = fw.Session(graph)
        fetches = tuple(current) + (loss_t,)

        def run():
            return sess.run(fetches)

    benchmark.pedantic(run, rounds=RUNS, warmup_rounds=WARMUP)
    stats = benchmark.stats.stats
    rate = 1.0 / stats.mean
    results.record(TABLE, impl, f"tasks={num_tasks}", rate,
                   rate * (stats.stddev / stats.mean) if stats.mean else 0.0,
                   "meta-steps/s")


def test_maml_learns(results):
    """Meta-training on sinusoids actually reduces post-adaptation loss."""
    rng = np.random.default_rng(0)
    params = [ops.constant(p) for p in maml.init_params(hidden=16, seed=0)]

    def eval_loss(ps):
        losses = []
        eval_rng = np.random.default_rng(123)
        for _ in range(5):
            xs, ys = maml.sample_task(eval_rng, NUM_POINTS)
            xq, yq = maml.sample_task(eval_rng, NUM_POINTS)
            _, q_loss = maml.maml_step_eager(
                ops.constant(xs), ops.constant(ys),
                ops.constant(xq), ops.constant(yq), list(ps),
                outer_lr=0.0,
            )
            losses.append(float(np.asarray(q_loss)))
        return float(np.mean(losses))

    before = eval_loss(params)
    for _ in range(scaled(60, 10)):
        xs, ys = maml.sample_task(rng, NUM_POINTS)
        xq, yq = maml.sample_task(rng, NUM_POINTS)
        params, _ = maml.maml_step_eager(
            ops.constant(xs), ops.constant(ys),
            ops.constant(xq), ops.constant(yq), params,
            outer_lr=0.01,
        )
    after = eval_loss(params)
    assert after < before, f"meta-training did not help: {before} -> {after}"