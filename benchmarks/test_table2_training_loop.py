"""Table 2: Model and Training Loop (SGD steps/sec).

A single linear layer trained on (synthetic) MNIST with SGD, four ways
(paper §9, "In-Graph Training"):

- **Eager**: define-by-run with GradientTape, one step per Python
  iteration;
- **Model In Graph, Loop In Python**: a one-step graph executed per
  Python iteration (one Session.run per step — the traditional style);
- **Model And Loop In Graph**: the whole 1000-step loop as a hand-written
  ``while_loop`` executed by one Session.run;
- **Model And Loop In AutoGraph**: the same loop written as imperative
  Python, converted;
- **Model And Loop In repro.function**: the same imperative loop behind
  the ``@repro.function`` tracing JIT — no hand-wired Graph/Session; the
  first call traces and every later call hits the signature cache.

The batch is fixed (machinery isolation; the paper does not specify
batch rotation).  Expected shape: Eager < Loop-in-Python < In-Graph ≈ AutoGraph, with
roughly the paper's 1.75× and 1.3× gaps.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
import repro.autograph as ag
from repro import framework as fw
from benchmarks_util import scaled
from repro.datasets import load_mnist_synthetic
from repro.framework import GradientTape, ops

STEPS = scaled(400, 20)
BATCH = scaled(200, 32)
WARMUP = scaled(2, 1)
RUNS = scaled(6, 2)
LEARNING_RATE = 0.3

TABLE = "Table 2: Model and Training Loop (SGD steps/sec)"

IMPLS = (
    "Eager",
    "Model In Graph, Loop In Python",
    "Model And Loop In Graph",
    "Model And Loop In AutoGraph",
    "Model And Loop In repro.function",
)


def _batch():
    images, labels = load_mnist_synthetic(num_examples=BATCH, seed=0)
    onehot = np.eye(10, dtype=np.float32)[labels]
    return images[:BATCH], onehot[:BATCH]


def _ag_train(x, y, w0, b0, num_steps, learning_rate):
    """The full training process, imperatively (converted by AutoGraph)."""
    w = w0
    b = b0
    i = 0
    while i < num_steps:
        logits = ops.add(ops.matmul(x, w), b)
        loss = ops.reduce_mean(ops.softmax_cross_entropy_with_logits(y, logits))
        dw, db = fw.gradients(loss, [w, b])
        w = ops.subtract(w, ops.multiply(dw, learning_rate))
        b = ops.subtract(b, ops.multiply(db, learning_rate))
        i = i + 1
    return w, b


def _run_eager(bx, by):
    w = fw.Variable(np.zeros((784, 10), np.float32), name="w_eager")
    b = fw.Variable(np.zeros((10,), np.float32), name="b_eager")

    def run():
        for _ in range(STEPS):
            x = ops.constant(bx)
            y = ops.constant(by)
            with GradientTape() as tape:
                tape.watch(w)
                tape.watch(b)
                logits = ops.add(ops.matmul(x, w.value()), b.value())
                loss = ops.reduce_mean(
                    ops.softmax_cross_entropy_with_logits(y, logits)
                )
            dw, db = tape.gradient(loss, [w, b])
            w.assign_sub(ops.multiply(dw, LEARNING_RATE))
            b.assign_sub(ops.multiply(db, LEARNING_RATE))

    return run


def _run_loop_in_python(bx, by):
    graph = fw.Graph()
    with graph.as_default():
        w = fw.Variable(np.zeros((784, 10), np.float32), name="w_py")
        b = fw.Variable(np.zeros((10,), np.float32), name="b_py")
        x = ops.placeholder(fw.float32, [BATCH, 784])
        y = ops.placeholder(fw.float32, [BATCH, 10])
        logits = ops.add(ops.matmul(x, w.value()), b.value())
        loss = ops.reduce_mean(ops.softmax_cross_entropy_with_logits(y, logits))
        dw, db = fw.gradients(loss, [w, b])
        upd_w = w.assign_sub(ops.multiply(dw, LEARNING_RATE))
        upd_b = b.assign_sub(ops.multiply(db, LEARNING_RATE))
        train_op = ops.group(upd_w, upd_b)
        init = fw.global_variables_initializer()
    sess = fw.Session(graph)

    def run():
        sess.run(init)
        for _ in range(STEPS):
            sess.run(train_op, {x: bx, y: by})

    return run


def _handwritten_in_graph(bx, by):
    graph = fw.Graph()
    with graph.as_default():
        px = ops.constant(bx)
        py = ops.constant(by)

        def cond(i, w, b):
            return ops.less(i, STEPS)

        def body(i, w, b):
            logits = ops.add(ops.matmul(px, w), b)
            loss = ops.reduce_mean(
                ops.softmax_cross_entropy_with_logits(py, logits)
            )
            dw, db = fw.gradients(loss, [w, b])
            return (
                ops.add(i, ops.constant(1, dtype="int32")),
                ops.subtract(w, ops.multiply(dw, LEARNING_RATE)),
                ops.subtract(b, ops.multiply(db, LEARNING_RATE)),
            )

        _, w_f, b_f = ops.while_loop(
            cond, body,
            (ops.constant(0, dtype="int32"), ops.zeros((784, 10)),
             ops.zeros((10,))),
        )
    sess = fw.Session(graph)

    def run():
        sess.run((w_f, b_f))

    return run


def _autograph_in_graph(bx, by):
    train = ag.to_graph(_ag_train)
    graph = fw.Graph()
    with graph.as_default():
        px = ops.constant(bx)
        py = ops.constant(by)
        w_f, b_f = train(px, py, ops.zeros((784, 10)), ops.zeros((10,)),
                         ops.constant(STEPS), LEARNING_RATE)
    sess = fw.Session(graph)

    def run():
        sess.run((w_f, b_f))

    return run


def _function_in_graph(bx, by):
    """The whole loop behind the tracing JIT: no Graph/Session hand-wiring.

    ``num_steps`` rides in as an np.int32 tensor leaf so the loop stages
    as one in-graph while_loop; the learning rate is a Python float and
    specializes the trace.  Warmup pays the single trace; timed rounds
    execute the cached compiled plan.
    """
    train = repro.function(_ag_train)
    w0 = np.zeros((784, 10), np.float32)
    b0 = np.zeros((10,), np.float32)
    steps = np.int32(STEPS)

    def run():
        train(bx, by, w0, b0, steps, LEARNING_RATE)

    return run, train


@pytest.mark.parametrize("impl", IMPLS)
def test_table2_training(benchmark, results, impl):
    bx, by = _batch()
    fn = None
    if impl == "Eager":
        run = _run_eager(bx, by)
    elif impl == "Model In Graph, Loop In Python":
        run = _run_loop_in_python(bx, by)
    elif impl == "Model And Loop In Graph":
        run = _handwritten_in_graph(bx, by)
    elif impl == "Model And Loop In AutoGraph":
        run = _autograph_in_graph(bx, by)
    else:
        run, fn = _function_in_graph(bx, by)

    benchmark.pedantic(run, rounds=RUNS, warmup_rounds=WARMUP)
    if fn is not None:
        # Staging is amortized: all warmup+timed calls shared one trace.
        assert fn.trace_count == 1
    stats = benchmark.stats.stats
    steps_per_sec = STEPS / stats.mean
    std = steps_per_sec * (stats.stddev / stats.mean) if stats.mean else 0.0
    results.record(TABLE, impl, f"steps={STEPS} batch={BATCH}",
                   steps_per_sec, std, "steps/s")
