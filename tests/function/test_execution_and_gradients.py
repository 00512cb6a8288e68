"""Traced execution semantics: state, optimization payoff, gradients."""

import numpy as np
import pytest

import repro
from repro import framework as fw
from repro.framework import GradientTape, ops
from repro.framework.graph.optimize import count_ops


# -- variables and side effects ------------------------------------------------


def test_variable_updates_apply_on_every_call():
    w = fw.Variable(np.zeros((2,), np.float32), name="tfv_w")

    @repro.function
    def step(x):
        w.assign_add(x)
        return ops.reduce_sum(x)

    step(np.ones((2,), np.float32))
    step(np.ones((2,), np.float32))
    assert step.trace_count == 1
    # The assign is not on the path to the returned tensor, yet it must
    # run on every call (stateful ops are fetched explicitly).
    assert np.allclose(w.numpy(), 2.0)


def test_variable_created_inside_trace_is_initialized():
    @repro.function
    def f(x):
        v = fw.Variable(np.full((2,), 10.0, np.float32), name="tfv_inner")
        return x + v.value()

    out = f(np.ones((2,), np.float32))
    assert np.allclose(out.numpy(), 11.0)
    # Same signature: the cached trace reuses the variable it created.
    out = f(np.full((2,), 2.0, np.float32))
    assert np.allclose(out.numpy(), 12.0)
    assert f.trace_count == 1


def test_training_loop_trains_and_traces_once():
    rs = np.random.RandomState(0)
    bx = rs.randn(32, 20).astype(np.float32)
    by = np.eye(4, dtype=np.float32)[rs.randint(0, 4, 32)]

    @repro.function
    def train(x, y, w0, b0, num_steps, learning_rate):
        w = w0
        b = b0
        i = 0
        while i < num_steps:
            logits = ops.add(ops.matmul(x, w), b)
            loss = ops.reduce_mean(
                ops.softmax_cross_entropy_with_logits(y, logits))
            dw, db = fw.gradients(loss, [w, b])
            w = ops.subtract(w, ops.multiply(dw, learning_rate))
            b = ops.subtract(b, ops.multiply(db, learning_rate))
            i = i + 1
        return w, b

    w0 = np.zeros((20, 4), np.float32)
    b0 = np.zeros((4,), np.float32)
    w, b = train(bx, by, w0, b0, np.int32(30), 0.5)
    w, b = train(bx, by, w0, b0, np.int32(30), 0.5)
    assert train.trace_count == 1

    logits = bx @ w.numpy() + b.numpy()
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = -np.mean((by * log_probs).sum(axis=1))
    assert loss < np.log(4.0)  # better than uniform


# -- the optimizer runs at trace time -----------------------------------------


def test_trace_time_optimization_shrinks_graph():
    @repro.function
    def f(x):
        dead = ops.exp(x) + 100.0          # unused: DCE
        a = ops.tanh(x)
        b = ops.tanh(x)                    # duplicate: CSE
        k = ops.multiply(ops.constant(2.0), ops.constant(3.0))  # folds
        del dead
        return a + b + k

    out = f(np.zeros((2,), np.float32))
    assert np.allclose(out.numpy(), 6.0)
    cf = f.get_concrete_function(np.zeros((2,), np.float32))
    assert count_ops(cf.optimized_graph) < count_ops(cf.graph)
    assert count_ops(cf.optimized_graph, "Exp") == 0
    assert count_ops(cf.optimized_graph, "Tanh") == 1
    assert count_ops(cf.optimized_graph, "Mul") == 0


def test_optimization_preserves_multiple_same_spec_inputs():
    # Regression companion to the Placeholder-CSE fix: two inputs with
    # identical dtype/shape must stay distinct through optimization.
    @repro.function
    def f(x, y):
        return x - y

    out = f(np.full((2,), 5.0, np.float32), np.full((2,), 3.0, np.float32))
    assert np.allclose(out.numpy(), 2.0)
    cf = f.concrete_functions()[0]
    assert count_ops(cf.optimized_graph, "Placeholder") == 2


# -- gradients ------------------------------------------------------------------


def test_tape_gradient_through_decorated_loss():
    @repro.function
    def loss_fn(w, b, x, y):
        logits = ops.add(ops.matmul(x, w), b)
        return ops.reduce_mean(
            ops.softmax_cross_entropy_with_logits(y, logits))

    rs = np.random.RandomState(0)
    w = fw.EagerTensor(rs.randn(5, 3).astype(np.float32))
    b = fw.EagerTensor(np.zeros(3, np.float32))
    x = fw.EagerTensor(rs.randn(8, 5).astype(np.float32))
    y = fw.EagerTensor(np.eye(3, dtype=np.float32)[rs.randint(0, 3, 8)])

    with GradientTape() as tape:
        tape.watch(w)
        tape.watch(b)
        out = loss_fn(w, b, x, y)
    dw, db = tape.gradient(out, [w, b])

    with GradientTape() as ref_tape:
        ref_tape.watch(w)
        ref_tape.watch(b)
        logits = ops.add(ops.matmul(x, w), b)
        ref = ops.reduce_mean(ops.softmax_cross_entropy_with_logits(y, logits))
    dw_ref, db_ref = ref_tape.gradient(ref, [w, b])

    assert np.allclose(out.numpy(), ref.numpy(), atol=1e-6)
    assert np.allclose(dw.numpy(), dw_ref.numpy(), atol=1e-5)
    assert np.allclose(db.numpy(), db_ref.numpy(), atol=1e-5)


def test_tape_gradient_none_for_unconnected_input():
    @repro.function
    def f(x, unused):
        return ops.reduce_sum(x * x)

    x = fw.EagerTensor(np.array([1.0, 2.0], np.float32))
    u = fw.EagerTensor(np.array([5.0], np.float32))
    with GradientTape() as tape:
        tape.watch(x)
        tape.watch(u)
        out = f(x, u)
    dx, du = tape.gradient(out, [x, u])
    assert np.allclose(dx.numpy(), [2.0, 4.0])
    assert du is None


def test_tape_gradient_used_in_eager_training_step():
    # SGD on a quadratic through a traced loss converges.
    w = fw.EagerTensor(np.array([4.0], np.float32))

    @repro.function
    def loss_fn(w):
        return ops.reduce_sum((w - 1.0) * (w - 1.0))

    for _ in range(50):
        with GradientTape() as tape:
            tape.watch(w)
            loss = loss_fn(w)
        (dw,) = tape.gradient(loss, [w])
        w = fw.EagerTensor(w.numpy() - 0.1 * dw.numpy())
    assert loss_fn.trace_count == 1
    assert abs(float(w.numpy()[0]) - 1.0) < 1e-3


def test_tape_gradient_wrt_closed_over_variable():
    v = fw.Variable(np.array([2.0], np.float32), name="tape_closed_v")

    @repro.function
    def loss_fn(x):
        return ops.reduce_sum(x * v.value() * v.value())

    x = fw.EagerTensor(np.array([3.0], np.float32))
    with GradientTape() as tape:
        tape.watch(v)
        loss = loss_fn(x)
    (dv,) = tape.gradient(loss, [v])
    # d/dv (x * v^2) = 2 x v = 12
    assert np.allclose(dv.numpy(), [12.0])


def test_tape_gradient_wrt_variable_argument():
    v = fw.Variable(np.array([4.0], np.float32), name="tape_arg_v")

    @repro.function
    def loss_fn(w):
        return ops.reduce_sum(w * w)

    with GradientTape() as tape:
        tape.watch(v)
        loss = loss_fn(v)
    (dv,) = tape.gradient(loss, [v])
    assert np.allclose(dv.numpy(), [8.0])


def test_in_graph_gradients_inside_trace():
    @repro.function
    def grad_of_square(x):
        y = ops.reduce_sum(x * x)
        (g,) = fw.gradients(y, [x])
        return g

    out = grad_of_square(np.array([1.0, 3.0], np.float32))
    assert np.allclose(out.numpy(), [2.0, 6.0])


def test_autograph_off_still_traces_dispatch():
    @repro.function(autograph=False)
    def f(x):
        return ops.add(x, 1.0)

    assert np.allclose(f(np.ones((2,), np.float32)).numpy(), 2.0)
    assert f.trace_count == 1

    @repro.function(autograph=False)
    def g(x):
        if x > 0:  # symbolic bool without AutoGraph must fail loudly
            return x
        return -x

    with pytest.raises(TypeError, match="symbolic Tensor as a Python bool"):
        g(np.float32(1.0))
