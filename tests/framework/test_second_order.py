"""Second derivatives: one reverse-mode walk serves ``gradients()`` and
the ``GradientTape``, and every gradient is built from ops that have a
gradient themselves, so differentiating a gradient works in both modes
and agrees with the analytic (or central-difference) answer."""

import functools

import numpy as np
import pytest

import repro
from repro import framework as fw
from repro.framework import ops
from repro.framework.errors import StagingError

A = np.arange(1.0, 7.0).reshape(2, 3)
X = np.array([3.0, -1.0, 0.5])
# Away from 0 (``where``'s switch) and with no tie in a row or column.
M = np.array([[0.3, -1.2, 0.8], [1.5, 0.4, -0.6]])
SOFT_LABELS = np.array([[0.2, 0.5, 0.3], [1.0, 0.0, 0.0]])


def _cube(t):
    return t * t * t


# (function, point, d/dx of sum(d sum(f)/dx) written out by hand, or
# None for central differences of the first derivative)
CASES = {
    "square": (lambda x: x * x, np.array(3.0), lambda x: 2.0),
    "cube": (lambda x: x * x * x, np.array(3.0), lambda x: 6.0 * x),
    # [2, 3] * [3]: the first derivative sums over the broadcast axis.
    "broadcast_cube": (lambda x: A * (x * x * x), X,
                       lambda x: 6.0 * x * A.sum(axis=0)),
    # sum(x)**3: every element's first derivative is 3 sum(x)**2.
    "reduce_sum": (lambda x: _cube(ops.reduce_sum(x)), M,
                   lambda x: 6.0 * x.size * x.sum()),
    "reduce_max": (lambda x: _cube(ops.reduce_max(x, axis=1)), M, None),
    "reduce_min": (lambda x: _cube(ops.reduce_min(x, keepdims=True)), M,
                   None),
    "where": (lambda x: ops.where(ops.greater(x, 0.0), _cube(x), x * x), M,
              lambda x: np.where(x > 0.0, 6.0 * x, 2.0)),
    "reshape": (lambda x: A.T * _cube(ops.squeeze(ops.expand_dims(
        ops.reshape(x, [3, 2]), 0), axis=0)), M, None),
    "concat": (lambda x: _cube(ops.concat([x, x * x], axis=1)), M, None),
    "stack": (lambda x: _cube(ops.stack([x, x * x], axis=-1)), M, None),
    "gather_axis0": (lambda x: _cube(ops.gather(x, [1, 0, 1], axis=0)), M,
                     None),
    "gather_axis1": (lambda x: _cube(ops.gather(x, [2, 2, 0], axis=1)), M,
                     None),
    # Products of slices: the mixed partials cross the rows.
    "slicing": (lambda x: x[0] * x[1] * x[1, ::-1], M, None),
    "softmax_xent": (lambda x: ops.softmax_cross_entropy_with_logits(
        SOFT_LABELS, x), M, None),
    "sparse_softmax_xent": (
        lambda x: ops.sparse_softmax_cross_entropy_with_logits(
            np.array([2, 0], np.int32), x), M, None),
}
for _name, _reduce in (("sum", ops.reduce_sum), ("mean", ops.reduce_mean)):
    for _axis in (None, 1):
        for _keepdims in (False, True):
            CASES[f"reduce_{_name}_axis{_axis}_keepdims{_keepdims}"] = (
                lambda x, r=_reduce, a=_axis, k=_keepdims: _cube(
                    r(x * x, axis=a, keepdims=k)), M, None)


def _first_on_tape(f, x):
    x = ops.constant(x)
    with fw.GradientTape() as tape:
        tape.watch(x)
        y = f(x)
    return tape.gradient(y, x).numpy()


def _central_differences(f, x, h=1e-5):
    """d/dx of the sum of the (first-order, eager) first derivative."""
    out = np.empty_like(x)
    for j in np.ndindex(x.shape):
        step = np.zeros_like(x)
        step[j] = h
        out[j] = (_first_on_tape(f, x + step).sum()
                  - _first_on_tape(f, x - step).sum()) / (2 * h)
    return out


def _second_on_tapes(f, x):
    x = ops.constant(x)
    with fw.GradientTape() as outer:
        outer.watch(x)
        with fw.GradientTape() as inner:
            inner.watch(x)
            y = f(x)
        dy = inner.gradient(y, x)
    return outer.gradient(dy, x).numpy()


def _second_in_a_graph(f, x, declared="static"):
    """``gradients(gradients(...))``, the placeholder declaring its
    shape, only its rank, or nothing (the gradients then read split
    points and counts from ``shape`` / ``size`` ops)."""
    shape = {"static": np.shape(x), "rank": [None] * np.ndim(x),
             "unknown": None}[declared]
    g = fw.Graph()
    with g.as_default():
        p = ops.placeholder(fw.float64, shape)
        d2 = fw.gradients(fw.gradients(f(p), p), p)
    return fw.Session(g).run(d2, {p: x})


@pytest.mark.parametrize("second", [
    _second_on_tapes, _second_in_a_graph,
    functools.partial(_second_in_a_graph, declared="rank"),
    functools.partial(_second_in_a_graph, declared="unknown"),
], ids=["tape", "graph", "graph_rank_only", "graph_unknown_shape"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_second_derivative_is_the_analytic_one(case, second):
    f, x, want = CASES[case]
    got = second(f, x)
    assert np.asarray(got).dtype == np.float64
    if want is None:
        np.testing.assert_allclose(got, _central_differences(f, x),
                                   rtol=1e-6, atol=1e-7)
    else:
        np.testing.assert_allclose(
            got, np.broadcast_to(want(x), np.shape(x)), rtol=1e-12)


@pytest.mark.parametrize("backend", ["graph", "lantern"])
def test_a_second_derivative_through_a_traced_call_raises(backend):
    """The traced call's backward replay is recorded on the outer tape
    as an op with no gradient, so the outer tape names it rather than
    answering ``None``."""
    @repro.function(backend=backend)
    def cube(x):
        return x * x * x

    x = ops.constant(np.array(3.0))
    with fw.GradientTape() as outer:
        outer.watch(x)
        with fw.GradientTape() as inner:
            inner.watch(x)
            y = cube(x)
        dy = inner.gradient(y, x)
    assert dy.numpy() == 27.0
    with pytest.raises(StagingError, match=r"'cube_\d+_call_grad'"):
        outer.gradient(dy, x)
