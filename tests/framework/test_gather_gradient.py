"""``gather``'s gradient is the scatter-add behind indexing, at any axis:
a repeated index accumulates, exactly as ``np.add.at`` does."""

import numpy as np
import pytest

from repro import framework as fw
from repro.framework import ops

PARAMS = np.arange(24.0).reshape(2, 3, 4) / 7.0
#: Per axis, indices that repeat (and a 2-d set, whose shape the
#: gathered axis takes).
INDICES = {0: np.array([1, 0, 1], np.int32),
           1: np.array([[2, 0], [2, 2]], np.int32),
           -1: np.array([3, 3, 1, 3], np.int64)}


def _reference(axis, indices):
    """The gradient of sum(gather(p, i, axis) * w) with respect to p."""
    w = np.random.default_rng(axis % 3).standard_normal(
        np.take(PARAMS, indices, axis=axis).shape)
    want = np.zeros_like(PARAMS)
    np.add.at(want, (slice(None),) * (axis % PARAMS.ndim) + (indices,), w)
    return w, want


def _eager(axis, indices, w):
    p = ops.constant(PARAMS)
    with fw.GradientTape() as tape:
        tape.watch(p)
        y = ops.reduce_sum(ops.gather(p, indices, axis=axis) * w)
    return tape.gradient(y, p).numpy()


def _graph(axis, indices, w):
    g = fw.Graph()
    with g.as_default():
        p = ops.placeholder(fw.float64, PARAMS.shape)
        y = ops.reduce_sum(ops.gather(p, indices, axis=axis) * w)
        dp = fw.gradients(y, p)
    return fw.Session(g).run(dp, {p: PARAMS})


@pytest.mark.parametrize("mode", [_eager, _graph], ids=["eager", "graph"])
@pytest.mark.parametrize("axis", sorted(INDICES))
def test_gather_gradient_adds_at_every_repeated_index(axis, mode):
    w, want = _reference(axis, INDICES[axis])
    got = mode(axis, INDICES[axis], w)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, want)
