"""``where``'s gradient sends each branch its share, summed back onto
that branch's own shape: a branch that broadcasts against the condition
(or the other branch) gets a gradient of its own shape, in both modes."""

import numpy as np
import pytest

from repro import framework as fw
from repro.framework import ops

Z = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
X = np.arange(4.0) / 3.0


def _loss(x, z):
    return ops.reduce_sum(ops.where(ops.greater(z, 0.0), x, z) * z)


def _eager(x, z):
    x, z = ops.constant(x), ops.constant(z)
    with fw.GradientTape() as tape:
        tape.watch(x)
        tape.watch(z)
        y = _loss(x, z)
    return [g.numpy() for g in tape.gradient(y, [x, z])]


def _graph(x, z):
    g = fw.Graph()
    with g.as_default():
        xp = ops.placeholder(fw.float64, x.shape)
        zp = ops.placeholder(fw.float64, z.shape)
        grads = fw.gradients(_loss(xp, zp), [xp, zp])
    assert [t.shape for t in grads] == [fw.TensorShape(x.shape),
                                        fw.TensorShape(z.shape)]
    return fw.Session(g).run(grads, {xp: x, zp: z})


def _numeric(x, z, eps=1e-6):
    """Central differences of the loss, per element of each operand."""
    def loss(x, z):
        return float(np.sum(np.where(z > 0.0, x, z) * z))

    grads = []
    for which, value in enumerate((x, z)):
        g = np.zeros_like(value)
        for idx in np.ndindex(value.shape):
            hi, lo = value.copy(), value.copy()
            hi[idx] += eps
            lo[idx] -= eps
            args = [(hi, z), (x, hi)][which]
            down = [(lo, z), (x, lo)][which]
            g[idx] = (loss(*args) - loss(*down)) / (2 * eps)
        grads.append(g)
    return grads


@pytest.mark.parametrize("mode", [_eager, _graph], ids=["eager", "graph"])
def test_each_branch_gets_a_gradient_of_its_own_shape(mode):
    dx, dz = mode(X, Z)
    assert dx.shape == X.shape and dz.shape == Z.shape
    want_dx, want_dz = _numeric(X, Z)
    np.testing.assert_allclose(dx, want_dx, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(dz, want_dz, rtol=1e-6, atol=1e-8)
