"""Second derivatives: one reverse-mode walk serves ``gradients()`` and
the ``GradientTape``, so differentiating a gradient works in both modes
and agrees with the analytic answer."""

import numpy as np
import pytest

from repro import framework as fw
from repro.framework import ops

A = np.arange(1.0, 7.0).reshape(2, 3)
X = np.array([3.0, -1.0, 0.5])

# (function, point, d/dx of sum(d sum(f)/dx), written out by hand)
CASES = {
    "square": (lambda x: x * x, np.array(3.0), lambda x: 2.0),
    "cube": (lambda x: x * x * x, np.array(3.0), lambda x: 6.0 * x),
    # [2, 3] * [3]: the first derivative sums over the broadcast axis.
    "broadcast_cube": (lambda x: A * (x * x * x), X,
                       lambda x: 6.0 * x * A.sum(axis=0)),
}


def _second_on_tapes(f, x):
    x = ops.constant(x)
    with fw.GradientTape() as outer:
        outer.watch(x)
        with fw.GradientTape() as inner:
            inner.watch(x)
            y = f(x)
        dy = inner.gradient(y, x)
    return outer.gradient(dy, x).numpy()


def _second_in_a_graph(f, x):
    g = fw.Graph()
    with g.as_default():
        p = ops.placeholder(fw.float64, np.shape(x))
        d2 = fw.gradients(fw.gradients(f(p), p), p)
    return fw.Session(g).run(d2, {p: x})


@pytest.mark.parametrize("second", [_second_on_tapes, _second_in_a_graph],
                         ids=["tape", "graph"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_second_derivative_is_the_analytic_one(case, second):
    f, x, want = CASES[case]
    got = second(f, x)
    assert np.asarray(got).dtype == np.float64
    np.testing.assert_allclose(got, np.broadcast_to(want(x), np.shape(x)),
                               rtol=1e-12)
