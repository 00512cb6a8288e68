"""Fast path vs ``Session.run``: result equivalence and binding.

Every graph family the repo's examples exercise — arithmetic chains,
matmul models, reductions, conditionals, while loops, stateful variable
updates — must produce identical results through the positional
``BoundPlan.execute_flat`` fast path and the legacy feed-dict
``Session.run`` wrapper; the fast path skips copies and dict plumbing,
never math.
"""

import numpy as np
import pytest

import repro
from repro import framework as fw
from repro.framework import ops
from repro.runtime import BoundPlan, compile_plan


def _linear_model(g):
    with g.as_default():
        x = ops.placeholder(fw.float32, [None, 4], name="x")
        w = ops.constant(np.linspace(-1, 1, 8).reshape(4, 2).astype(np.float32))
        b = ops.constant(np.array([0.5, -0.5], np.float32))
        y = ops.add(ops.matmul(x, w), b)
    return [x], [y], [np.random.RandomState(0).randn(3, 4).astype(np.float32)]


def _arith_chain(g):
    with g.as_default():
        x = ops.placeholder(fw.float32, [5], name="x")
        h = ops.tanh(ops.multiply(ops.add(x, 1.0), 2.0))
        y = ops.subtract(ops.exp(h), ops.abs(x))
    return [x], [y], [np.linspace(-2, 2, 5).astype(np.float32)]


def _reductions(g):
    with g.as_default():
        x = ops.placeholder(fw.float32, [2, 3], name="x")
        y1 = ops.reduce_sum(x, axis=1)
        y2 = ops.reduce_mean(x)
        y3 = ops.reduce_max(x, axis=0)
    return [x], [y1, y2, y3], [np.arange(6, dtype=np.float32).reshape(2, 3)]


def _conditional(g):
    with g.as_default():
        x = ops.placeholder(fw.float32, [], name="x")
        y = fw.cond(ops.greater(x, 0.0),
                    lambda: ops.multiply(x, 10.0),
                    lambda: ops.subtract(x, 10.0))
    return [x], [y], [np.float32(3.0)]


def _while_loop(g):
    with g.as_default():
        n = ops.placeholder(fw.int32, [], name="n")
        _, total = fw.while_loop(
            lambda i, acc: ops.less(i, n),
            lambda i, acc: (ops.add(i, 1), ops.add(acc, i)),
            [ops.constant(0), ops.constant(0)])
    return [n], [total], [np.int32(10)]


def _two_feeds(g):
    with g.as_default():
        a = ops.placeholder(fw.float32, [3], name="a")
        b = ops.placeholder(fw.float32, [3], name="b")
        y = ops.add(ops.multiply(a, b), ops.maximum(a, b))
    return [a, b], [y], [np.array([1., -2., 3.], np.float32),
                         np.array([-1., 5., 2.], np.float32)]


GRAPHS = {
    "linear_model": _linear_model,
    "arith_chain": _arith_chain,
    "reductions": _reductions,
    "conditional": _conditional,
    "while_loop": _while_loop,
    "two_feeds": _two_feeds,
}


@pytest.mark.parametrize("builder", GRAPHS.values(), ids=GRAPHS.keys())
def test_fast_path_matches_session_run(builder):
    g = fw.Graph()
    feeds, fetches, values = builder(g)

    sess = fw.Session(g)
    via_session = sess.run(fetches, dict(zip(feeds, values)))

    bound = BoundPlan(compile_plan(g, fetches, feeds), feeds)
    via_fast = bound.execute_flat(values)

    for a, b in zip(via_session, via_fast):
        np.testing.assert_allclose(a, b, rtol=1e-6)
    # Determinism across repeated fast-path calls.
    for a, b in zip(via_fast, bound.execute_flat(values)):
        np.testing.assert_allclose(a, b, rtol=1e-6)


def test_fast_path_matches_session_with_variable_state():
    v = fw.Variable(np.zeros(3, np.float32), name="engine_state_v")
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [3], name="x")
        updated = v.assign_add(x)
    feeds, fetches = [x], [updated]
    sess = fw.Session(g)
    got = sess.run(fetches, {x: np.ones(3, np.float32)})[0]
    np.testing.assert_allclose(got, np.ones(3))

    bound = BoundPlan(compile_plan(g, fetches, feeds), feeds)
    got = bound.execute_flat([np.ones(3, np.float32)])[0]
    np.testing.assert_allclose(got, np.full(3, 2.0))
    np.testing.assert_allclose(v.numpy(), np.full(3, 2.0))


def test_concrete_function_call_equals_legacy_session_path():
    """The refactored ConcreteFunction (bound fast path) must agree with
    an explicit Session.run over its own optimized graph."""

    @repro.function
    def model(x):
        h = ops.tanh(ops.matmul(x, ops.ones([4, 4]) * 0.5))
        return ops.reduce_sum(h, axis=1)

    x = np.random.RandomState(1).randn(2, 4).astype(np.float32)
    cf = model.get_concrete_function(x)
    via_call = cf(x).numpy()

    sess = fw.Session(cf.optimized_graph)
    via_session = sess.run(cf._output_fetches,
                           dict(zip(cf._feeds, [x])))[0]
    np.testing.assert_allclose(via_call, via_session, rtol=1e-6)


def test_concrete_function_eager_tensor_args_still_work():
    @repro.function
    def double(x):
        return ops.multiply(x, 2.0)

    out = double(fw.EagerTensor(np.array([1.0, 2.0], np.float32)))
    np.testing.assert_allclose(out.numpy(), [2.0, 4.0])


def test_bound_plan_coerces_lists_and_scalars():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [2], name="x")
        s = ops.placeholder(fw.float32, [], name="s")
        y = ops.multiply(x, s)
    bound = BoundPlan(compile_plan(g, [y], [x, s]), [x, s])
    np.testing.assert_allclose(
        bound.execute_flat([[1.0, 2.0], 3.0])[0], [3.0, 6.0])


def test_correctly_typed_ndarray_is_not_copied_on_input():
    """The fast path's whole point: no validation copy per feed."""
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [4], name="x")
        y = ops.identity(x)
    bound = BoundPlan(compile_plan(g, [y], [x]), [x])
    arg = np.ones(4, np.float32)
    out = bound.execute_flat([arg])[0]
    # Identity's kernel returns its input; with no validation copy in
    # between, the caller's array flows straight through.
    assert out is arg


@pytest.mark.parametrize("declared, good, bad", [
    ([2, 3], (2, 3), [(3, 2), (2, 3, 1), (6,)]),     # exact: one compare
    ([None], (7,), [(), (7, 1)]),                     # rank only
    ([None, 3], (5, 3), [(5, 4), (3,), (5, 3, 1)]),   # rank + known dims
    (None, (4, 1, 2), []),                            # unknown rank
])
def test_bind_checks_each_feed_by_its_declared_shape(declared, good, bad):
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, declared, name="x")
        y = ops.identity(x)
    bound = BoundPlan(compile_plan(g, [y], [x]), [x])
    assert bound.execute_flat([np.zeros(good, np.float32)])[0].shape == good
    for shape in bad:
        with pytest.raises(fw.FetchError, match="incompatible with declared"):
            bound.bind([np.zeros(shape, np.float32)])
