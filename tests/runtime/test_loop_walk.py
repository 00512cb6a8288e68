"""A staged ``While`` runs as one generated loop (``emit.loop``), and a
staged ``for`` over an integer ``range`` counts instead of indexing a
materialised range.

What a turn used to do through the binder and two walk calls, the loop
now does in lines of its own; these tests pin that it still does the
same: Python's ``range`` semantics, ``maximum_iterations``, the
``ExecutionError`` naming a failing body op, the binder's
``FetchError`` for a carried value of the wrong shape, nested loops and
a loop inside a branch.
"""

import numpy as np
import pytest

import repro
from repro import framework as fw
from repro.framework import ops
from repro.framework.errors import ExecutionError, FetchError
from repro.framework.graph.func_graph import bound_func_graph
from test_oracle import assert_same


def _ordered_sum(n, start, step):
    """Every element of ``range(start, n, step)``, in order: each turn
    folds its element in a way no other order reproduces."""
    total = np.int32(0)
    count = np.int32(0)
    for i in range(start, n, step):
        total = total * 3 + i
        count = count + 1
    return total, count


def _counted(n, start, step):
    total, count = 0, 0
    for i in range(start, int(n), step):
        total, count = total * 3 + i, count + 1
    return total, count


@pytest.mark.parametrize("n,start,step", [
    (7, 0, 1),      # the plain range(n)
    (0, 0, 1),      # zero trips
    (-3, 0, 1),     # a limit below the start: zero trips
    (11, 1, 3),     # a non-unit step
    (-9, 4, -2),    # a negative step
    (4, 4, -1),     # a negative step, zero trips
])
def test_a_staged_range_visits_what_python_does(n, start, step):
    fn = repro.function(_ordered_sum)
    total, count = fn(np.int32(n), start, step)
    want_total, want_count = _counted(n, start, step)
    assert int(np.asarray(count)) == want_count
    assert int(np.asarray(total)) == want_total
    assert np.asarray(total).dtype == np.int32


def test_an_int64_bound_counts_in_int32():
    total, count = repro.function(_ordered_sum)(np.int64(6), 0, 1)
    assert (int(np.asarray(total)), int(np.asarray(count))) == _counted(
        6, 0, 1)


def _plan_types(plan):
    type_of = {op.name: op.type for op in plan.graph.ops}
    return [type_of.get(step[4], "fused") for step in plan.steps]


def test_a_counted_range_materialises_nothing():
    """No ``Range`` runs, and no ``Shape`` or ``GetItem`` reads one:
    the loop counts from the start by the step."""
    cf = repro.function(_ordered_sum).get_concrete_function(
        np.int32(5), 0, 1)
    outer = _plan_types(cf._bound.plan)
    assert "While" in outer
    assert not {"Range", "Shape", "GetItem"} & set(outer)
    (loop,) = [op for op in cf.optimized_graph.ops if op.type == "While"]
    cond, _ = bound_func_graph(loop.get_attr("cond_graph"))
    body, _ = bound_func_graph(loop.get_attr("body_graph"))
    cf(np.int32(5), 0, 1)
    assert _plan_types(cond.plan) == ["Less"]
    assert "GetItem" not in _plan_types(body.plan)


def _float_range(n):
    total = 0.0
    for x in range(0.5, n):
        total = total + x
    return total


def test_a_float_range_keeps_the_indexed_loop():
    got = repro.function(_float_range)(np.float64(3.0))
    assert float(np.asarray(got)) == 0.5 + 1.5 + 2.5


def test_maximum_iterations_is_honoured():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [2])
        i, y = fw.while_loop(lambda i, y: i < 100,
                             lambda i, y: (i + 1, y * 2.0),
                             (np.int32(0), x), maximum_iterations=3)
    got_i, got_y = fw.Session(g).run([i, y], {x: np.ones(2, np.float32)})
    assert int(got_i) == 3
    assert_same([got_y], [np.full(2, 8.0, np.float32)])


def test_an_exception_in_a_body_op_names_that_op():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [2, 3])
        _, y = fw.while_loop(
            lambda i, y: i < 2,
            lambda i, y: (i + 1, ops.add(y, ops.reduce_sum(
                ops.matmul(x, x, name="bad_matmul")))),
            (np.int32(0), ops.reduce_sum(x)), name="loop")
    with pytest.raises(ExecutionError) as info:
        fw.Session(g).run(y, {x: np.ones((2, 3), np.float32)})
    assert info.value.op_name == "bad_matmul"
    assert isinstance(info.value.__cause__, ValueError)


def test_a_carried_value_of_the_wrong_shape_is_the_binders_fetch_error():
    """A variable read behind its declared shape makes the body hand
    back a ``(3,)`` for a ``(2,)`` loop variable: the next turn's check
    raises the binder's ``FetchError``, naming the loop variable's
    placeholder, and the ``While`` step wraps it."""
    v = fw.Variable(np.zeros(2, np.float32), name="loop_reshaped")
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [2])
        _, y = fw.while_loop(lambda i, y: i < 3,
                             lambda i, y: (i + 1, v.value()),
                             (np.int32(0), x), name="loop")
    v._state.value = np.zeros(3, np.float32)
    with pytest.raises(ExecutionError, match="loop") as info:
        fw.Session(g).run(y, {x: np.ones(2, np.float32)})
    cause = info.value.__cause__
    assert type(cause) is FetchError
    assert str(cause) == (
        "Feed for 'arg1:0' has shape (3,), incompatible with declared (2,)")


def _nested(x, n):
    i = np.int32(0)
    while i < n:
        j = np.int32(0)
        while j < i:
            x = ops.tanh(x + 0.5)
            j = j + 1
        x = x * 0.75
        i = i + 1
    return x


def _nested_eager(x, n):
    for i in range(int(n)):
        for _ in range(i):
            x = np.tanh(x + np.float32(0.5))
        x = x * np.float32(0.75)
    return x


def test_nested_loops_run_as_before():
    x = np.linspace(-1, 1, 6, dtype=np.float32)
    fn = repro.function(_nested)
    for n in (0, 1, 4):
        got = fn(x, np.int32(n))
        assert_same([got], [_nested_eager(x, n)])
