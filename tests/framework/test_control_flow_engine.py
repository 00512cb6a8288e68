"""Control flow through the engine: ``Cond`` / ``While`` branch and body
sub-graphs are ordinary ``repro.runtime`` plans.

The staged programs are oracle seeds (``tests/test_oracle.py``); here,
their sub-graph plans show the engine's optimizations (fused or in-place
steps, no ``Const`` steps), plus the failure modes of the lazily
compiled sub-graph plan — the first-call race and the un-fed
placeholder — and the declarations a captured or carried value keeps.
"""

import sys
import threading

import numpy as np
import pytest

import repro
from repro import framework as fw
from repro.framework import ops
from repro.framework.errors import ExecutionError, FetchError
from repro.framework.graph.func_graph import FuncGraph
from test_oracle import SEEDS, _flat, _rng_f32, while_inside_cond
from test_oracle import assert_same as _assert_bitwise_equal


def _sub_graphs(graph):
    """Every FuncGraph reachable through Cond/While attrs, nested too."""
    found = []
    for op in graph.ops:
        for value in op.attrs.values():
            if isinstance(value, FuncGraph):
                found.append(value)
                found.extend(_sub_graphs(value))
    return found


def _step_types(fg):
    """Op type per step of ``fg``'s published plan (``"fused"`` for
    composite steps, which stand for no single op)."""
    type_of = {op.name: op.type for op in fg.ops}
    return [type_of.get(step[4], "fused")
            for step in fg._plan[0].plan.steps]


# ---------------------------------------------------------------------------
# The staged programs' sub-graphs ran as engine plans.  That each one
# matches eager, bit for bit, twice in a row, without touching the
# caller's arrays, is the oracle's (``tests/test_oracle.py``); here, that
# the engine optimized the sub-graph plans it ran.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", [
    "cond_chain_true", "cond_chain_false", "while_matmul_tanh_array",
    "while_in_cond", "stateful_assign_no_output_depends_on",
    "maximum_iterations", "loop_var_passed_through"])
def test_sub_graphs_run_as_optimized_engine_plans(name):
    program = SEEDS[name]
    program.reset()
    fn = repro.function(program.fn)
    fn(*program.args)
    program.reset()
    cf, = fn.concrete_functions()
    ran = [fg for fg in _sub_graphs(cf.optimized_graph)
           if fg._plan is not None]
    assert ran
    dumps = [fg._plan[0].plan.describe() for fg in ran]
    assert any("fused[" in d or "inplace<-" in d for d in dumps), dumps
    # Every Const a body stages is baked at compile time: none is
    # re-evaluated per loop turn.
    assert any(op.type == "Const" for fg in ran for op in fg.ops)
    for fg in ran:
        assert "Const" not in _step_types(fg)


# ---------------------------------------------------------------------------
# The lazily compiled sub-graph plan
# ---------------------------------------------------------------------------


def test_first_call_race_publishes_one_complete_plan():
    """Eight threads make the first call of the same body at once.  The
    plan must be published as one record: a thread that sees it must
    never find it half-initialised."""
    n_threads = 8
    x = _rng_f32((4, 4), 11)
    want = None
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(25):
            fn = repro.function(while_inside_cond)
            cf = fn.get_concrete_function(x, np.int32(3))
            args = [x, np.int32(3)]
            if want is None:
                want = _flat(while_inside_cond(
                    ops.constant(x), ops.constant(np.int32(3))))
            barrier = threading.Barrier(n_threads)
            results, errors = [], []

            def first_call():
                try:
                    barrier.wait(timeout=10)
                    results.append(cf.call_flat(args))
                except Exception as e:  # noqa: BLE001 - reported below
                    errors.append(e)

            threads = [threading.Thread(target=first_call)
                       for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert not errors, errors
            assert len(results) == n_threads
            for r in results:
                _assert_bitwise_equal(_flat(r), want)
    finally:
        sys.setswitchinterval(interval)


def test_unfed_placeholder_in_a_body_is_a_typed_error():
    """A body that stages its own placeholder has a feed nobody can
    supply: the run fails naming the sub-graph and the op."""
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [2])

        def body(i, acc):
            orphan = ops.placeholder(fw.float32, [2], name="orphan")
            return i + 1, acc + orphan

        _, out = fw.while_loop(
            lambda i, acc: i < 2, body, (np.int32(0), x), name="loop")
    with pytest.raises(ExecutionError, match="loop") as info:
        fw.Session(g).run(out, {x: np.zeros(2, np.float32)})
    message = str(info.value)
    assert "loop_body" in message and "orphan" in message
    assert isinstance(info.value.__cause__, FetchError)


# ---------------------------------------------------------------------------
# Declared shapes and dtypes of what a branch captures or a loop carries
# ---------------------------------------------------------------------------


def test_capture_of_a_scalar_broadcast_select_declares_the_real_shape():
    """``where(cond, 0.0, x)`` comes out ``x``-shaped; a branch that
    captures it is fed that shape, so inference must not declare the
    scalar's."""

    def program(x, n):
        y = ops.where(n > 2, 0.0, x)
        if n > 0:
            z = ops.add(y, 1.0)
        else:
            z = ops.subtract(y, 1.0)
        return z

    x = _rng_f32((3,), 12)
    got = _flat(repro.function(program)(x, np.int32(1)))
    want = _flat(program(ops.constant(x), ops.constant(np.int32(1))))
    _assert_bitwise_equal(got, want)


def test_capture_of_a_cond_output_declares_what_both_branches_agree_on():
    """Either branch may run, so a ``Cond`` output keeps only the static
    dimensions its branches share; a later branch capturing it is then
    fed whatever came out."""

    def program(x, n):
        if n > 5:
            y = x
        else:
            y = x[:n]
        if n > 0:
            z = ops.add(y, 1.0)
        else:
            z = ops.subtract(y, 1.0)
        return z

    x = _rng_f32((3,), 14)
    fn = repro.function(program)
    for n in (np.int32(2), np.int32(7)):
        got = _flat(fn(x, n))
        want = _flat(program(ops.constant(x), ops.constant(n)))
        _assert_bitwise_equal(got, want)
    assert fn.trace_count == 1

    g = fw.Graph()
    with g.as_default():
        a = ops.placeholder(fw.float32, [3, 2])
        b = ops.placeholder(fw.float32, [4, 2])
        out = fw.cond(ops.placeholder(fw.bool_, []), lambda: a, lambda: b)
    assert out.shape == fw.TensorShape([None, 2])


def test_loop_var_enters_each_turn_at_its_declared_dtype():
    """A sub-graph is fed like any bound plan: values are coerced to the
    placeholder's declared dtype — so the declaration has to hold on
    every turn.  ``float32 * 1.1 - int32`` is float64 (NumPy's rule, and
    the declared one): the variable enters as float32 and comes back as
    float64, is therefore declared ``variant``, and the wider dtype
    drifts in exactly as it does eagerly.  With no turn at all the
    float32 initial value comes back untouched."""

    def program(x, n):
        i = np.int32(0)
        while i < n:
            x = ops.subtract(ops.multiply(x, 1.1), i)
            i = i + 1
        return x

    x = _rng_f32((4,), 13)
    fn = repro.function(program)
    for n, dtype in ((np.int32(5), np.float64), (np.int32(0), np.float32)):
        got, = _flat(fn(x, n))
        eager, = _flat(program(ops.constant(x), ops.constant(n)))
        assert eager.dtype == dtype
        _assert_bitwise_equal([got], [eager])
