"""Control flow through the engine: ``Cond`` / ``While`` branch and body
sub-graphs are ordinary ``repro.runtime`` plans.

One differential suite over staged programs — every case must match
eager execution bit for bit, twice in a row, without touching the
caller's arrays, while its sub-graph plans show the engine's
optimizations (fused or in-place steps, no ``Const`` steps) — plus the
failure modes of the lazily compiled sub-graph plan: the first-call
race and the un-fed placeholder.
"""

import sys
import threading

import numpy as np
import pytest

import repro
import repro.autograph as ag
from repro import framework as fw
from repro.framework import ops
from repro.framework.errors import ExecutionError, FetchError
from repro.framework.graph.func_graph import FuncGraph
from repro.serving import load, save


def _rng_f32(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape).astype(
        np.float32)


def _flat(result):
    return [np.asarray(leaf.numpy() if hasattr(leaf, "numpy") else leaf)
            for leaf in fw.nest.flatten(result)]


def _assert_bitwise_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


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
# The programs.  Each is plain imperative code: run once with native
# Python control flow on eager tensors, once staged by @repro.function.
# ---------------------------------------------------------------------------


def cond_with_a_chain_per_branch(x):
    if ops.reduce_sum(x) > 0.0:
        y = ops.tanh(ops.add(ops.multiply(x, x), 1.0))
    else:
        y = ops.multiply(ops.exp(ops.negative(x)), 0.5)
    return y


def while_matmul_tanh_with_array_writes(x, w, b, n):
    h = x
    outputs = fw.TensorArray(fw.float32, size=0)
    i = np.int32(0)
    while i < n:
        h = ops.tanh(ops.add(ops.matmul(h, w), b))
        outputs = outputs.write(i, ops.exp(h))
        # Same-shaped matmuls that run *after* the write, which was the
        # element buffer's last reader: none may write its result into
        # memory the array still points at.
        h = ops.matmul(ops.matmul(ops.matmul(h, w), w), w)
        i = i + 1
    return h, outputs.stack()


def while_inside_cond(x, n):
    if ops.reduce_max(x) > 0.0:
        i = np.int32(0)
        while i < n:
            x = ops.tanh(ops.add(ops.multiply(x, 2.0), 1.0))
            i = i + 1
    else:
        x = ops.negative(x)
    return x


def make_loop_with_unread_assign(counter):
    def loop_with_unread_assign(x, n):
        i = np.int32(0)
        while i < n:
            counter.assign_add(1.0)   # no output depends on this
            x = ops.sqrt(ops.add(ops.square(x), 1.0))
            i = i + 1
        return x

    return loop_with_unread_assign


def loop_with_maximum_iterations(x, n):
    i = np.int32(0)
    while i < n:
        ag.set_loop_options(maximum_iterations=3)
        x = ops.exp(ops.negative(ops.abs(x)))
        i = i + 1
    return x, i


def loop_with_maximum_iterations_eager(x, n):
    for _ in range(min(int(np.asarray(n)), 3)):
        x = ops.exp(ops.negative(ops.abs(x)))
    return x, ops.constant(np.int32(min(int(np.asarray(n)), 3)))


def loop_var_passed_through(x, k, n):
    # `k` is a declared loop variable the body hands back untouched.
    _, x, k = fw.while_loop(
        lambda i, x, k: i < n,
        lambda i, x, k: (i + 1, ops.tanh(ops.multiply(ops.add(x, k), k)), k),
        (np.int32(0), x, k))
    return x, k


def loop_var_passed_through_eager(x, k, n):
    for _ in range(int(np.asarray(n))):
        x = ops.tanh(ops.multiply(ops.add(x, k), k))
    return x, k


def _case_unread_assign():
    staged_counter = fw.Variable(np.float32(0.0), name="cf_engine_staged")
    eager_counter = fw.Variable(np.float32(0.0), name="cf_engine_eager")
    return dict(
        staged=make_loop_with_unread_assign(staged_counter),
        eager=make_loop_with_unread_assign(eager_counter),
        args=(_rng_f32((4, 4), 5), np.int32(4)),
        state=lambda: (staged_counter.numpy(), eager_counter.numpy()))


CASES = {
    "cond_chain_true": lambda: dict(
        staged=cond_with_a_chain_per_branch,
        args=(np.abs(_rng_f32((8, 8), 1)),)),
    "cond_chain_false": lambda: dict(
        staged=cond_with_a_chain_per_branch,
        args=(-np.abs(_rng_f32((8, 8), 2)),)),
    "while_matmul_tanh_array": lambda: dict(
        staged=while_matmul_tanh_with_array_writes,
        args=(_rng_f32((8, 8), 3), _rng_f32((8, 8), 4) * 0.3,
              _rng_f32((8,), 5), np.int32(5))),
    "while_in_cond": lambda: dict(
        staged=while_inside_cond,
        args=(_rng_f32((6, 6), 6), np.int32(3))),
    "stateful_assign_no_output_depends_on": _case_unread_assign,
    "maximum_iterations": lambda: dict(
        staged=loop_with_maximum_iterations,
        eager=loop_with_maximum_iterations_eager,
        args=(_rng_f32((5,), 7), np.int32(10))),
    "loop_var_passed_through": lambda: dict(
        staged=loop_var_passed_through,
        eager=loop_var_passed_through_eager,
        args=(_rng_f32((4, 4), 8), _rng_f32((4, 4), 9), np.int32(3))),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_staged_control_flow_matches_eager(name):
    case = CASES[name]()
    args = case["args"]
    pristine = [np.copy(a) for a in args]
    eager_fn = case.get("eager", case["staged"])
    fn = repro.function(case["staged"])

    first = _flat(fn(*args))
    want = _flat(eager_fn(*[ops.constant(a) for a in args]))
    _assert_bitwise_equal(first, want)
    if "state" in case:
        staged_state, eager_state = case["state"]()
        assert staged_state == eager_state != 0.0

    # A second call sees nothing of the first: no buffer the engine
    # reused inside a body leaks across loop turns or calls.
    _assert_bitwise_equal(_flat(fn(*args)), first)
    assert fn.trace_count == 1
    # The caller's arrays are never written.
    _assert_bitwise_equal([np.asarray(a) for a in args], pristine)

    # The sub-graphs ran as engine plans, with the engine's optimizations.
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
# Loop variables the body does not hand back as they entered
# ---------------------------------------------------------------------------


def grow(x, n):
    one = ops.constant(np.ones(1, np.float32))
    i = np.int32(0)
    while i < n:
        y = ops.tanh(ops.add(ops.multiply(one, one), x))
        x = ops.concat([y, y], 0)
        i = i + 1
    return x


def grow_into_nested_cond(x, n):
    s = ops.constant(np.float32(0.0))
    i = np.int32(0)
    while i < n:
        if i > 0:
            s = s + ops.reduce_sum(ops.tanh(ops.multiply(x, x)))
        else:
            s = s - 1.0
        x = ops.concat([x, x], 0)
        i = i + 1
    return s, x


def grow_into_nested_while(x, n):
    s = ops.constant(np.float32(0.0))
    i = np.int32(0)
    while i < n:
        y = ops.multiply(x, 2.0)    # derived from the growing variable
        j = np.int32(0)
        while j < 2:
            s = s + ops.reduce_sum(ops.exp(ops.negative(y)))
            j = j + 1
        x = ops.concat([x, x], 0)
        i = i + 1
    return s, x


def grow_drags_a_second_variable(x, n):
    # `y` only stops keeping its shape once `x` is known to lose its
    # own: settling the declared shapes takes two rounds.
    y = x
    s = ops.constant(np.float32(0.0))
    i = np.int32(0)
    while i < n:
        if i > 0:
            s = s + ops.reduce_sum(y)
        else:
            s = s - 1.0
        y = ops.multiply(x, 2.0)
        x = ops.concat([x, x], 0)
        i = i + 1
    return s, x, y


@pytest.mark.parametrize("program", [
    grow, grow_into_nested_cond, grow_into_nested_while,
    grow_drags_a_second_variable], ids=lambda f: f.__name__)
def test_loop_var_whose_shape_the_body_changes_keeps_working(
        program, tmp_path):
    """The engine checks fed values against declared shapes and fuses on
    them, so a loop variable that grows must stop declaring its entry
    shape — and so must everything the body derives from it, down into
    nested branch and loop sub-graphs that capture it — in the live
    trace and in an exported artifact alike."""
    x = np.ones(1, np.float32)
    n = np.int32(3)
    fn = repro.function(program)
    got = _flat(fn(x, n))
    want = _flat(program(ops.constant(x), ops.constant(n)))
    _assert_bitwise_equal(got, want)
    _assert_bitwise_equal(_flat(fn(x, n)), want)
    assert fn.trace_count == 1
    assert (8,) in [a.shape for a in got]

    cf, = fn.concrete_functions()
    save(cf, str(tmp_path / "m"))
    _assert_bitwise_equal(_flat(load(str(tmp_path / "m"))(x, n)), want)


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
