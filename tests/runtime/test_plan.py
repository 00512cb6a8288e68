"""Tests for ``repro.runtime.plan``: compilation-level optimizations.

Covers the three plan-level rewrites the runtime performs on top of
pruning — constant pre-evaluation, dead-step elision and output-buffer
reuse — with an emphasis on the aliasing hazards buffer reuse must not
introduce (fetched intermediates, caller-owned feed arrays, baked
constants shared across calls).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import framework as fw
from repro import observe
from repro.framework import ops
from repro.framework.ops import dispatch
from repro.framework.registry import elementwise_ops, get_op_def
from repro.runtime import BoundPlan, compile_plan


def _plan_for(fetches, feeds=()):
    graph = (fetches[0] if isinstance(fetches, (list, tuple)) else fetches).graph
    flat = list(fetches) if isinstance(fetches, (list, tuple)) else [fetches]
    return compile_plan(graph, flat, list(feeds))


# ---------------------------------------------------------------------------
# Constant pre-evaluation
# ---------------------------------------------------------------------------


def test_constant_subgraph_pre_evaluates_to_zero_steps():
    g = fw.Graph()
    with g.as_default():
        a = ops.constant(2.0)
        b = ops.constant(3.0)
        y = ops.multiply(ops.add(a, b), 4.0)
    plan = _plan_for(y)
    # Every op (consts + add + mul) folded at compile time.
    assert plan.steps == ()
    assert BoundPlan(plan, []).execute_flat([]) == [pytest.approx(20.0)]


def test_constant_prefix_folds_but_fed_suffix_stays_live():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [])
        base = ops.add(ops.constant(2.0), ops.constant(3.0))  # foldable
        y = ops.multiply(base, x)  # depends on the feed
    plan = _plan_for(y, [x])
    assert len(plan.steps) == 1  # only the multiply survives
    bound = BoundPlan(plan, [x])
    assert bound.execute_flat([np.float32(2.0)]) == [pytest.approx(10.0)]


def test_stateful_ops_never_pre_evaluate():
    g = fw.Graph()
    with g.as_default():
        y = ops.random_normal([2, 2])
    plan = _plan_for(y)
    assert len(plan.steps) == 1
    bound = BoundPlan(plan, [])
    first = bound.execute_flat([])[0]
    second = bound.execute_flat([])[0]
    # A fresh sample per call — folding would freeze the randomness.
    assert not np.allclose(first, second)


def test_pre_evaluated_fetch_returns_value():
    g = fw.Graph()
    with g.as_default():
        y = ops.add(ops.constant([1.0, 2.0]), ops.constant([3.0, 4.0]))
    plan = _plan_for(y)
    np.testing.assert_allclose(
        BoundPlan(plan, []).execute_flat([])[0], [4.0, 6.0])


def test_fetched_baked_constant_is_immune_to_caller_mutation():
    """Baked values are shared across calls; a caller mutating a fetched
    constant-folded result must fail loudly, not poison later calls."""
    g = fw.Graph()
    with g.as_default():
        c = ops.add(ops.constant([1.0, 1.0]), ops.constant([1.0, 1.0]))
        y = ops.exp(c)
    sess = fw.Session(g)
    out = sess.run(c)
    with pytest.raises(ValueError):
        out += 1.0  # read-only
    np.testing.assert_allclose(sess.run(c), [2.0, 2.0])
    np.testing.assert_allclose(sess.run(y), np.exp([2.0, 2.0]))


def test_session_results_unchanged_by_pre_evaluation():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [2])
        c = ops.multiply(ops.constant([1.0, 2.0]), 3.0)
        y = ops.add(x, c)
        z = ops.reduce_sum(y)
    sess = fw.Session(g)
    got_y, got_z = sess.run([y, z], {x: [10.0, 20.0]})
    np.testing.assert_allclose(got_y, [13.0, 26.0])
    assert got_z == pytest.approx(39.0)


_BINARY_BUILDERS = [ops.add, ops.subtract, ops.multiply, ops.maximum]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_randomized_constant_graphs_match_eager(data):
    """Random const/feed DAGs: plan results == eager NumPy evaluation."""
    n_nodes = data.draw(st.integers(min_value=2, max_value=12), label="n")
    n_feeds = data.draw(st.integers(min_value=0, max_value=2), label="feeds")
    g = fw.Graph()
    sym = []       # symbolic tensors
    ref = []       # reference eager values
    feeds = []
    feed_vals = []
    with g.as_default():
        for i in range(n_feeds):
            ph = ops.placeholder(fw.float32, [3])
            val = np.asarray(
                data.draw(st.lists(
                    st.floats(-8, 8, width=32), min_size=3, max_size=3),
                    label=f"feed{i}"),
                dtype=np.float32)
            sym.append(ph)
            ref.append(val)
            feeds.append(ph)
            feed_vals.append(val)
        for i in range(n_nodes):
            if not sym or data.draw(st.booleans(), label=f"const{i}"):
                val = np.asarray(
                    data.draw(st.lists(
                        st.floats(-8, 8, width=32), min_size=3, max_size=3),
                        label=f"cval{i}"),
                    dtype=np.float32)
                sym.append(ops.constant(val))
                ref.append(val)
            else:
                op = data.draw(
                    st.sampled_from(_BINARY_BUILDERS), label=f"op{i}")
                a = data.draw(
                    st.integers(0, len(sym) - 1), label=f"a{i}")
                b = data.draw(
                    st.integers(0, len(sym) - 1), label=f"b{i}")
                sym.append(op(sym[a], sym[b]))
                kernel = {ops.add: np.add, ops.subtract: np.subtract,
                          ops.multiply: np.multiply,
                          ops.maximum: np.maximum}[op]
                ref.append(kernel(ref[a], ref[b]).astype(np.float32))
        fetch_idx = data.draw(
            st.lists(st.integers(0, len(sym) - 1), min_size=1, max_size=3),
            label="fetches")

    fetches = [sym[i] for i in fetch_idx]
    plan = compile_plan(g, fetches, feeds)
    bound = BoundPlan(plan, feeds)
    got = bound.execute_flat(feed_vals)
    for out, i in zip(got, fetch_idx):
        np.testing.assert_allclose(out, ref[i], rtol=1e-5, atol=1e-5)

    # And repeated execution must be stable: pre-evaluated base values
    # and donated buffers must not leak state across calls.
    again = bound.execute_flat(feed_vals)
    for out, i in zip(again, fetch_idx):
        np.testing.assert_allclose(out, ref[i], rtol=1e-5, atol=1e-5)


# ---------------------------------------------------------------------------
# Dead-step elision
# ---------------------------------------------------------------------------


def test_unfetched_branches_compile_to_no_steps():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [4])
        wanted = ops.multiply(x, 2.0)
        for _ in range(5):
            ops.add(ops.exp(x), 1.0)  # dead weight
    plan = _plan_for(wanted, [x])
    assert len(plan.steps) == 1


# ---------------------------------------------------------------------------
# Buffer reuse
# ---------------------------------------------------------------------------


def _inplace_steps(plan):
    return [s for s in plan.steps if s[5] is not None]


def test_single_consumer_intermediate_is_donated():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [8])
        t = ops.add(x, ops.constant(np.ones(8, np.float32)))
        y = ops.multiply(t, ops.constant(np.full(8, 2.0, np.float32)))
    # Unfused: this pins the per-step donation pass (with fuse=True the
    # add+mul chain collapses into one composite step that reuses the
    # intermediate's buffer *inside* the generated kernel instead).
    plan = compile_plan(g, [y], [x], fuse=False)
    assert len(_inplace_steps(plan)) == 1
    bound = BoundPlan(plan, [x])
    arg = np.arange(8, dtype=np.float32)
    np.testing.assert_allclose(bound.execute_flat([arg])[0], (arg + 1) * 2)


def test_fetched_intermediate_is_never_donated():
    """A fetch aliasing an intermediate must come back uncorrupted."""
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [4])
        t = ops.add(x, ops.constant(np.ones(4, np.float32)))
        y = ops.multiply(t, ops.constant(np.full(4, 10.0, np.float32)))
    plan = compile_plan(g, [y, t], [x])
    # t has one consumer step, but it is fetched: no donation anywhere.
    assert _inplace_steps(plan) == []
    bound = BoundPlan(plan, [x])
    arg = np.zeros(4, np.float32)
    got_y, got_t = bound.execute_flat([arg])
    np.testing.assert_allclose(got_t, np.ones(4))  # NOT 10.0
    np.testing.assert_allclose(got_y, np.full(4, 10.0))


def test_feed_buffers_are_never_donated_or_mutated():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [4])
        y = ops.add(x, ops.constant(np.ones(4, np.float32)))
    plan = _plan_for(y, [x])
    assert _inplace_steps(plan) == []
    bound = BoundPlan(plan, [x])
    arg = np.zeros(4, np.float32)
    out = bound.execute_flat([arg])[0]
    np.testing.assert_allclose(arg, np.zeros(4))  # caller's array intact
    np.testing.assert_allclose(out, np.ones(4))
    assert out is not arg


def test_multi_consumer_intermediate_is_never_donated():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [4])
        t = ops.add(x, ops.constant(np.ones(4, np.float32)))
        y = ops.multiply(t, ops.constant(np.full(4, 2.0, np.float32)))
        z = ops.add(t, y)  # second consumer of t
    plan = compile_plan(g, [z], [x])
    # y's multiply must not clobber t (still needed by z).  y itself is a
    # single-consumer intermediate of z's add, which may be donated.
    bound = BoundPlan(plan, [x])
    arg = np.zeros(4, np.float32)
    np.testing.assert_allclose(bound.execute_flat([arg])[0], np.full(4, 3.0))


def test_baked_constant_is_never_donated():
    """Reusing a pre-evaluated constant's buffer would corrupt every
    later call (base values are shared across calls)."""
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [4])
        c = ops.add(ops.constant(np.ones(4, np.float32)),
                    ops.constant(np.ones(4, np.float32)))  # pre-evaluated
        y = ops.multiply(c, x)
    plan = _plan_for(y, [x])
    assert _inplace_steps(plan) == []
    bound = BoundPlan(plan, [x])
    arg = np.full(4, 5.0, np.float32)
    np.testing.assert_allclose(bound.execute_flat([arg])[0], np.full(4, 10.0))
    # Second call sees the same (unmutated) baked constant.
    np.testing.assert_allclose(bound.execute_flat([arg])[0], np.full(4, 10.0))


def test_chained_donation_is_correct_across_calls():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [16])
        h = x
        for _ in range(6):
            h = ops.tanh(ops.add(h, ops.constant(np.ones(16, np.float32))))
    # Unfused: pins chained per-step donation (with fuse=True the whole
    # tanh/add ladder compiles into one composite step).
    plan = compile_plan(g, [h], [x], fuse=False)
    assert len(_inplace_steps(plan)) >= 5
    bound = BoundPlan(plan, [x])
    arg = np.linspace(-1, 1, 16).astype(np.float32)
    expected = arg
    for _ in range(6):
        expected = np.tanh(expected + 1.0)
    np.testing.assert_allclose(bound.execute_flat([arg])[0], expected,
                               rtol=1e-6)
    np.testing.assert_allclose(bound.execute_flat([arg])[0], expected,
                               rtol=1e-6)


def test_alias_returning_kernel_output_is_never_donated():
    """Identity returns its input array; donating its output would let
    an in-place step write into the caller's feed buffer."""
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [4])
        t = ops.identity(x)
        y = ops.negative(t)
    plan = _plan_for(y, [x])
    assert _inplace_steps(plan) == []
    bound = BoundPlan(plan, [x])
    arg = np.ones(4, np.float32)
    out = bound.execute_flat([arg])[0]
    np.testing.assert_allclose(out, -np.ones(4))
    np.testing.assert_allclose(arg, np.ones(4))  # caller's array intact


def test_buffer_a_non_allocating_reader_may_hold_is_never_donated():
    """A ``TensorArrayWrite`` keeps a reference to the value it stores;
    a later same-shaped MatMul must not write into that memory just
    because the write was the buffer's last reader."""
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [4, 4])
        a = ops.placeholder(fw.float32, [4, 4])
        held = ops.tanh(x)
        ta = fw.TensorArray(fw.float32, size=0).write(0, held)
        z = ops.matmul(ops.matmul(ops.matmul(a, a), a), a)
        stacked = ta.stack()
    plan = _plan_for([stacked, z], [x, a])
    xv = np.full((4, 4), 0.5, np.float32)
    av = np.eye(4, dtype=np.float32) * 3
    got, _ = BoundPlan(plan, [x, a]).execute_flat([xv, av])
    np.testing.assert_array_equal(got[0], np.tanh(xv))


def test_in_place_arm_never_rounds_to_an_optimistic_static_dtype():
    """float32 + int32 is float64 — NumPy's rule, and the declared one —
    so the dying float32 buffer is never offered to the ``Add``: there is
    no in-place arm to refuse, let alone one that rounds."""
    g = fw.Graph()
    with g.as_default():
        i = ops.placeholder(fw.int32, [3])
        f = ops.placeholder(fw.float32, [3])
        y = ops.add(ops.negative(f), i)
    assert y.dtype == fw.float64
    iv = np.array([1, 2, 3], np.int32)
    fv = np.array([0.1, 0.2, 0.3], np.float32)
    for plan in (compile_plan(g, [y], [i, f], fuse=False),
                 compile_plan(g, [y], [i, f])):
        assert _inplace_steps(plan) == []
        got = BoundPlan(plan, [i, f]).execute_flat([iv, fv])[0]
        want = np.add(np.negative(fv), iv)
        assert got.dtype == want.dtype == np.float64
        np.testing.assert_array_equal(got, want)


_GRID = (fw.bool_, fw.int32, fw.int64, fw.float32, fw.float64)


@pytest.mark.parametrize("op_type", sorted(elementwise_ops(2)))
def test_no_in_place_arm_is_ever_refused(op_type):
    """Every binary elementwise op over the 5x5 dtype grid, with a dying
    intermediate on each side to donate from: an armed ``out=`` buffer always
    has the dtype the operands really produce, so the ``casting="safe"``
    guard never fires (``runtime.inplace_refusals`` counts it if it
    does) and fused == unfused == NumPy."""
    ufunc = get_op_def(op_type).fusable
    before = observe.counters().get("runtime.inplace_refusals", 0)
    armed = 0
    for da, db in itertools.product(_GRID, repeat=2):
        g = fw.Graph()
        with g.as_default():
            a = ops.placeholder(da, [3])
            b = ops.placeholder(db, [3])
            # Relu is not fusable: its output is the dying buffer a
            # fused [abs+op] step is offered, as Abs's is unfused.
            y = dispatch.run_op(op_type, [ops.relu(a), ops.abs(b)])
        av = np.array([1, 0, 1], da.np_dtype)
        bv = np.array([1, 1, 0], db.np_dtype)
        with np.errstate(all="ignore"):
            try:
                want = ufunc(av, bv)
            except TypeError:
                continue  # NumPy refuses the mix; so does the kernel
            for fuse in (False, True):
                plan = compile_plan(g, [y], [a, b], fuse=fuse)
                armed += len(_inplace_steps(plan))
                got = BoundPlan(plan, [a, b]).execute_flat([av, bv])[0]
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
    assert armed, "the grid never armed an in-place step"
    after = observe.counters().get("runtime.inplace_refusals", 0)
    assert after == before


def test_a_refused_in_place_write_is_counted_and_still_exact():
    """The guard stays: feed a plan that armed a float32 buffer a
    float64 operand behind the binder's back (slots stored by hand)
    and the write is refused, counted, and recomputed."""
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [3])
        c = ops.placeholder(fw.float32, [3])
        y = ops.add(ops.negative(x), c)
    plan = compile_plan(g, [y], [x, c], fuse=False)
    assert len(_inplace_steps(plan)) == 1
    values = list(plan.base_values)
    xv = np.array([1, 2, 3], np.float32)
    cv = np.array([0.1, 0.2, 0.3], np.float64)   # not the declared dtype
    for (_t, slot), v in zip(plan.feed_slots, (xv, cv)):
        values[slot] = (v,)
    before = observe.counters().get("runtime.inplace_refusals", 0)
    plan.execute(values)
    got = plan.fetch(values)[0]
    assert observe.counters()["runtime.inplace_refusals"] == before + 1
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, -xv + cv)


def test_describe_says_why_a_fusable_step_stayed_standalone():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [4])
        shared = ops.exp(x)                      # two consumers
        fetched = ops.tanh(ops.reduce_sum(shared, keepdims=True))
        lone = ops.negative(ops.reduce_sum(shared, keepdims=True))
        out = ops.reduce_sum(lone)
    plan = compile_plan(g, [fetched, out], [x])
    text = plan.describe()
    by_name = {line.split()[3].split("(")[0]: line
               for line in text.splitlines()[1:]}
    assert by_name["Exp"].endswith("standalone: multi-consumer")
    assert by_name["Tanh"].endswith("standalone: fetched")
    assert by_name["Neg"].endswith("standalone: no fusable neighbour")
    assert set(plan.standalone.values()) == {
        "multi-consumer", "fetched", "no fusable neighbour"}


def test_variable_read_buffer_is_never_donated():
    """A variable read returns the variable's live storage; donating it
    would let Session.run(v + 1) silently increment the variable."""
    v = fw.Variable(np.full((2, 2), 2.0, np.float32), name="donate_guard_v")
    g = fw.Graph()
    with g.as_default():
        y = ops.add(v.value(), ops.constant(np.ones((2, 2), np.float32)))
    sess = fw.Session(g)
    np.testing.assert_allclose(sess.run(y), np.full((2, 2), 3.0))
    np.testing.assert_allclose(sess.run(y), np.full((2, 2), 3.0))
    np.testing.assert_allclose(v.numpy(), np.full((2, 2), 2.0))


def test_shape_mismatch_disables_donation():
    """Broadcasting steps must not write into the smaller input."""
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [3, 4])
        t = ops.add(ops.constant(np.ones(4, np.float32)), x)  # (3, 4)
        row = ops.multiply(ops.reduce_sum(t, axis=0),
                           ops.constant(np.full(4, 2.0, np.float32)))
    plan = _plan_for(row, [x])
    bound = BoundPlan(plan, [x])
    arg = np.zeros((3, 4), np.float32)
    np.testing.assert_allclose(bound.execute_flat([arg])[0], np.full(4, 6.0))


# ---------------------------------------------------------------------------
# Error surfaces
# ---------------------------------------------------------------------------


def test_unfed_required_placeholder_raises_at_compile():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [])
        y = ops.add(x, 1.0)
    with pytest.raises(fw.FetchError):
        compile_plan(g, [y], [])


def test_foreign_graph_fetch_raises():
    g1, g2 = fw.Graph(), fw.Graph()
    with g1.as_default():
        y = ops.constant(1.0)
    with pytest.raises(fw.FetchError):
        compile_plan(g2, [y], [])


def test_bound_plan_rejects_wrong_arity_and_bad_shape():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [2])
        y = ops.add(x, 1.0)
    bound = BoundPlan(compile_plan(g, [y], [x]), [x])
    with pytest.raises(fw.FetchError):
        bound.execute_flat([])
    with pytest.raises(fw.FetchError):
        bound.execute_flat([np.zeros(3, np.float32)])


def test_bound_plan_rejects_unknown_feed_tensor():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [2])
        other = ops.placeholder(fw.float32, [2])
        y = ops.add(x, 1.0)
    plan = compile_plan(g, [y], [x])
    with pytest.raises(fw.FetchError):
        BoundPlan(plan, [other])
    with pytest.raises(fw.FetchError):
        BoundPlan(plan, [])  # x left unbound
