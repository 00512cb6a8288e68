"""Tests for ``repro.runtime.plan``: compilation-level optimizations.

Covers the three plan-level rewrites the runtime performs on top of
pruning — constant pre-evaluation, dead-step elision and output-buffer
reuse — with an emphasis on the aliasing hazards buffer reuse must not
introduce (fetched intermediates, caller-owned feed arrays, baked
constants shared across calls).
"""

import numpy as np
import pytest

from repro import framework as fw
from repro import nn, observe
from repro.blocks import BlockScheduler
from repro.framework import ops
from repro.runtime import BoundPlan, compile_plan
from test_oracle import walks


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


def test_a_refused_in_place_write_is_counted_and_still_exact():
    """The guard stays: feed a plan that armed a float32 buffer a
    float64 operand behind the binder's back (the walk called with
    no ``bind``) and the write is refused, counted, and recomputed."""
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [3])
        c = ops.placeholder(fw.float32, [3])
        y = ops.add(ops.negative(x), c)
    plan = compile_plan(g, [y], [x, c], fuse=False)
    assert len(_inplace_steps(plan)) == 1
    xv = np.array([1, 2, 3], np.float32)
    cv = np.array([0.1, 0.2, 0.3], np.float64)   # not the declared dtype
    before = observe.counters().get("runtime.inplace_refusals", 0)
    got = plan.walk()([xv, cv])[0]
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


def _arms(plan):
    """``{op name: (its slot, the slot of the buffer it writes or None)}``."""
    return {s[4]: (s[0], s[5] and s[5][0]) for s in plan.steps}


def test_a_buffer_read_through_a_view_lives_until_the_views_last_reader():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [4, 4])
        w = ops.placeholder(fw.float32, [4, 4])
        t = ops.tanh(x, name="t")
        view = ops.transpose(t)
        # Two views of a feed: no buffer, but they put ``before`` two
        # levels deep, past the transpose that is ``t``'s one reader.
        w2 = ops.transpose(ops.transpose(w))
        before = ops.matmul(x, w2, name="before")
        y = ops.add(before, view, name="y")
        after = ops.matmul(y, w2, name="after")
    for fuse in (True, False):
        plan = compile_plan(g, [after], [x, w], fuse=fuse)
        arms = _arms(plan)
        assert arms["before"][1] is None
        assert arms["after"][1] == arms["t"][0]
        xv = np.linspace(-1, 1, 16, dtype=np.float32).reshape(4, 4)
        wv = np.eye(4, dtype=np.float32)[::-1].copy()
        want = (xv @ wv + np.tanh(xv).T) @ wv
        bound = BoundPlan(plan, [x, w])
        for _ in range(2):
            np.testing.assert_array_equal(bound.execute_flat([xv, wv])[0],
                                          want)


def test_a_buffer_an_assign_reads_is_never_reused():
    """The variable keeps the array it is assigned: a later same-shaped
    MatMul writing into it would change the variable."""
    v = fw.Variable(np.zeros((4, 4), np.float32), name="assign_pins")
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [4, 4])
        assign = v.assign(ops.tanh(x))
        y = ops.matmul(x, x)
        y.op.add_control_input(assign.op)   # after the assign's level
    plan = compile_plan(g, [y], [x])
    assert _inplace_steps(plan) == []
    bound = BoundPlan(plan, [x])
    for scale in (1.0, 2.0):
        xv = np.full((4, 4), scale, np.float32)
        np.testing.assert_array_equal(bound.execute_flat([xv])[0], xv @ xv)
        np.testing.assert_array_equal(v.numpy(), np.tanh(xv))


def test_a_buffer_recycled_twice_is_exact_across_calls_and_walks():
    """``a``'s buffer holds ``a``, then ``c``, then ``e``."""
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [8, 8])
        w = ops.placeholder(fw.float32, [8, 8])
        a = ops.tanh(x, name="a")
        b = ops.matmul(a, w, name="b")
        c = ops.matmul(b, w, name="c")
        d = ops.matmul(c, w, name="d")
        e = ops.matmul(d, w, name="e")
    plan = compile_plan(g, [e], [x, w])
    arms = _arms(plan)
    assert arms["c"][1] == arms["a"][0]
    assert arms["d"][1] == arms["b"][0]
    assert arms["e"][1] == arms["c"][0]
    rng = np.random.default_rng(4)
    with BlockScheduler(num_workers=4) as pool:
        for _ in range(2):
            xv, wv = (rng.standard_normal((8, 8)).astype(np.float32)
                      for _ in "xw")
            want = np.tanh(xv) @ wv @ wv @ wv @ wv
            for walk, run in walks(plan, [x, w], pool):
                np.testing.assert_array_equal(run([xv, wv])[0], want,
                                              err_msg=walk)


def test_an_unrolled_rnn_arms_every_matmul_after_the_first():
    """Each step's state dies at the next step's ``Concat``, before that
    step's ``MatMul``, which writes into it."""
    cell = nn.BasicRNNCell(8, 4)
    g = fw.Graph()
    with g.as_default():
        xs = [ops.placeholder(fw.float32, [2, 4]) for _ in range(4)]
        h = cell.zero_state(2)
        for x in xs:
            _, h = cell(x, h)
    plan = compile_plan(g, [h], xs)
    matmuls = [s[5] is not None for s in plan.steps
               if s[4].startswith("MatMul")]
    assert matmuls == [False, True, True, True]
    # Each step's ``fused[add+tanh]`` writes into its own MatMul's result.
    assert plan.inplace_steps == 7
    assert f"fused, {plan.inplace_steps} in-place" in plan.describe()
    rng = np.random.default_rng(5)
    xvs = [rng.standard_normal((2, 4)).astype(np.float32) for _ in xs]
    want = np.zeros((2, 8), np.float32)
    for xv in xvs:
        want = np.tanh(np.concatenate([xv, want], axis=1) @ cell.w.numpy()
                       + cell.b.numpy())
    bound = BoundPlan(plan, xs)
    assert bound.describe()["inplace_steps"] == 7
    for _ in range(2):
        np.testing.assert_array_equal(bound.execute_flat(xvs)[0], want)


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
