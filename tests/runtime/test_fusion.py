"""Elementwise fusion: fused plans must be *bit-identical* to unfused
plans, and fusion must compose with everything the engine already does.

The contract under test (see ``repro/runtime/fusion.py``):

- fused == unfused, bitwise (on random programs: ``tests/test_oracle.py``);
- fetched or multi-consumer intermediates block fusion edges;
- constant pre-evaluation runs *before* fusion, so a chain split by a
  foldable Const subtree still fuses end to end;
- fused steps keep level parallelism, buffer donation and blocked
  lowering working;
- ``compile_plan(..., fuse=False)`` is the one unfused reference; a
  function's unfused twin is that plan bound to the function's graph;
- observability: ``fused[...]`` spans, ``runtime.fused_steps`` /
  ``runtime.fusion_fallbacks`` counters, fused counts in
  ``BoundPlan.describe()``.
"""

import numpy as np

import repro
from repro import framework as fw
from repro.framework import ops
from repro.observe.events import RECORDER
from repro.runtime import BoundPlan, compile_plan
from test_oracle import assert_same as _assert_bitwise_equal
from test_oracle import walks


def _fused_step_names(plan):
    return [s[4] for s in plan.steps if s[4].startswith("fused[")]


def _run(plan, feed_tensors, feed_vals):
    bound = BoundPlan(plan, list(feed_tensors))
    return bound.execute_flat([np.copy(v) for v in feed_vals])


def _unfused_reference(cf, graph, fetches, feeds, args):
    """Concrete function ``cf``'s outputs on flat ``args`` from an
    unfused plan of the graph it executes — bound by the test, exactly
    as ``bench/workloads/graph_fn.py`` binds its own plan."""
    bound = BoundPlan(compile_plan(graph, fetches, feeds, fuse=False), feeds)
    assert not _fused_step_names(bound.plan)
    out = bound.execute_flat(list(args) + list(cf._resolved_captures()))
    return out[:len(cf.outputs)]


# ---------------------------------------------------------------------------
# What fuses, what blocks fusion
# ---------------------------------------------------------------------------


def test_linear_chain_fuses_to_one_step():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [4, 4])
        y = ops.tanh(ops.exp(ops.negative(ops.square(x))))
    plan = compile_plan(g, [y], [x])
    assert len(plan.steps) == 1
    assert plan.steps[0][4] == "fused[square+neg+exp+tanh]"
    assert len(plan.fused_groups) == 1
    span, names, types, slot = plan.fused_groups[0]
    assert types == ("Square", "Neg", "Exp", "Tanh")
    unfused = compile_plan(g, [y], [x], fuse=False)
    assert len(unfused.steps) == 4
    v = np.linspace(-2, 2, 16, dtype=np.float32).reshape(4, 4)
    _assert_bitwise_equal(_run(plan, [x], [v]), _run(unfused, [x], [v]))


def test_fetched_intermediate_blocks_the_edge():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [8])
        mid = ops.tanh(ops.add(x, x))
        y = ops.exp(ops.negative(mid))
    # mid is fetched: the add+tanh prefix fuses, the neg+exp suffix
    # fuses, but no group spans the fetch.
    plan = compile_plan(g, [y, mid], [x])
    assert len(plan.steps) == 2
    assert sorted(_fused_step_names(plan)) == [
        "fused[add+tanh]", "fused[neg+exp]"]
    unfused = compile_plan(g, [y, mid], [x], fuse=False)
    v = np.linspace(-1, 1, 8, dtype=np.float32)
    _assert_bitwise_equal(_run(plan, [x], [v]), _run(unfused, [x], [v]))


def test_multi_consumer_intermediate_blocks_the_edge():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [8])
        t = ops.tanh(x)
        y = ops.multiply(ops.add(t, 1.0), ops.subtract(t, 1.0))
    plan = compile_plan(g, [y], [x])
    # t has two consumers: it stays a standalone step; add/sub/mul fuse
    # around it (t enters the group as ONE deduped external param even
    # though two members read it).
    names = [s[4] for s in plan.steps]
    assert "Tanh" in names
    assert any(n.startswith("fused[") for n in names)
    unfused = compile_plan(g, [y], [x], fuse=False)
    v = np.linspace(-2, 2, 8, dtype=np.float32)
    _assert_bitwise_equal(_run(plan, [x], [v]), _run(unfused, [x], [v]))


def test_non_fusable_op_splits_the_chain():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [4, 4])
        y = ops.tanh(ops.matmul(ops.add(x, x), x))
    plan = compile_plan(g, [y], [x])
    # add and tanh are separated by MatMul: no group reaches size 2, so
    # nothing fuses and both stay ordinary steps.
    assert _fused_step_names(plan) == []
    assert len(plan.steps) == 3


def test_const_split_chain_still_fuses_end_to_end():
    """Constant pre-evaluation runs before fusion: a Const-only subtree
    feeding the middle of a chain folds away, so the chain fuses."""
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [8])
        # The bias is a little constant subtree, NOT a literal: it must
        # be folded first or Mul/Add/Tanh would be split by a live step.
        bias = ops.multiply(ops.constant(np.ones(8, np.float32)),
                            ops.constant(2.0))
        y = ops.tanh(ops.add(ops.multiply(x, x), bias))
    plan = compile_plan(g, [y], [x])
    assert len(plan.steps) == 1
    assert plan.steps[0][4] == "fused[mul+add+tanh]"
    unfused = compile_plan(g, [y], [x], fuse=False)
    v = np.linspace(-1, 1, 8, dtype=np.float32)
    _assert_bitwise_equal(_run(plan, [x], [v]), _run(unfused, [x], [v]))


def test_long_group_span_name_truncates():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [4])
        h = x
        for _ in range(5):
            h = ops.tanh(ops.add(h, 1.0))
    plan = compile_plan(g, [h], [x])
    assert len(plan.steps) == 1
    name = plan.steps[0][4]
    assert name.startswith("fused[") and name.endswith("+5more]")


def test_comparison_ops_fuse_with_bool_results():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float64, [6])
        y = ops.placeholder(fw.float64, [6])
        out = ops.not_equal(ops.greater(x, y), ops.less_equal(x, y))
    plan = compile_plan(g, [out], [x, y])
    assert len(plan.steps) == 1
    unfused = compile_plan(g, [out], [x, y], fuse=False)
    a = np.linspace(-1, 1, 6)
    b = np.zeros(6)
    got = _run(plan, [x, y], [a, b])
    _assert_bitwise_equal(got, _run(unfused, [x, y], [a, b]))
    assert got[0].dtype == np.bool_


# ---------------------------------------------------------------------------
# Fusion × donation
# ---------------------------------------------------------------------------


def test_float16_result_is_never_written_into_a_float32_buffer():
    """``exp(bool)`` is float16 in NumPy, a dtype the framework has no
    name for.  Declared float32, the fused ``greater+exp`` step was armed
    with ``Neg``'s dying float32 buffer and came back float32 where the
    unfused plan returns float16 (found by the random-DAG property)."""
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [3, 4])
        n = ops.negative(x)
        y = ops.exp(ops.greater(n, n))
    assert y.dtype == fw.variant
    v = np.ones((3, 4), np.float32)
    fused = compile_plan(g, [y, x], [x])
    assert all(step[5] is None for step in fused.steps)
    got = _run(fused, [x], [v])
    assert got[0].dtype == np.float16
    _assert_bitwise_equal(
        got, _run(compile_plan(g, [y, x], [x], fuse=False), [x], [v]))


def test_fused_output_is_donated_to_no_alias_consumer():
    """A fused step's output is fresh — MatMul's dead-pool discipline
    may claim its buffer."""
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [8, 8])
        h = ops.tanh(ops.add(ops.multiply(x, x), 1.0))
        y = ops.matmul(h, h)
    plan = compile_plan(g, [y], [x])
    names = [s[4] for s in plan.steps]
    assert any(n.startswith("fused[") for n in names)
    unfused = compile_plan(g, [y], [x], fuse=False)
    v = np.linspace(-1, 1, 64, dtype=np.float32).reshape(8, 8)
    _assert_bitwise_equal(_run(plan, [x], [v]), _run(unfused, [x], [v]))


def test_fused_step_takes_a_dying_input_buffer():
    """A single-consumer fresh intermediate feeding a fused step is
    donated to the fused step's out= variant (alias-tolerant)."""
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [8, 8])
        h = ops.matmul(x, x)          # fresh, single-consumer
        t = ops.tanh(h)
        y = ops.exp(ops.negative(t))
    plan = compile_plan(g, [y], [x])
    fused_steps = [s for s in plan.steps if s[4].startswith("fused[")]
    assert len(fused_steps) == 1
    inplace = fused_steps[0][5]
    assert inplace is not None  # armed with the MatMul output's buffer
    unfused = compile_plan(g, [y], [x], fuse=False)
    v = np.linspace(-1, 1, 64, dtype=np.float32).reshape(8, 8)
    _assert_bitwise_equal(_run(plan, [x], [v]), _run(unfused, [x], [v]))


# ---------------------------------------------------------------------------
# Fusion × level parallelism
# ---------------------------------------------------------------------------


def test_independent_fused_chains_share_a_level():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [16])
        # 3 independent chains, each ending in a fetch (fetches keep
        # them from fusing with each other through a merge).
        outs = [
            ops.tanh(ops.exp(ops.multiply(x, float(i + 1))))
            for i in range(3)
        ]
    plan = compile_plan(g, outs, [x])
    assert len(plan.steps) == 3
    assert all(s[4].startswith("fused[") for s in plan.steps)
    assert len(plan.levels) == 1 and len(plan.levels[0]) == 3


def test_fusion_with_parallel_scheduler_matches_serial():
    from repro.blocks import BlockScheduler

    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [32])
        outs = [ops.tanh(ops.exp(ops.multiply(x, float(i + 1))))
                for i in range(4)]
        merged = outs[0]
        for o in outs[1:]:
            merged = ops.maximum(merged, o)
    fetches = outs + [merged]
    v = np.linspace(-2, 2, 32, dtype=np.float32)
    want = _run(compile_plan(g, fetches, [x], fuse=False), [x], [v])
    with BlockScheduler(num_workers=2) as pool:
        for walk, run in walks(compile_plan(g, fetches, [x]), [x], pool):
            _assert_bitwise_equal(run([v]), want, walk)


def test_function_num_workers_with_fusion():
    @repro.function(num_workers=2)
    def f(x):
        parts = [ops.tanh(ops.multiply(x, float(i + 1))) for i in range(4)]
        merged = parts[0]
        for p in parts[1:]:
            merged = ops.add(merged, p)
        return merged

    v = np.linspace(-1, 1, 64, dtype=np.float32)
    cf = f.get_concrete_function(v)
    assert _fused_step_names(cf._bound.plan)
    want = _unfused_reference(
        cf, cf.optimized_graph, cf._run_fetches, cf._runtime_feeds, [v])
    _assert_bitwise_equal([np.asarray(f(v))], want)


# ---------------------------------------------------------------------------
# Fusion × blocked lowering
# ---------------------------------------------------------------------------


def test_blocked_plan_fuses_within_each_block():
    from repro.blocks import BlockArray, BlockGrid
    from repro.blocks.lowering import lower_blocked_graph

    grid = BlockGrid.regular((8, 6), (4, 3))

    @repro.function
    def f(a):
        return ops.tanh(ops.add(ops.multiply(a, a), 1.0))

    rng = np.random.default_rng(7)
    x = rng.standard_normal((8, 6)).astype(np.float32)
    blocked = BlockArray.from_dense(x, grid=grid)
    got = np.asarray(f(blocked))
    # The unfused twin of the blocked trace: the same lowering of the
    # same optimized graph, compiled with fuse=False.
    cf = f.get_concrete_function(blocked)
    lowered = lower_blocked_graph(
        cf.optimized_graph, cf._runtime_feeds, cf._run_fetches,
        cf._block_grids)
    want = _unfused_reference(
        cf, lowered.graph, list(lowered.fetches), list(lowered.feeds),
        blocked.block_list())
    _assert_bitwise_equal([got], want)
    _assert_bitwise_equal([got], [np.asarray(f(x))])
    # The blocked trace compiled per-block fused kernels: one fused
    # step per block, all in one wavefront level.
    stats = cf.engine_stats()["bound_plan"]
    assert stats["fused_steps"] == grid.num_blocks
    # All per-block fused kernels land in the first wavefront, so the
    # scheduler fans them across workers (reassembly levels follow).
    plan = cf._bound.plan
    fused_idx = {i for i, s in enumerate(plan.steps)
                 if s[4].startswith("fused[")}
    assert fused_idx <= set(plan.levels[0])


# ---------------------------------------------------------------------------
# Observability: spans, counters, describe()
# ---------------------------------------------------------------------------


def test_fused_steps_emit_stable_span_names():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [8])
        y = ops.tanh(ops.add(ops.multiply(x, x), 1.0))
    plan = compile_plan(g, [y], [x])
    bound = BoundPlan(plan, [x])
    RECORDER.enable()
    try:
        bound.execute_flat([np.ones(8, np.float32)])
    finally:
        RECORDER.disable()
    step_names = [e[1] for e in RECORDER.events() if e[2] == "step"]
    RECORDER.clear()
    assert "fused[mul+add+tanh]" in step_names


def test_fusion_counters_accumulate():
    from repro.observe.events import counters

    RECORDER.clear_counters()
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [8])
        lone = ops.matmul(ops.reshape(x, [2, 4]), ops.reshape(x, [4, 2]))
        y = ops.tanh(ops.add(ops.multiply(x, x), 1.0))
        z = ops.exp(lone)  # fusable but standalone: a fallback
    compile_plan(g, [y, z], [x])
    snap = counters()
    assert snap.get("runtime.fused_steps", 0) >= 1
    assert snap.get("runtime.fusion_fallbacks", 0) >= 1


def test_describe_surfaces_fused_groups():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [8])
        y = ops.tanh(ops.add(ops.multiply(x, x), 1.0))
    plan = compile_plan(g, [y], [x])
    dump = plan.describe()
    assert "fused[mul+add+tanh]" in dump
    assert "members=" in dump
    assert dump.splitlines()[0].endswith(" 1 fused, 0 in-place")
    bound = BoundPlan(plan, [x])
    info = bound.describe()
    assert info["inplace_steps"] == 0
    assert info["fused_steps"] == 1
    assert info["fused_ops"] == 3
    assert info["fused_kernels"] == ["fused[mul+add+tanh]"]


def test_pretty_cache_dumps_plans():
    @repro.function(name="fusion_pretty")
    def f(x):
        return ops.tanh(ops.add(ops.multiply(x, x), 1.0))

    f(np.ones(4, np.float32))
    dump = f.pretty_cache(plans=True)
    assert "fusion_pretty" in dump
    assert "fused[mul+add+tanh]" in dump
    # The default view stays as before — no plan lines.
    assert "fused[" not in f.pretty_cache()
