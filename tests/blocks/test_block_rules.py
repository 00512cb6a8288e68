"""What the blocked lowering driver owns, and the refusals block rules
name.

Every ``BLOCK_RULES`` entry is one function of ``repro.blocks.ops`` that
either computes (ndarray blocks) or stages (symbolic blocks); that both
emitters equal the dense kernel, bit for bit on exact values, is the
differential oracle's blocked configuration (``tests/test_oracle.py``).
Here: fallbacks are reported with their reason, what a refusing rule
staged is pruned, control dependencies survive, a rule's typed refusals,
and the registered ops *without* a rule are pinned.
"""

import inspect

import numpy as np
import pytest

import repro
import repro.autograph.operators  # noqa: F401 - registers its list/undefined ops
from repro import observe
from repro.blocks import BlockArray, BlockGrid
from repro.blocks import ops as bops
from repro.blocks.lowering import BLOCK_RULES, lower_blocked_graph
from repro.framework import Graph, Variable, ops, registry
from repro.runtime import BoundPlan, compile_plan


def _blocked(dense, grid):
    return BlockArray.from_dense(dense, grid=grid)


# ---------------------------------------------------------------------------
# Typed refusals
# ---------------------------------------------------------------------------


def test_a_tuple_axis_is_refused_by_name():
    b = _blocked(np.zeros((4, 6), np.float32), BlockGrid.regular((4, 6), (2, 3)))
    for reduce in (bops.reduce_sum, bops.reduce_max, bops.reduce_mean):
        with pytest.raises(ValueError, match="take one axis"):
            reduce(b, axis=(0, 1))


def test_where_validation():
    grid = BlockGrid.regular((4, 6), (2, 3))
    b = BlockArray.from_dense(np.zeros((4, 6), np.float32), grid=grid)
    with pytest.raises(TypeError, match="at least one BlockArray"):
        bops.where(np.ones(4, bool), np.zeros((4, 6)), np.ones((4, 6)))
    with pytest.raises(ValueError, match="leading dimensions"):
        bops.where(np.ones(6, bool), b, b)  # rank-1 must match axis 0
    with pytest.raises(ValueError, match="expected"):
        bops.where(np.ones((4, 6), bool), b,
                   BlockArray.from_dense(np.zeros((6, 4), np.float32),
                                         grid=BlockGrid.regular((6, 4),
                                                                (3, 2))))


# ---------------------------------------------------------------------------
# What the driver owns
# ---------------------------------------------------------------------------

GRID = BlockGrid.regular((8, 6), (4, 3))


def _x():
    return (np.arange(48, dtype=np.float32).reshape(8, 6) % 7) - 3


def test_where_lowers_to_one_select_per_block():
    @repro.function
    def f(a):
        return ops.where(ops.greater(a, 0.0), a, 0.0)

    x = _x()
    cf = f.get_concrete_function(_blocked(x, GRID))
    steps = [s[4] for s in cf._bound.plan.steps]
    selects = [i for i, name in enumerate(steps) if name.startswith("Select")]
    concats = [i for i, name in enumerate(steps) if name.startswith("Concat")]
    assert len(selects) == GRID.num_blocks
    # The only Concats assemble the fetched result, after every Select.
    assert concats and min(concats) > max(selects)
    assert cf.engine_stats()["blocked"]["dense_fallbacks"] == []
    np.testing.assert_array_equal(
        np.asarray(f(_blocked(x, GRID))), np.where(x > 0, x, 0))


def test_fallbacks_are_reported_with_their_reason():
    @repro.function
    def f(a, w):
        h = ops.matmul(w, ops.relu(w))          # no blocked input: a copy
        z = ops.zeros_like(a)                   # no rule
        s = ops.reduce_sum(a, axis=(0, 1))      # the rule refuses
        return ops.reshape(a, [6, 8]), z, s, h

    x, w = _x(), np.eye(3, dtype=np.float32)
    before = observe.counters().get("blocks.dense_fallbacks", 0)
    cf = f.get_concrete_function(_blocked(x, GRID), w)
    assert observe.counters()["blocks.dense_fallbacks"] == before + 3
    fallbacks = cf.engine_stats()["blocked"]["dense_fallbacks"]
    assert sorted((t, why) for _, t, why in fallbacks) == [
        ("Reshape", "no block rule"),
        ("Sum", "blocked reductions take one axis (or None)"),
        ("ZerosLike", "no block rule"),
    ]
    assert all(isinstance(name, str) and name for name, _, _ in fallbacks)
    dump = f.pretty_cache(plans=True)
    assert "dense fallback: Sum" in dump and "take one axis" in dump
    r, z, s, _ = f(_blocked(x, GRID), w)
    np.testing.assert_array_equal(np.asarray(r), x.reshape(6, 8))
    np.testing.assert_array_equal(np.asarray(z), np.zeros_like(x))
    np.testing.assert_array_equal(np.asarray(s), x.sum())
    # A dense function has no lowering to report on.
    assert "blocked" not in f.get_concrete_function(x, w).engine_stats()


def test_what_a_refusing_rule_staged_is_pruned():
    # where(cond, x, y): x is sliced per block (GetItem ops staged) before
    # the rank-3 y is refused; the op then runs dense.
    y = np.zeros((1, 8, 6), np.float32)

    @repro.function
    def f(c, a):
        return ops.where(c, a, y)

    x = _x()
    cond = x > 0
    cf = f.get_concrete_function(_blocked(cond, GRID), x)
    (fallback,) = cf.engine_stats()["blocked"]["dense_fallbacks"]
    assert fallback[1] == "Select" and "rank" in fallback[2]
    staged = [op.type for op in cf._bound.plan.graph.ops]
    assert staged.count("GetItem") == GRID.num_blocks   # the orphans exist...
    # (A step is named for its op, which keeps its name scope: ``f/``.)
    steps = [s[4].rsplit("/", 1)[-1] for s in cf._bound.plan.steps]
    assert not [s for s in steps if s.startswith("GetItem")]  # ...unplanned
    assert len([s for s in steps if s.startswith("Select")]) == 1
    np.testing.assert_array_equal(
        np.asarray(f(_blocked(cond, GRID), x)), np.where(cond, x, y))


def test_blocked_op_keeps_its_control_dependency_on_an_assign():
    v = Variable(np.float32(0.0), name="blocked_ctrl_v")
    g = Graph()
    with g.as_default():
        a = ops.placeholder("float32", [8, 6])
        upd = v.assign(ops.constant(np.float32(5.0)))
        out = ops.reduce_sum(ops.multiply(a, 2.0), axis=0)
        out.op.inputs[0].op.add_control_input(upd.op)   # Mul after assign
    lowered = lower_blocked_graph(g, [a], [out], {id(a): GRID})
    new_assign = [op for op in lowered.graph.ops if op.type == upd.op.type]
    muls = [op for op in lowered.graph.ops if op.type == "Mul"]
    assert len(new_assign) == 1 and len(muls) == GRID.num_blocks
    assert all(new_assign[0] in op.control_inputs for op in muls)

    feeds = list(lowered.feeds)
    plan = compile_plan(lowered.graph, list(lowered.fetches), feeds)
    order = [s[4] for s in plan.steps]
    at = order.index(new_assign[0].name)
    assert all(at < i for i, name in enumerate(order) if "Mul" in name)
    x = _x()
    v.assign(np.float32(0.0))
    (got,) = BoundPlan(plan, feeds).execute_flat(
        _blocked(x, GRID).block_list())
    np.testing.assert_array_equal(got, (x * 2).sum(axis=0))
    assert float(v.numpy()) == 5.0    # reachable only through control edges


def _takes_a_tensor(op_def):
    params = inspect.signature(op_def.kernel).parameters.values()
    return any(
        p.default is p.empty and p.kind in (
            p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD, p.VAR_POSITIONAL)
        for p in params)


def test_ops_without_a_block_rule_are_pinned():
    """Adding an op forces a decision: give it a ``BLOCK_RULES`` entry or
    list it here as a (reported) dense fallback.  The registry is a finite
    table of types, so every one is enumerated — the stateful ops
    (variable reads/assigns, ``Cond``/``While``, prints, RNG), which can
    never run per block, included."""
    assert set(BLOCK_RULES) <= set(registry.list_ops())
    unruled = {
        name for name in registry.list_ops()
        if name not in BLOCK_RULES
        and _takes_a_tensor(registry.get_op_def(name))
    }
    stateful = {name for name in unruled
                if registry.get_op_def(name).stateful}
    assert stateful == {
        "Assert", "AssignAddVariable", "AssignSubVariable", "AssignVariable",
        "Cond", "Group", "PrintV2", "RandomNormal", "RandomUniform",
        "ReadVariable", "While",
    }
    assert unruled - stateful == {
        "All", "Any", "ArgMax", "ArgMin", "BooleanMask", "Cast",
        "ExpandDims", "Fill", "Gather", "GetItemGrad",
        "Identity", "LogSoftmax", "OneHot", "OnesLike", "Pack",
        "Prod", "Range", "Rank", "Reshape",
        "SetItem", "Shape", "Size", "Softmax",
        "SoftmaxCrossEntropyWithLogits",
        "SparseSoftmaxCrossEntropyWithLogits",
        "Squeeze", "TensorArrayFromTensor",
        "TensorArrayNewDynamic", "TensorArrayPop", "TensorArrayRead",
        "TensorArraySize",
        "TensorArrayStack", "TensorArrayWrite", "Tensordot", "Tile", "TopK",
        "UnbroadcastTo", "ZerosLike",
    }
