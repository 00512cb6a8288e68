"""One differential suite for both emitters of the block decompositions.

Every ``BLOCK_RULES`` entry is one function of ``repro.blocks.ops`` that
either computes (ndarray blocks) or stages (symbolic blocks).  Each case
here runs it three ways — (a) eagerly on ``BlockArray`` s, (b) through a
traced ``@repro.function`` fed the same ``BlockArray`` s (the graph
lowering), (c) the dense registry kernel — on exact-valued floats over
random irregular grids, and asserts the three results are the same
bytes.  The lowered run must not have fallen back to dense.

Plus the structure the lowering driver owns: fallbacks are reported with
their reason, what a refusing rule staged is pruned, control dependencies
survive, and the registered ops *without* a rule are pinned.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_block_ops import _splits_of, partitioned_matrix

import repro
import repro.autograph.operators  # noqa: F401 - registers its list/undefined ops
from repro import observe
from repro.blocks import BlockArray, BlockGrid
from repro.blocks import ops as bops
from repro.blocks.lowering import BLOCK_RULES, lower_blocked_graph
from repro.framework import Graph, Variable, ops, registry
from repro.framework.ops import dispatch
from repro.runtime import BoundPlan, compile_plan


def _blocked(dense, grid):
    return BlockArray.from_dense(dense, grid=grid)


def three_ways(op_type, operands, **attrs):
    """Assert eager == lowered == dense, bytewise.  ``operands`` are
    ndarrays (dense feeds) or ``(ndarray, BlockGrid)`` (blocked feeds)."""
    dense = [o[0] if isinstance(o, tuple) else o for o in operands]
    feeds = [_blocked(*o) if isinstance(o, tuple) else o for o in operands]
    with np.errstate(all="ignore"):
        want = np.asarray(registry.get_op_def(op_type).kernel(*dense, **attrs))
        eager = np.asarray(BLOCK_RULES[op_type](*feeds, **attrs))
        fn = repro.function(
            lambda *args: dispatch.run_op(op_type, list(args), attrs),
            autograph=False, num_workers=1)
        lowered = np.asarray(fn(*feeds))
    stats = fn.get_concrete_function(*feeds).engine_stats()
    assert stats["blocked"]["dense_fallbacks"] == []
    for name, got in (("eager", eager), ("lowered", lowered)):
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name


def _ints(draw, shape, lo=-4, hi=4, dtype=np.float32):
    n = int(np.prod(shape, dtype=np.int64))
    vals = draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))
    return np.asarray(vals, dtype).reshape(shape)


def _grid(draw, shape):
    return BlockGrid(shape, tuple(draw(_splits_of(d)) for d in shape))


exact_matrix = partitioned_matrix(integer_valued=True)


# ---------------------------------------------------------------------------
# Elementwise
# ---------------------------------------------------------------------------

_POSITIVE_ONLY = {"Log", "Sqrt"}
_NONZERO_RIGHT = {"Div", "Mod", "FloorDiv", "Pow"}
_LOGICAL = {"LogicalNot", "LogicalAnd", "LogicalOr"}


@pytest.mark.parametrize("op_type", sorted(bops.UNARY_ELEMENTWISE))
@given(pm=exact_matrix)
def test_unary_rules(op_type, pm):
    dense, grid = pm
    if op_type in _POSITIVE_ONLY:
        dense = np.abs(dense) + 1
    if op_type in _LOGICAL:
        dense = dense > 0
    three_ways(op_type, [(dense, grid)])


# How the second operand of a binary op meets the blocked one.
_OTHER = ["blocked", "dense", "row", "row2d", "column", "scalar"]


@pytest.mark.parametrize("op_type", sorted(bops.BINARY_ELEMENTWISE))
@given(pm=exact_matrix, other=st.sampled_from(_OTHER), flip=st.booleans(),
       data=st.data())
def test_binary_rules(op_type, pm, other, flip, data):
    dense, grid = pm
    rows, cols = dense.shape
    shape = {"blocked": (rows, cols), "dense": (rows, cols), "row": (cols,),
             "row2d": (1, cols), "column": (rows, 1), "scalar": ()}[other]
    lo = 1 if op_type in _NONZERO_RIGHT else -4
    if flip and op_type in _NONZERO_RIGHT:
        dense = np.abs(dense) + 1  # it becomes the right operand
    y = _ints(data.draw, shape, lo=lo, hi=max(lo, 3))
    if op_type in _LOGICAL:
        dense, y = dense > 0, y > 0
    y = (y, _grid(data.draw, shape)) if other == "blocked" else y
    operands = [(dense, grid), y]
    three_ways(op_type, operands[::-1] if flip else operands)


@given(pm=exact_matrix, data=st.data(),
       form=st.sampled_from(["all_blocked", "dense_cond", "rank1_cond",
                             "scalar_arm"]))
def test_select_rule(pm, data, form):
    dense, grid = pm
    other = _ints(data.draw, dense.shape)
    cond = _ints(data.draw, dense.shape) > 0
    if form == "all_blocked":
        operands = [(cond, grid), (dense, _grid(data.draw, dense.shape)),
                    (other, grid)]
    elif form == "dense_cond":
        operands = [cond, (dense, grid), other]
    elif form == "rank1_cond":
        # Legacy Select: a rank-1 condition picks whole rows.
        operands = [cond[:, 0].copy(), (dense, grid), other]
    else:
        operands = [(cond, grid), np.float32(0.0), (other, grid)]
    three_ways("Select", operands)


# ---------------------------------------------------------------------------
# MatMul, reductions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("transpose_a", [False, True])
@pytest.mark.parametrize("transpose_b", [False, True])
@pytest.mark.parametrize("blocked", ["both", "left", "right"])
@given(data=st.data())
def test_matmul_rule(transpose_a, transpose_b, blocked, data):
    m, k, n = (data.draw(st.integers(1, 6)) for _ in range(3))
    a = _ints(data.draw, (k, m) if transpose_a else (m, k))
    b = _ints(data.draw, (n, k) if transpose_b else (k, n))
    three_ways(
        "MatMul",
        [(a, _grid(data.draw, a.shape)) if blocked != "right" else a,
         (b, _grid(data.draw, b.shape)) if blocked != "left" else b],
        transpose_a=transpose_a, transpose_b=transpose_b)


@pytest.mark.parametrize("op_type", ["Sum", "Max", "Min", "Mean"])
@given(pm=exact_matrix, axis=st.sampled_from([None, 0, 1, -1, -2]),
       keepdims=st.booleans())
def test_reduction_rules(op_type, pm, axis, keepdims):
    three_ways(op_type, [pm], axis=axis, keepdims=keepdims)


def test_a_tuple_axis_is_refused_by_name():
    b = _blocked(np.zeros((4, 6), np.float32), BlockGrid.regular((4, 6), (2, 3)))
    for reduce in (bops.reduce_sum, bops.reduce_max, bops.reduce_mean):
        with pytest.raises(ValueError, match="take one axis"):
            reduce(b, axis=(0, 1))


# ---------------------------------------------------------------------------
# Layout: Concat, Transpose, GetItem
# ---------------------------------------------------------------------------


@given(pm=exact_matrix, axis=st.sampled_from([0, 1, -1, -2]), data=st.data())
def test_concat_rule(pm, axis, data):
    dense, grid = pm
    other = _ints(data.draw, dense.shape)
    three_ways("Concat",
               [(dense, grid), (other, _grid(data.draw, dense.shape))],
               axis=axis)


@given(pm=exact_matrix, perm=st.sampled_from([None, (1, 0), (0, 1), (-1, 0)]))
def test_transpose_rule(pm, perm):
    three_ways("Transpose", [pm], perm=perm)


_INDEXES = [
    (0,), (-1,), (-1, -1), (2, slice(1, None)),
    (slice(-3, None),), (slice(1, -1), -2), (slice(None), slice(-2, None)),
    (slice(0, 1), slice(0, 1)), (slice(None, -1), slice(1, 3)),
]


@pytest.mark.parametrize("index", _INDEXES, ids=repr)
@given(pm=exact_matrix.filter(lambda pm: min(pm[0].shape) >= 4))
def test_getitem_rule(index, pm):
    spec = tuple(
        ("slice", ix.start, ix.stop, ix.step) if isinstance(ix, slice)
        else ("idx", ix) for ix in index)
    three_ways("GetItem", [pm], spec=spec)


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
    steps = [s[4] for s in cf._bound.plan.steps]
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
        "All", "Any", "ArgMax", "ArgMin", "BooleanMask", "Cast", "ConcatGrad",
        "ExpandDims", "Fill", "Gather", "GatherGrad", "GetItemGrad",
        "Identity", "LogSoftmax", "MaxGrad", "OneHot", "OnesLike", "Pack",
        "PackGrad", "Prod", "Range", "Rank", "Reshape", "ReshapeLike", "SelectGrad",
        "SetItem", "Shape", "Size", "Softmax",
        "SoftmaxCrossEntropyWithLogits", "SoftmaxXentGrad",
        "SparseSoftmaxCrossEntropyWithLogits", "SparseSoftmaxXentGrad",
        "Squeeze", "SumGrad", "TensorArrayFromTensor",
        "TensorArrayNewDynamic", "TensorArrayPop", "TensorArrayRead",
        "TensorArraySize",
        "TensorArrayStack", "TensorArrayWrite", "Tensordot", "Tile", "TopK",
        "UnbroadcastTo", "ZerosLike",
    }
