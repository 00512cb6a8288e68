"""The block-op layer: every block decomposition, written once.

Every function here decomposes one logical op on :class:`BlockArray`
inputs into independent per-block runs of the *registered* op
(:func:`repro.blocks.array.block_op`), optionally fanned out on a
:class:`~repro.blocks.scheduler.BlockScheduler`:

- elementwise ops map block-wise (dense operands are sliced per block,
  scalars broadcast whole);
- ``matmul`` runs the blocked inner product — one ``MatMul`` per
  ``(i, k) x (k, j)`` pair, the partials combined in a fixed pairwise
  tree, so results do not depend on scheduling;
- reductions reduce per block, then tree-combine across the grid;
- ``concat`` / slicing / ``transpose`` re-grid metadata (no bulk copies).

The same code serves both emitters: on ndarray blocks it computes, on
symbolic blocks (:attr:`BlockArray.symbolic`) it stages one graph op per
block — which *is* the graph lowering (:mod:`repro.blocks.lowering`
only maps graph op types to these functions), so a traced blocked
function computes bit-identical results to the eager path by
construction.  A decomposition that cannot handle its operands raises
``ValueError`` / ``TypeError`` / ``IndexError``; the lowering turns that
into a reported dense fallback.
"""

from __future__ import annotations

import numpy as np

from ..framework import dtypes
from ..framework.registry import elementwise_ops
from .array import BlockArray, block_op, static_shape, take
from .grid import BlockGrid
from .scheduler import BlockScheduler

__all__ = [
    "map_unary", "map_binary", "matmul", "reduce_sum", "reduce_mean",
    "reduce_max", "reduce_min", "concat", "transpose",
    "exp", "log", "tanh", "sigmoid", "relu", "sqrt", "square", "sign",
    "floor", "negative", "abs",  # noqa: A001 - mirrors the op registry
    "add", "subtract", "multiply", "divide", "power", "maximum", "minimum",
    "mod", "floor_divide",
    "greater", "greater_equal", "less", "less_equal", "equal", "not_equal",
    "where",
]

#: Elementwise op names safe for block-wise mapping (shape-preserving,
#: value-local): whatever ``framework.kernels`` registered as
#: elementwise.  Shared with the graph lowering.
UNARY_ELEMENTWISE = elementwise_ops(1)
BINARY_ELEMENTWISE = elementwise_ops(2)

_SERIAL = BlockScheduler(num_workers=1)


def _sched(scheduler):
    return scheduler if scheduler is not None else _SERIAL


def pair_tree(items, combine):
    """Fixed pairwise combine: ((a+b), (c+d)) + ... — the one tree shape
    every accumulation in the blocks subsystem uses."""
    items = list(items)
    if not items:
        raise ValueError("cannot combine an empty sequence")
    while len(items) > 1:
        merged = []
        for i in range(0, len(items) - 1, 2):
            merged.append(combine(items[i], items[i + 1]))
        if len(items) % 2:
            merged.append(items[-1])
        items = merged
    return items[0]


# ---------------------------------------------------------------------------
# Elementwise
# ---------------------------------------------------------------------------


def _first_blocked(*operands):
    """The first :class:`BlockArray` among ``operands``: its grid is the
    result grid and its ``symbolic`` picks the kernels."""
    for v in operands:
        if isinstance(v, BlockArray):
            return v
    raise TypeError("a blocked op needs at least one BlockArray operand")


def _operand_blocks(ref, operand, label):
    """One block (or block-aligned window) of ``operand`` per entry of
    ``ref``'s grid: same-shape blocked operands are re-gridded, dense
    operands sliced per block, scalars broadcast whole."""
    grid = ref.grid
    if isinstance(operand, BlockArray):
        if operand is not ref and operand.grid != grid:
            if operand.shape != grid.shape:
                raise ValueError(
                    f"blocked operand {label} has shape {operand.shape}, "
                    f"expected {grid.shape}"
                )
            operand = operand.regrid(grid=grid)
        return operand.block_list()
    if not ref.symbolic:
        operand = np.asarray(operand)
    shape = static_shape(operand)
    if not shape:
        return [operand] * grid.num_blocks
    views = []
    for entry in grid.entries():
        bounds = grid.operand_block_bounds(entry, shape)
        views.append(take(
            operand,
            tuple(slice(None) if b is None else slice(*b) for b in bounds),
            ref.symbolic))
    return views


def map_unary(op_name, a, scheduler=None):
    """Apply a registered unary elementwise op block-wise."""
    if op_name not in UNARY_ELEMENTWISE:
        raise ValueError(f"{op_name!r} is not a blocked unary elementwise op")
    if not isinstance(a, BlockArray):
        raise TypeError(f"expected a BlockArray, got {type(a).__name__}")
    blocks = _sched(scheduler).map(
        block_op(op_name, a.symbolic), a.block_list())
    return BlockArray.from_blocks(a.grid, blocks)


def map_binary(op_name, x, y, scheduler=None):
    """Apply a registered binary elementwise op block-wise.

    At least one operand must be a :class:`BlockArray`; the other may be
    a same-shape ``BlockArray``, a scalar, or a dense array whose shape
    broadcasts against the blocked operand (it is sliced per block).
    """
    if op_name not in BINARY_ELEMENTWISE:
        raise ValueError(f"{op_name!r} is not a blocked binary elementwise op")
    ref = _first_blocked(x, y)
    run = block_op(op_name, ref.symbolic)
    pairs = list(zip(_operand_blocks(ref, x, "x"),
                     _operand_blocks(ref, y, "y")))
    blocks = _sched(scheduler).map(lambda p: run(p[0], p[1]), pairs)
    return BlockArray.from_blocks(ref.grid, blocks)


def _unary_fn(op_name):
    def fn(a, scheduler=None):
        return map_unary(op_name, a, scheduler=scheduler)

    fn.__name__ = op_name.lower()
    fn.__doc__ = f"Blocked elementwise {op_name!r} (registry kernel per block)."
    return fn


def _binary_fn(op_name):
    def fn(x, y, scheduler=None):
        return map_binary(op_name, x, y, scheduler=scheduler)

    fn.__name__ = op_name.lower()
    fn.__doc__ = f"Blocked elementwise {op_name!r} (registry kernel per block)."
    return fn


exp = _unary_fn("Exp")
log = _unary_fn("Log")
tanh = _unary_fn("Tanh")
sigmoid = _unary_fn("Sigmoid")
relu = _unary_fn("Relu")
sqrt = _unary_fn("Sqrt")
square = _unary_fn("Square")
sign = _unary_fn("Sign")
floor = _unary_fn("Floor")
negative = _unary_fn("Neg")
abs = _unary_fn("Abs")  # noqa: A001 - mirrors the op registry name

add = _binary_fn("Add")
subtract = _binary_fn("Sub")
multiply = _binary_fn("Mul")
divide = _binary_fn("Div")
power = _binary_fn("Pow")
maximum = _binary_fn("Maximum")
minimum = _binary_fn("Minimum")
mod = _binary_fn("Mod")
floor_divide = _binary_fn("FloorDiv")

greater = _binary_fn("Greater")
greater_equal = _binary_fn("GreaterEqual")
less = _binary_fn("Less")
less_equal = _binary_fn("LessEqual")
equal = _binary_fn("Equal")
not_equal = _binary_fn("NotEqual")


def where(cond, x, y, scheduler=None):
    """Blocked ``Select``: ``where(cond, x, y)`` block-wise.

    At least one of the three operands must be a :class:`BlockArray`;
    its grid becomes the result grid (same-shape blocked operands are
    re-gridded to it, dense operands are sliced per block, scalars
    broadcast).  The registry's ``Select`` kernel keeps the legacy
    rank-1-condition semantics — a ``cond`` of lower rank than ``x``
    selects whole *rows* of it — so such a condition is sliced along the
    grid's leading axis, not broadcast numpy-style against the trailing
    one; against an ``x`` of its own rank it broadcasts like any operand.
    """
    ref = _first_blocked(x, y, cond)
    grid = ref.grid
    cond_shape = (cond.shape if isinstance(cond, BlockArray)
                  else static_shape(cond))
    rank = len(cond_shape)
    x_rank = len(x.shape if isinstance(x, BlockArray) else static_shape(x))
    if 0 < rank < x_rank:
        # Lower-rank condition over a higher-rank x spanning the grid:
        # slice its axes against the grid's *leading* axes, one view per
        # block (shared across the trailing block dimensions).
        if x_rank != grid.ndim or cond_shape != grid.shape[:rank]:
            raise ValueError(
                f"low-rank where condition has shape {cond_shape}, "
                f"expected leading dimensions {grid.shape[:rank]}"
            )
        if isinstance(cond, BlockArray):
            cond = cond.to_dense()
        elif not ref.symbolic:
            cond = np.asarray(cond)
        conds = [
            take(cond, grid.block_slices(entry)[:rank], ref.symbolic)
            for entry in grid.entries()
        ]
    else:
        conds = _operand_blocks(ref, cond, "cond")

    run = block_op("Select", ref.symbolic)
    triples = list(zip(conds, _operand_blocks(ref, x, "x"),
                       _operand_blocks(ref, y, "y")))
    blocks = _sched(scheduler).map(lambda t: run(t[0], t[1], t[2]), triples)
    return BlockArray.from_blocks(grid, blocks)


# ---------------------------------------------------------------------------
# Matmul: blocked inner product with tree-combined partial sums
# ---------------------------------------------------------------------------


def _oriented(grid, transposed):
    """A rank-2 grid as the product sees it — or, applied to that, back
    to the operand's raw layout."""
    return grid.transposed() if transposed else grid


def matmul(a, b, scheduler=None, transpose_a=False, transpose_b=False):
    """Blocked matrix product (``transpose_*`` as in the ``MatMul`` op).

    ``C[i, j] = sum_k A[i, k] @ B[k, j]`` — one per-block ``MatMul`` per
    pair, the ``k`` partial sums combined in a fixed pairwise tree
    (deterministic under any scheduler).  A dense operand is partitioned
    to share the blocked side's contraction splits, its free dimension
    unsplit; blocked operands whose contraction splits disagree re-grid
    the right one.  Transposed operands keep their raw layout: the flag
    is passed on to every per-block ``MatMul``.
    """
    ref = _first_blocked(a, b)
    shapes = []
    for v, transposed in ((a, transpose_a), (b, transpose_b)):
        shape = v.shape if isinstance(v, BlockArray) else static_shape(v)
        if len(shape) != 2:
            raise ValueError(
                f"blocked matmul needs rank-2 operands, got {len(shape)}")
        shapes.append(shape[::-1] if transposed else shape)
    (m, k), (k_b, n) = shapes
    if k != k_b:
        raise ValueError(f"matmul shape mismatch: {(m, k)} @ {(k_b, n)}")
    if not isinstance(a, BlockArray):
        gb = _oriented(b.grid, transpose_b)
        ga = BlockGrid((m, k), ((m,), gb.splits[0]))
        a = BlockArray.from_dense(a, grid=_oriented(ga, transpose_a))
    else:
        ga = _oriented(a.grid, transpose_a)
        if not isinstance(b, BlockArray):
            gb = BlockGrid((k, n), (ga.splits[1], (n,)))
            b = BlockArray.from_dense(b, grid=_oriented(gb, transpose_b))
        else:
            gb = _oriented(b.grid, transpose_b)
            if ga.splits[1] != gb.splits[0]:
                # Align the contraction splits to the left operand's.
                gb = BlockGrid((k, n), (ga.splits[1], gb.splits[1]))
                b = b.regrid(grid=_oriented(gb, transpose_b))

    mm = block_op("MatMul", ref.symbolic,
                  transpose_a=transpose_a, transpose_b=transpose_b)
    add = block_op("Add", ref.symbolic)
    rows, inner, cols = ga.splits[0], range(len(ga.splits[1])), gb.splits[1]

    def one_tile(task):
        i, j = task
        return pair_tree(
            [mm(a.block((q, i) if transpose_a else (i, q)),
                b.block((j, q) if transpose_b else (q, j))) for q in inner],
            add)

    tasks = [(i, j) for i in range(len(rows)) for j in range(len(cols))]
    blocks = _sched(scheduler).map(one_tile, tasks)
    return BlockArray.from_blocks(
        BlockGrid((ga.shape[0], gb.shape[1]), (rows, cols)), blocks)


# ---------------------------------------------------------------------------
# Reductions: per-block reduce + tree-combine across the grid
# ---------------------------------------------------------------------------

#: reduction op -> the binary op that combines its per-block partials.
_REDUCE_COMBINE = {"Sum": "Add", "Max": "Maximum", "Min": "Minimum"}


def _reduce(op_name, a, axis, keepdims, scheduler):
    if not isinstance(a, BlockArray):
        raise TypeError(f"expected a BlockArray, got {type(a).__name__}")
    if isinstance(axis, (list, tuple)):
        raise ValueError("blocked reductions take one axis (or None)")
    if axis is not None:
        if a.ndim == 0:
            raise ValueError("a 0-d block array has no axis to reduce")
        axis = int(axis) % a.ndim
    sched = _sched(scheduler)
    combine = block_op(_REDUCE_COMBINE[op_name], a.symbolic)
    reduced = sched.map(
        block_op(op_name, a.symbolic, axis=axis, keepdims=bool(keepdims)),
        a.block_list())
    if axis is None:
        return pair_tree(reduced, combine)
    grid = a.grid
    out_grid = grid.reduced(axis, keepdims=keepdims)
    gd = grid.grid_shape[axis]
    if gd == 1:
        return BlockArray.from_blocks(out_grid, reduced)

    def one_entry(out_entry):
        out_entry = list(out_entry)
        if keepdims:
            template = out_entry
        else:
            template = out_entry[:axis] + [0] + out_entry[axis:]
        parts = []
        for q in range(gd):
            src = list(template)
            src[axis] = q
            parts.append(reduced[grid.entry_index(tuple(src))])
        return pair_tree(parts, combine)

    blocks = sched.map(one_entry, list(out_grid.entries()))
    return BlockArray.from_blocks(out_grid, blocks)


def reduce_sum(a, axis=None, keepdims=False, scheduler=None):
    """Blocked ``Sum``: dense result for ``axis=None``, re-gridded
    :class:`BlockArray` for an integer axis."""
    return _reduce("Sum", a, axis, keepdims, scheduler)


def reduce_max(a, axis=None, keepdims=False, scheduler=None):
    return _reduce("Max", a, axis, keepdims, scheduler)


def reduce_min(a, axis=None, keepdims=False, scheduler=None):
    return _reduce("Min", a, axis, keepdims, scheduler)


def reduce_mean(a, axis=None, keepdims=False, scheduler=None):
    """Blocked ``Mean``: summed via the grid tree, divided once.

    Same dtype rule as the dense ``Mean`` kernel: floats keep their
    dtype, integers go through true division (float64)."""
    total = reduce_sum(a, axis=axis, keepdims=keepdims, scheduler=scheduler)
    if axis is None:
        count = int(np.prod(a.shape, dtype=np.int64))
    else:
        count = a.shape[int(axis) % a.ndim]
    dtype = a.dtype if a.dtype.kind == "f" else np.dtype(np.float64)
    if a.symbolic:
        graph = a.block_list()[0].graph
        count = graph.constant(count, dtype=dtypes.from_numpy(dtype))
    else:
        count = np.asarray(count, dtype=dtype)
    div = block_op("Div", a.symbolic)
    if not isinstance(total, BlockArray):
        return div(total, count)
    return BlockArray.from_blocks(
        total.grid, [div(b, count) for b in total.block_list()])


# ---------------------------------------------------------------------------
# Layout ops: metadata re-gridding
# ---------------------------------------------------------------------------


def concat(arrays, axis=0, scheduler=None):
    """Concatenate blocked arrays along ``axis`` — pure re-gridding: the
    result shares the input blocks, no bulk copies."""
    arrays = list(arrays)
    if not arrays or not all(isinstance(a, BlockArray) for a in arrays):
        raise TypeError("concat expects a non-empty list of BlockArrays")
    first = arrays[0]
    axis = int(axis) % first.ndim
    aligned = [first]
    for a in arrays[1:]:
        want = tuple(
            a.grid.splits[d] if d == axis else first.grid.splits[d]
            for d in range(first.ndim)
        )
        if a.grid.splits != want:
            a = a.regrid(grid=BlockGrid(a.shape, want))
        aligned.append(a)
    splits = list(first.grid.splits)
    splits[axis] = tuple(
        b for a in aligned for b in a.grid.splits[axis]
    )
    shape = list(first.shape)
    shape[axis] = sum(splits[axis])
    out_grid = BlockGrid(tuple(shape), tuple(splits))
    # Map each output entry back to (source array, source entry).
    starts = []
    acc = 0
    for a in aligned:
        starts.append(acc)
        acc += a.grid.grid_shape[axis]
    blocks = []
    for entry in out_grid.entries():
        g = entry[axis]
        src = 0
        while src + 1 < len(aligned) and starts[src + 1] <= g:
            src += 1
        src_entry = list(entry)
        src_entry[axis] = g - starts[src]
        blocks.append(aligned[src].block(tuple(src_entry)))
    return BlockArray.from_blocks(out_grid, blocks)


def transpose(a, perm=None, scheduler=None):
    """Blocked transpose: per-block ``Transpose`` + permuted grid."""
    if not isinstance(a, BlockArray):
        raise TypeError(f"expected a BlockArray, got {type(a).__name__}")
    if perm is None:
        perm = tuple(range(a.ndim - 1, -1, -1))
    perm = tuple(int(p) % a.ndim for p in perm)
    run = block_op("Transpose", a.symbolic, perm=perm)
    out_grid = a.grid.transposed(perm)

    def one(entry):
        src = [0] * a.ndim
        for j, p in enumerate(perm):
            src[p] = entry[j]
        return run(a.block(tuple(src)))

    blocks = _sched(scheduler).map(one, list(out_grid.entries()))
    return BlockArray.from_blocks(out_grid, blocks)
