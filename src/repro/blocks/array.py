"""``BlockArray``: a dense tensor stored as a grid of blocks.

The array is just ``(BlockGrid, row-major tuple of blocks)``.  The
blocks are either ndarrays (eager) or graph
:class:`~repro.framework.graph.graph.Tensor` s (``symbolic`` — what the
graph lowering builds from per-block placeholders); every operation on
either kind goes through the two primitives below, so each block
decomposition in :mod:`repro.blocks.ops` is written once:

- :func:`block_op` — run registered op X on block operands: the
  :mod:`repro.framework.registry` kernel on ndarrays, a staged graph op
  on tensors.  Block-partitioned execution is a *layout*, not a second
  math library;
- :func:`take` — a basic-index window of one operand: a NumPy view, or
  a staged ``GetItem`` carrying the static result shape.

Blocks are stored row-major in grid-entry order
(:meth:`BlockGrid.entries`); ``block_list`` exposes exactly that order,
which is also the placeholder feed order of blocked execution plans.
"""

from __future__ import annotations

import functools

import numpy as np

from ..framework import registry
from ..framework.graph.graph import Tensor
from .grid import BlockGrid

__all__ = ["BlockArray", "block_op", "take", "static_shape"]


def block_op(op_name, symbolic, **attrs):
    """The callable that runs registered op ``op_name`` on block operands.

    Resolved once per logical op (from :attr:`BlockArray.symbolic`), then
    called once per block: the registry kernel on ndarrays, or — for
    symbolic blocks — a ``create_op`` in the operands' graph, returning
    the staged output tensor.
    """
    if not symbolic:
        kernel = registry.get_op_def(op_name).kernel
        return functools.partial(kernel, **attrs) if attrs else kernel

    def stage(*inputs):
        return inputs[0].graph.create_op(op_name, inputs, attrs).outputs[0]

    return stage


def static_shape(value):
    """The fully known shape of a dense operand (ndarray or tensor)."""
    if not isinstance(value, Tensor):
        return np.shape(value)
    dims = value.shape.dims
    if dims is None or None in dims:
        raise ValueError(
            f"dense operand {value.name!r} has no static shape ({value.shape})")
    return tuple(dims)


def take(value, index, symbolic):
    """``value[index]`` for a tuple of ints and step-1 slices: a NumPy
    view, or — ``symbolic`` — a staged ``GetItem`` declared to have the
    static result shape (a selection that keeps the whole operand stages
    nothing and returns the operand)."""
    if not symbolic:
        return value[index]
    dims = static_shape(value)
    shape = tuple(
        len(range(*ix.indices(d))) for ix, d in zip(index, dims)
        if isinstance(ix, slice)) + dims[len(index):]
    if shape == dims:
        return value
    spec = tuple(
        ("slice", ix.start, ix.stop, None) if isinstance(ix, slice)
        else ("idx", ix) for ix in index)
    out = block_op("GetItem", True, spec=spec)(value)
    out.set_shape(shape)
    return out


class BlockArray:
    """A dense tensor partitioned into a block grid."""

    __slots__ = ("_grid", "_blocks", "_symbolic")

    def __init__(self, grid, blocks):
        if not isinstance(grid, BlockGrid):
            raise TypeError(f"grid must be a BlockGrid, got {type(grid).__name__}")
        blocks = tuple(blocks)
        symbolic = bool(blocks) and isinstance(blocks[0], Tensor)
        if symbolic:
            if not all(isinstance(b, Tensor) for b in blocks):
                raise TypeError("blocks mix graph tensors and arrays")
        else:
            blocks = tuple(np.asarray(b) for b in blocks)
        if len(blocks) != grid.num_blocks:
            raise ValueError(
                f"grid has {grid.num_blocks} blocks, got {len(blocks)} arrays"
            )
        for entry, b in zip(grid.entries(), blocks):
            want = grid.block_shape(entry)
            if symbolic:
                b.set_shape(want)  # raises on a static-shape conflict
            elif b.shape != want:
                raise ValueError(
                    f"block {entry} has shape {b.shape}, grid expects {want}"
                )
        if blocks:
            dt = blocks[0].dtype
            for b in blocks[1:]:
                if b.dtype != dt:
                    raise ValueError(
                        f"blocks mix dtypes {dt} and {b.dtype}"
                    )
        self._grid = grid
        self._blocks = blocks
        self._symbolic = symbolic

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_dense(cls, value, block_shape=None, grid=None):
        """Partition a dense array.

        Exactly one of ``block_shape`` (ceil-partitioned via
        :meth:`BlockGrid.regular`) or ``grid`` must be given.
        """
        symbolic = isinstance(value, Tensor)
        arr = value if symbolic else np.asarray(value)
        shape = static_shape(arr)
        if (block_shape is None) == (grid is None):
            raise ValueError("pass exactly one of block_shape or grid")
        if grid is None:
            grid = BlockGrid.regular(shape, block_shape)
        elif grid.shape != shape:
            raise ValueError(
                f"grid shape {grid.shape} does not match array shape "
                f"{shape}"
            )
        blocks = [
            take(arr, grid.block_slices(entry), symbolic)
            for entry in grid.entries()
        ]
        if not symbolic:
            blocks = [np.ascontiguousarray(b) for b in blocks]
        return cls(grid, blocks)

    @classmethod
    def from_blocks(cls, grid, blocks):
        """Wrap already-partitioned blocks (row-major entry order)."""
        return cls(grid, blocks)

    # -- metadata --------------------------------------------------------------

    @property
    def grid(self):
        return self._grid

    @property
    def shape(self):
        return self._grid.shape

    @property
    def ndim(self):
        return self._grid.ndim

    @property
    def symbolic(self):
        """Whether the blocks are graph tensors (staged) rather than
        ndarrays — what every block op resolves its kernels from."""
        return self._symbolic

    @property
    def dtype(self):
        """The NumPy dtype of the blocks."""
        if not self._blocks:
            return np.dtype(np.float32)
        dtype = self._blocks[0].dtype
        return dtype.np_dtype if self._symbolic else dtype

    @property
    def num_blocks(self):
        return self._grid.num_blocks

    # -- block access ----------------------------------------------------------

    def block(self, entry):
        """The block (ndarray or graph tensor) at grid ``entry``."""
        return self._blocks[self._grid.entry_index(tuple(entry))]

    def block_list(self):
        """All blocks, row-major (the canonical flattening order)."""
        return list(self._blocks)

    def to_dense(self):
        """Assemble the dense value.

        Symbolic blocks stage a ``Concat`` tree over the grid, last axis
        first (groups of row-major-consecutive blocks share all outer
        indices); ndarray blocks are copied once into a fresh array —
        the same tree run eagerly copies every element once per grid
        axis (measured 2x on a 4x4 grid of 128x128 blocks).
        """
        grid = self._grid
        if not self._symbolic:
            out = np.empty(grid.shape, dtype=self.dtype)
            for entry, b in zip(grid.entries(), self._blocks):
                out[grid.block_slices(entry)] = b
            return out
        blocks = list(self._blocks)
        for axis in range(grid.ndim - 1, -1, -1):
            g = grid.grid_shape[axis]
            if g > 1:
                concat = block_op("Concat", True, axis=axis)
                blocks = [concat(*blocks[i:i + g])
                          for i in range(0, len(blocks), g)]
        blocks[0].set_shape(grid.shape)
        return blocks[0]

    # NumPy-protocol interop: dense on demand.
    numpy = to_dense

    def __array__(self, dtype=None):
        dense = self.to_dense()
        return dense if dtype is None else dense.astype(dtype)

    # -- re-gridding -----------------------------------------------------------

    def regrid(self, grid=None, block_shape=None):
        """The same values under a different partitioning.

        Assembles dense and re-partitions — correct for any grid pair.
        """
        if (block_shape is None) == (grid is None):
            raise ValueError("pass exactly one of block_shape or grid")
        if grid is None:
            grid = BlockGrid.regular(self.shape, block_shape)
        if grid == self._grid:
            return self
        return BlockArray.from_dense(self.to_dense(), grid=grid)

    def reshape(self, new_shape, block_shape=None):
        """Reshape (dense round-trip), optionally re-partitioned."""
        dense = self.to_dense().reshape(tuple(int(d) for d in new_shape))
        if block_shape is None:
            block_shape = dense.shape
        return BlockArray.from_dense(dense, block_shape=block_shape)

    def __getitem__(self, index):
        """Basic indexing (ints, step-1 slices): trims blocks, no copies
        across block boundaries — slicing *re-grids*."""
        if not isinstance(index, tuple):
            index = (index,)
        plan = self._grid.slice_plan(index)
        kept_dims = [d for d, p in enumerate(plan) if p[0] == "slice"]
        new_splits = tuple(
            tuple(hi - lo for _, lo, hi in plan[d][1]) for d in kept_dims
        )
        new_shape = tuple(sum(dim) for dim in new_splits)
        if not kept_dims:
            # All dimensions integer-indexed: a scalar.
            ix = tuple(p[2] for p in plan)
            entry = tuple(p[1] for p in plan)
            return take(self.block(entry), ix, self._symbolic)
        new_grid = BlockGrid(new_shape, new_splits)
        blocks = []
        for entry in new_grid.entries():
            src_entry = []
            src_index = []
            it = iter(entry)
            for p in plan:
                if p[0] == "idx":
                    src_entry.append(p[1])
                    src_index.append(p[2])
                else:
                    src, lo, hi = p[1][next(it)]
                    src_entry.append(src)
                    src_index.append(slice(lo, hi))
            blocks.append(take(
                self.block(tuple(src_entry)), tuple(src_index),
                self._symbolic))
        return BlockArray(new_grid, blocks)

    # -- arithmetic (dispatches through repro.blocks.ops) ----------------------

    def _ops(self):
        from . import ops

        return ops

    def __add__(self, other):
        return self._ops().add(self, other)

    def __radd__(self, other):
        return self._ops().add(other, self)

    def __sub__(self, other):
        return self._ops().subtract(self, other)

    def __rsub__(self, other):
        return self._ops().subtract(other, self)

    def __mul__(self, other):
        return self._ops().multiply(self, other)

    def __rmul__(self, other):
        return self._ops().multiply(other, self)

    def __truediv__(self, other):
        return self._ops().divide(self, other)

    def __rtruediv__(self, other):
        return self._ops().divide(other, self)

    def __pow__(self, other):
        return self._ops().power(self, other)

    def __matmul__(self, other):
        return self._ops().matmul(self, other)

    def __rmatmul__(self, other):
        return self._ops().matmul(other, self)

    def __neg__(self):
        return self._ops().negative(self)

    def __abs__(self):
        return self._ops().abs(self)

    def sum(self, axis=None, keepdims=False):
        return self._ops().reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return self._ops().reduce_mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims=False):
        return self._ops().reduce_max(self, axis=axis, keepdims=keepdims)

    def min(self, axis=None, keepdims=False):
        return self._ops().reduce_min(self, axis=axis, keepdims=keepdims)

    def transpose(self, perm=None):
        return self._ops().transpose(self, perm=perm)

    @property
    def T(self):
        return self.transpose()

    def __repr__(self):
        return (f"<BlockArray shape={self.shape} grid={self._grid.grid_shape} "
                f"dtype={self.dtype}>")
