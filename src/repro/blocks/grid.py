"""``BlockGrid``: the partition metadata of a block-partitioned tensor.

A grid describes how one dense shape is cut into a Cartesian grid of
blocks: per dimension, an ordered tuple of block sizes that sums to the
dense extent.  Every block is addressed by a *grid entry* — a tuple of
per-dimension block indices — following the nums kernel-interface idiom
(each kernel call carries grid-entry/grid-meta addressing, never raw
offsets).

The grid is pure metadata: hashable, comparable, and shared between the
eager block-op layer (:mod:`repro.blocks.ops`), the graph lowering
(:mod:`repro.blocks.lowering`) and the signature cache
(:class:`repro.blocks.spec.BlockSpec`), so "same partitioning" means one
thing everywhere.
"""

from __future__ import annotations

import itertools

__all__ = ["BlockGrid"]


def _normalize_splits(shape, splits):
    shape = tuple(int(d) for d in shape)
    splits = tuple(tuple(int(b) for b in dim) for dim in splits)
    if len(splits) != len(shape):
        raise ValueError(
            f"splits cover {len(splits)} dimensions for a rank-{len(shape)} "
            "shape"
        )
    for d, (extent, dim) in enumerate(zip(shape, splits)):
        if not dim:
            raise ValueError(f"dimension {d} has no blocks")
        if any(b <= 0 for b in dim):
            raise ValueError(
                f"dimension {d} has a non-positive block size in {dim}"
            )
        if sum(dim) != extent:
            raise ValueError(
                f"dimension {d} block sizes {dim} sum to {sum(dim)}, "
                f"expected extent {extent}"
            )
    return shape, splits


class BlockGrid:
    """An immutable description of one block partitioning.

    Attributes:
      shape: the dense tensor shape.
      splits: per-dimension tuples of block sizes (summing to the extent).
      grid_shape: number of blocks per dimension.
    """

    __slots__ = ("_shape", "_splits", "_grid_shape", "_offsets")

    def __init__(self, shape, splits):
        self._shape, self._splits = _normalize_splits(shape, splits)
        self._grid_shape = tuple(len(dim) for dim in self._splits)
        offsets = []
        for dim in self._splits:
            acc = [0]
            for b in dim:
                acc.append(acc[-1] + b)
            offsets.append(tuple(acc))
        self._offsets = tuple(offsets)

    @classmethod
    def regular(cls, shape, block_shape):
        """The ceil-partition of ``shape`` into blocks of ``block_shape``.

        Every block along a dimension has the requested size except the
        last, which takes the remainder; a block size larger than the
        extent yields a single block.
        """
        shape = tuple(int(d) for d in shape)
        block_shape = tuple(int(b) for b in block_shape)
        if len(block_shape) != len(shape):
            raise ValueError(
                f"block_shape {block_shape} does not match rank of {shape}"
            )
        splits = []
        for extent, b in zip(shape, block_shape):
            if b <= 0:
                raise ValueError(f"block sizes must be positive, got {b}")
            if extent <= 0:
                raise ValueError(
                    f"cannot partition a dimension of extent {extent}"
                )
            full, rem = divmod(extent, b)
            dim = (b,) * full + ((rem,) if rem else ())
            splits.append(dim or (extent,))
        return cls(shape, splits)

    # -- metadata ------------------------------------------------------------

    @property
    def shape(self):
        return self._shape

    @property
    def splits(self):
        return self._splits

    @property
    def grid_shape(self):
        return self._grid_shape

    @property
    def ndim(self):
        return len(self._shape)

    @property
    def num_blocks(self):
        n = 1
        for g in self._grid_shape:
            n *= g
        return n

    def entries(self):
        """All grid entries, row-major (last dimension varies fastest).

        This order *is* the storage order of
        :meth:`repro.blocks.array.BlockArray.block_list` and the feed
        order of blocked plan placeholders; everything that flattens
        blocks agrees on it.
        """
        return itertools.product(*(range(g) for g in self._grid_shape))

    def entry_index(self, entry):
        """The row-major flat index of ``entry``."""
        idx = 0
        for e, g in zip(entry, self._grid_shape):
            if not 0 <= e < g:
                raise IndexError(f"entry {entry} outside grid {self._grid_shape}")
            idx = idx * g + e
        return idx

    def block_shape(self, entry):
        """The dense shape of the block at ``entry``."""
        return tuple(dim[e] for dim, e in zip(self._splits, entry))

    def block_bounds(self, entry):
        """Per-dimension ``(start, stop)`` of the block at ``entry``."""
        return tuple(
            (off[e], off[e + 1]) for off, e in zip(self._offsets, entry)
        )

    def block_slices(self, entry):
        """Per-dimension ``slice`` objects addressing the block."""
        return tuple(slice(s, e) for s, e in self.block_bounds(entry))

    # -- derived grids -------------------------------------------------------

    def transposed(self, perm=None):
        """The grid of the transposed tensor."""
        if perm is None:
            perm = tuple(range(self.ndim - 1, -1, -1))
        perm = tuple(int(p) % self.ndim for p in perm)
        if sorted(perm) != list(range(self.ndim)):
            raise ValueError(f"bad permutation {perm} for rank {self.ndim}")
        return BlockGrid(
            tuple(self._shape[p] for p in perm),
            tuple(self._splits[p] for p in perm),
        )

    def reduced(self, axis, keepdims=False):
        """The grid after reducing dimension ``axis`` to a single value."""
        axis = int(axis) % self.ndim
        shape, splits = [], []
        for d in range(self.ndim):
            if d == axis:
                if keepdims:
                    shape.append(1)
                    splits.append((1,))
            else:
                shape.append(self._shape[d])
                splits.append(self._splits[d])
        return BlockGrid(tuple(shape), tuple(splits))

    # -- operand alignment ----------------------------------------------------

    def operand_block_bounds(self, entry, operand_shape):
        """How a broadcast-compatible dense operand lines up with a block.

        For a binary elementwise op between this grid's block at
        ``entry`` and a dense operand of ``operand_shape``, returns per
        operand dimension either ``None`` (size-1 dimension: broadcast
        whole) or the ``(start, stop)`` window of the operand that pairs
        with the block.

        Raises:
          ValueError: when the operand cannot be blocked against this
            grid (higher rank than the grid, or a dimension that is
            neither 1 nor the dense extent).
        """
        operand_shape = tuple(int(d) for d in operand_shape)
        if len(operand_shape) > self.ndim:
            raise ValueError(
                f"operand rank {len(operand_shape)} exceeds grid rank "
                f"{self.ndim}"
            )
        bounds = self.block_bounds(entry)
        shift = self.ndim - len(operand_shape)
        out = []
        for j, extent in enumerate(operand_shape):
            d = j + shift
            if extent == 1:
                out.append(None)
            elif extent == self._shape[d]:
                out.append(bounds[d])
            else:
                raise ValueError(
                    f"operand dimension {j} of extent {extent} matches "
                    f"neither 1 nor the dense extent {self._shape[d]}"
                )
        return tuple(out)

    def slice_plan(self, index):
        """Resolve basic indexing into per-dimension block selections.

        Args:
          index: a tuple (len <= ndim) of ``int`` / ``slice`` entries;
            missing trailing dimensions are kept whole.  Slices must have
            step 1 (or None).

        Returns:
          A list with one element per dimension:
          ``("slice", [(src_block, local_start, local_stop), ...])`` for
          kept dimensions or ``("idx", src_block, local_index)`` for
          integer-indexed (dropped) dimensions.  Empty selections raise.
        """
        if len(index) > self.ndim:
            raise IndexError(
                f"too many indices ({len(index)}) for rank {self.ndim}"
            )
        index = tuple(index) + (slice(None),) * (self.ndim - len(index))
        plan = []
        for d, ix in enumerate(index):
            extent = self._shape[d]
            offsets = self._offsets[d]
            if isinstance(ix, (int,)) and not isinstance(ix, bool):
                i = ix + extent if ix < 0 else ix
                if not 0 <= i < extent:
                    raise IndexError(
                        f"index {ix} out of bounds for dimension {d} "
                        f"of extent {extent}"
                    )
                src = 0
                while offsets[src + 1] <= i:
                    src += 1
                plan.append(("idx", src, i - offsets[src]))
            elif isinstance(ix, slice):
                if ix.step not in (None, 1):
                    raise ValueError(
                        "block slicing supports step 1 only"
                    )
                start, stop, _ = ix.indices(extent)
                if stop <= start:
                    raise ValueError(
                        f"empty slice {ix} along dimension {d}"
                    )
                parts = []
                for src, (s, e) in enumerate(
                        zip(offsets[:-1], offsets[1:])):
                    lo = max(start, s)
                    hi = min(stop, e)
                    if hi > lo:
                        parts.append((src, lo - s, hi - s))
                plan.append(("slice", parts))
            else:
                raise TypeError(
                    f"unsupported block index {ix!r}; use ints and "
                    "step-1 slices"
                )
        return plan

    # -- identity --------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, BlockGrid):
            return NotImplemented
        return self._splits == other._splits

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(self._splits)

    def __repr__(self):
        return f"BlockGrid(shape={self._shape}, grid={self._grid_shape})"
