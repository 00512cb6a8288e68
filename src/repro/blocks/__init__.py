"""Block-partitioned tensors with parallel per-block dispatch.

A :class:`BlockArray` is a dense tensor cut into a grid of contiguous
blocks (:class:`BlockGrid`).  Ops on block arrays dispatch one registry
kernel per block — independent blocks fan out on a
:class:`BlockScheduler` thread pool — and every accumulation (matmul
inner products, reductions, gradient all-reduce) combines partials with
a *fixed pairwise tree*, so results are bit-identical to the dense
computation regardless of worker count.

Two ways in, one set of decompositions (:mod:`repro.blocks.ops`):

- **Eager**: ``repro.blocks.matmul(a, b)``, operators on
  :class:`BlockArray`, reductions, ``concat`` — all eager NumPy-kernel
  dispatch, blocked.
- **Staged**: pass a :class:`BlockArray` to a ``@repro.function`` — the
  traced graph is *lowered* by calling those same block ops on symbolic
  blocks (graph tensors), so each stages one op per block, and the
  result is executed level-parallel by the runtime engine
  (``num_workers`` on the decorator sizes the pool).  Ops the lowering
  runs dense instead are listed, with the reason, in the concrete
  function's ``engine_stats()["blocked"]``.

:class:`DataParallelTrainer` closes the loop for training: batch
shards along axis 0, per-shard tape gradients, tree all-reduce.
"""

from .array import BlockArray
from .data_parallel import DataParallelTrainer
from .grid import BlockGrid
from .lowering import lower_blocked_graph
from .ops import (
    add,
    concat,
    divide,
    equal,
    greater,
    greater_equal,
    less,
    less_equal,
    matmul,
    maximum,
    minimum,
    multiply,
    not_equal,
    pair_tree,
    reduce_max,
    reduce_mean,
    reduce_min,
    reduce_sum,
    subtract,
    transpose,
    where,
)
from .scheduler import BlockScheduler
from .spec import BlockSpec

__all__ = [
    "BlockArray",
    "BlockGrid",
    "BlockScheduler",
    "BlockSpec",
    "DataParallelTrainer",
    "add",
    "concat",
    "divide",
    "equal",
    "greater",
    "greater_equal",
    "less",
    "less_equal",
    "lower_blocked_graph",
    "matmul",
    "maximum",
    "minimum",
    "multiply",
    "not_equal",
    "pair_tree",
    "reduce_max",
    "reduce_mean",
    "reduce_min",
    "reduce_sum",
    "subtract",
    "transpose",
    "where",
]
