"""Graph lowering: rewrite a traced graph into per-block steps.

:func:`lower_blocked_graph` takes a trace graph plus the grids of its
block-partitioned feeds and produces a *new* graph in which every op
touching blocked data is decomposed into independent per-block ops.
The decompositions are not written here: a blocked placeholder becomes
a *symbolic* :class:`BlockArray` (one placeholder per block, row-major
entry order — the feed order of :meth:`BlockArray.block_list`), and
:data:`BLOCK_RULES` maps each graph op type to the block op of
:mod:`repro.blocks.ops` that decomposes it.  Calling that block op on
symbolic blocks stages one graph op per block — whatever it stages *is*
the lowering, so traced and eager results are bit-identical.

This module is only the driver:

- placeholder expansion;
- ops without a blocked input are copied 1:1;
- an op with no rule, or whose rule refuses (``ValueError`` /
  ``TypeError`` / ``IndexError``), falls back to *materializing* its
  blocked inputs (:meth:`BlockArray.to_dense` — a ``Concat`` tree) and
  is copied unchanged; every fallback is recorded with its reason on
  :attr:`LoweredGraph.fallbacks` and counted in
  ``blocks.dense_fallbacks``;
- control dependencies of the source op are attached to every op its
  rule created.

The per-block ops of one logical op share no data dependencies, so they
land in the same wavefront level of the compiled plan
(:func:`repro.runtime.plan.compile_plan`) and fan out on the bound
scheduler.
"""

from __future__ import annotations

import functools

from ..framework.graph.graph import Graph
from ..observe.events import RECORDER as _REC
from . import ops
from .array import BlockArray

__all__ = ["BLOCK_RULES", "LoweredGraph", "lower_blocked_graph"]


def _getitem(a, *index_tensors, spec=()):
    if index_tensors:
        raise TypeError("blocked indexing takes ints and slices only")
    index = []
    for entry in spec:
        if entry[0] == "idx":
            index.append(int(entry[1]))
        elif entry[0] == "slice":
            index.append(slice(*entry[1:]))
        else:
            raise TypeError(f"unsupported block index entry {entry[0]!r}")
    return a[tuple(index)]


def _concat(*arrays, axis=0):
    return ops.concat(arrays, axis=axis)


#: graph op type -> the block op that decomposes it, called as
#: ``rule(*mapped_inputs, **op.attrs)`` whenever an input is blocked.
BLOCK_RULES = {
    "MatMul": ops.matmul,
    "Sum": ops.reduce_sum,
    "Max": ops.reduce_max,
    "Min": ops.reduce_min,
    "Mean": ops.reduce_mean,
    "Concat": _concat,
    "Transpose": ops.transpose,
    "GetItem": _getitem,
    "Select": ops.where,
    **{name: functools.partial(ops.map_unary, name)
       for name in ops.UNARY_ELEMENTWISE},
    **{name: functools.partial(ops.map_binary, name)
       for name in ops.BINARY_ELEMENTWISE},
}


class LoweredGraph:
    """The result of :func:`lower_blocked_graph`.

    Attributes:
      graph: the new, per-block graph.
      feeds: the new feed tensors — old feed order, each blocked feed
        expanded to its per-block placeholders (row-major).
      fetches: the new fetch tensors (dense; blocked intermediates are
        materialized), ``None`` entries preserved.
      fallbacks: ``(op name, op type, reason)`` for every op that had a
        blocked input and was run dense instead.
    """

    __slots__ = ("graph", "feeds", "fetches", "fallbacks")

    def __init__(self, graph, feeds, fetches, fallbacks):
        self.graph = graph
        self.feeds = tuple(feeds)
        self.fetches = tuple(fetches)
        self.fallbacks = tuple(fallbacks)


class _Lowering:
    def __init__(self, old_graph, block_grids):
        self.new = Graph(name=f"{old_graph.name}/blocked")
        self.block_grids = block_grids  # id(old feed tensor) -> BlockGrid
        self.tmap = {}    # id(old tensor) -> Tensor | symbolic BlockArray
        self.opmap = {}   # id(old op) -> tuple of new Operations
        self.dense = {}   # id(old tensor) -> materialized dense Tensor
        self.fallbacks = []

    def to_dense(self, t):
        """The dense tensor for an old tensor (materializing if blocked)."""
        v = self.tmap[id(t)]
        if not isinstance(v, BlockArray):
            return v
        dense = self.dense.get(id(t))
        if dense is None:
            dense = self.dense[id(t)] = v.to_dense()
            dense.set_shape(t.shape)
        return dense

    def lower_op(self, op):
        before = len(self.new.ops)
        if op.type == "Placeholder":
            self._placeholder(op)
        else:
            inputs = [self.tmap[id(t)] for t in op.inputs]
            if any(isinstance(v, BlockArray) for v in inputs):
                reason = self._apply_rule(op, inputs)
                if reason is not None:
                    self.fallbacks.append((op.name, op.type, reason))
                    _REC.counter("blocks.dense_fallbacks")
                    # What the rule staged before refusing is dead: keep
                    # it out of the control edges so the plan prunes it.
                    before = len(self.new.ops)
                    self._copy(op)
            else:
                self._copy(op)
        created = self.opmap[id(op)] = tuple(self.new.ops[before:])
        for c in op.control_inputs:
            for new_c in self.opmap.get(id(c), ()):
                for new_op in created:
                    new_op.add_control_input(new_c)

    def _apply_rule(self, op, inputs):
        """Stage ``op`` block-wise; the reason (a string) if it cannot be."""
        rule = BLOCK_RULES.get(op.type)
        if rule is None:
            return "no block rule"
        try:
            self.tmap[id(op.outputs[0])] = rule(*inputs, **op.attrs)
        except (ValueError, TypeError, IndexError) as e:
            return str(e)
        return None

    def _placeholder(self, op):
        out = op.outputs[0]
        grid = self.block_grids.get(id(out))
        if grid is None:
            self.tmap[id(out)] = self.new.placeholder(
                out.dtype, shape=out.shape, name=op.name)
            return
        self.tmap[id(out)] = BlockArray(grid, [
            self.new.placeholder(out.dtype, shape=grid.block_shape(entry),
                                 name=f"{op.name}/b{i}")
            for i, entry in enumerate(grid.entries())
        ])

    def _copy(self, op):
        """Copy ``op`` unchanged, with blocked inputs materialized."""
        new_op = self.new.create_op(
            op.type, [self.to_dense(t) for t in op.inputs], dict(op.attrs),
            name=op.name)
        for old_t, new_t in zip(op.outputs, new_op.outputs):
            new_t.set_shape(old_t.shape)
            self.tmap[id(old_t)] = new_t


def lower_blocked_graph(graph, feed_tensors, fetch_tensors, block_grids):
    """Lower ``graph`` into a per-block graph.

    Args:
      graph: the traced (and optimized) source graph.
      feed_tensors: the runtime feed tensors of ``graph``, in binding
        order.
      fetch_tensors: the fetch tensors (``None`` entries allowed).
      block_grids: ``{id(feed tensor): BlockGrid}`` for the feeds that
        arrive block-partitioned.

    Returns:
      A :class:`LoweredGraph`; its fetches are always dense.
    """
    lw = _Lowering(graph, block_grids)
    for op in graph.ops:
        lw.lower_op(op)

    feeds = []
    for t in feed_tensors:
        v = lw.tmap[id(t)]
        feeds.extend(v.block_list() if isinstance(v, BlockArray) else [v])
    fetches = [None if t is None else lw.to_dense(t) for t in fetch_tensors]
    return LoweredGraph(lw.new, feeds, fetches, lw.fallbacks)
