"""Session: the feed-dict compatibility front over ``repro.runtime``.

``Session.run(fetches, feed_dict)`` compiles (and LRU-caches) an
:class:`~repro.runtime.ExecutionPlan` — pruning the graph to what the
fetches need and resolving every op input to a value slot — then binds
the feed dict and executes the plan.

This is deliberately the *general* path, and it keeps the cost model
that Table 2 of the paper measures:

- plan compilation is a one-time cost (like TF's graph pruning/placement);
- each ``run`` call pays a fixed overhead for fetch flattening, cache-key
  construction, feed-dict binding and per-feed validation *copies* —
  which is exactly the overhead the "loop in Python" training style pays
  1000× and the "loop in graph" style pays once.

Consumers that call one compiled signature repeatedly (traced
``ConcreteFunction``s, loaded artifacts, the micro-batcher, and the
``Cond``/``While`` sub-graphs inside any plan) skip this wrapper
entirely: they bind a :class:`~repro.runtime.BoundPlan` once and hit its
positional ``execute_flat`` per call.
"""

from __future__ import annotations

import threading

import numpy as np

from ...runtime import PlanCache, compile_plan
from .. import nest
from ..errors import FetchError
from .graph import Graph

__all__ = ["Session"]


class Session:
    """Executes fetches against a graph.

    Thread safety: concurrent ``run`` calls are safe on a *frozen* graph
    (one that is no longer having ops added — every graph a traced
    ``ConcreteFunction`` or loaded serving artifact executes).  Plan
    compilation is serialized behind a lock; execution itself touches
    only per-call locals.  What the session cannot make safe is the
    *kernels*: concurrent runs that assign the same ``Variable``
    interleave nondeterministically, so concurrent serving should stick
    to pure (read-only / frozen) fetches.

    Args:
      graph: the graph to execute.
      plan_cache_size: bound on cached compiled plans (LRU eviction
        beyond it); ``None`` uses
        :data:`repro.runtime.DEFAULT_PLAN_CACHE_SIZE` (128).  Counters
        are exposed via :attr:`plan_cache_stats`.
    """

    def __init__(self, graph, plan_cache_size=None):
        if not isinstance(graph, Graph):
            raise TypeError(f"Session requires a Graph, got {type(graph).__name__}")
        self.graph = graph
        self._plan_cache = PlanCache(plan_cache_size)
        self._compile_lock = threading.Lock()

    # -- public API -----------------------------------------------------------

    @property
    def plan_cache_stats(self):
        """Hit/miss/eviction counters of the compiled-plan LRU cache."""
        return self._plan_cache.stats

    def run(self, fetches, feed_dict=None):
        """Evaluate ``fetches`` (a tensor/op or nested structure thereof)."""
        feed_dict = feed_dict or {}
        flat_fetches = nest.flatten(fetches)
        key = (
            tuple(id(f) for f in flat_fetches),
            tuple(sorted(id(t) for t in feed_dict)),
            self.graph.version,
        )
        plan = self._plan_cache.get(key)
        if plan is None:
            # Double-checked behind the lock: two racing first calls
            # must not both compile-and-insert (the loser's plan would
            # strand the winner's refs and waste a compile).
            with self._compile_lock:
                plan = self._plan_cache.peek(key)
                if plan is None:
                    plan = compile_plan(
                        self.graph, flat_fetches, list(feed_dict))
                    plan.refs = (tuple(flat_fetches), tuple(feed_dict))
                    plan = self._plan_cache.put(key, plan)

        values = plan.new_values()
        for tensor, slot in plan.feed_slots:
            try:
                fed = feed_dict[tensor]
            except KeyError:
                raise FetchError(
                    f"Placeholder {tensor.name!r} requires a fed value"
                ) from None
            if tensor.dtype.np_dtype is not None:
                # Like TF, feeds are validated and *copied* into the
                # runtime on every call — part of the per-run overhead
                # that in-graph loops (and the runtime's positional fast
                # path) amortize (paper §9, Table 2).
                fed = np.array(fed, dtype=tensor.dtype.np_dtype, copy=True)
                if not tensor.shape.is_compatible_with(fed.shape):
                    raise FetchError(
                        f"Feed for {tensor.name!r} has shape {fed.shape}, "
                        f"incompatible with declared {tensor.shape}"
                    )
            values[slot] = (fed,)

        flat_results = plan.run_flat(values)
        return nest.pack_sequence_as(fetches, flat_results)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False
