"""Session: the feed-dict adapter over ``repro.runtime.BoundPlan``.

``Session.run(fetches, feed_dict)`` is the paper-faithful API of Table
2's "loop in Python" row, and nothing but an adapter: it flattens the
fetches, finds (or compiles and binds, once) the
:class:`~repro.runtime.BoundPlan` for this ``(fetches, feed set, graph
version)``, copies the fed values, orders them the way the plan was
bound and calls ``execute_flat`` — the same binder and the same walk a
traced ``ConcreteFunction``, a loaded artifact or a ``Cond``/``While``
sub-graph uses.

What it adds on top is the cost model Table 2 measures: every ``run``
pays for fetch flattening, key construction and a per-feed validation
*copy* (like TF, a fed array is copied into the runtime, so mutating it
afterwards never changes a later result and no kernel can write it) —
the overhead the "loop in Python" training style pays 1000× and the
"loop in graph" style pays once.
"""

from __future__ import annotations

import collections
import threading

import numpy as np

from ...runtime import BoundPlan, compile_plan
from .. import nest
from .graph import Graph

__all__ = ["Session"]

#: Bound plans a session keeps (least recently run evicted beyond it).
_MAX_PLANS = 128


class Session:
    """Executes fetches against a graph.

    Thread safety: concurrent ``run`` calls are safe on a *frozen* graph
    (one that is no longer having ops added).  Looking a plan up — and
    compiling it the first time — happens behind a lock; execution
    itself touches only per-call locals.  What the session cannot make
    safe is the *kernels*: concurrent runs that assign the same
    ``Variable`` interleave nondeterministically.
    """

    def __init__(self, graph):
        if not isinstance(graph, Graph):
            raise TypeError(f"Session requires a Graph, got {type(graph).__name__}")
        self.graph = graph
        # key -> (BoundPlan, feed tensors in bound order, fetches).  Keys
        # contain ``id()``s; an entry holds the objects themselves, so
        # CPython cannot recycle those ids while the entry can be hit.
        self._plan_cache = collections.OrderedDict()
        self._lock = threading.Lock()

    def run(self, fetches, feed_dict=None):
        """Evaluate ``fetches`` (a tensor/op or nested structure thereof)."""
        feed_dict = feed_dict or {}
        flat_fetches = nest.flatten(fetches)
        key = (
            tuple(id(f) for f in flat_fetches),
            tuple(sorted(id(t) for t in feed_dict)),
            self.graph.version,
        )
        with self._lock:
            entry = self._plan_cache.get(key)
            if entry is not None:
                self._plan_cache.move_to_end(key)
            else:
                feeds = list(feed_dict)
                entry = self._plan_cache[key] = (
                    BoundPlan(compile_plan(self.graph, flat_fetches, feeds),
                              feeds),
                    feeds, flat_fetches)
                while len(self._plan_cache) > _MAX_PLANS:
                    self._plan_cache.popitem(last=False)
        bound, feeds, _ = entry
        # Like TF, feeds are *copied* into the runtime on every call —
        # part of the per-run overhead that in-graph loops (and a
        # ``BoundPlan`` called directly) amortize (paper §9, Table 2).
        # Casting and shape checking are ``execute_flat``'s.
        flat_results = bound.execute_flat([
            feed_dict[t] if t.dtype.np_dtype is None
            else np.array(feed_dict[t], copy=True) for t in feeds])
        return nest.pack_sequence_as(fetches, flat_results)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False
