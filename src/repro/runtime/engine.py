"""The execution engine's call-side surfaces: positional binding + cache.

Two pieces live here:

- :class:`BoundPlan` — the **slot-addressed fast path**.  A consumer that
  always feeds the same tensors in the same order (a traced
  ``ConcreteFunction``, a loaded serving artifact, the micro-batcher's
  batched dispatch, a ``Cond``/``While`` sub-graph fed its loop
  variables and captures) binds those tensors to plan slots *once*, at
  construction.  Each call is then ``execute_flat(args)``: a list copy of
  the plan's base values, one slot store per argument, and the kernel
  loop — no ``nest.flatten``, no cache-key construction, no feed dict, no
  per-feed ``np.array(..., copy=True)``.  Arguments that are already
  correctly-dtyped ndarrays are used as-is (dtype/shape metadata was
  resolved at bind time); anything else is coerced through
  ``np.asarray``.

- :class:`PlanCache` — a bounded (LRU) cache of compiled plans with
  hit/miss/eviction counters, used by ``Session`` so long-lived servers
  compiling many fetch sets don't grow without limit.

Evicting a plan is safe even though cache keys contain ``id()``s: a
recycled id can only be *served stale* on a cache hit, and a hit requires
the entry — whose ``refs`` keep the original tensors alive — to still be
in the cache.
"""

from __future__ import annotations

import collections
import threading

import numpy as np

from ..framework.errors import FetchError
from ..observe.events import RECORDER as _REC

__all__ = ["BoundPlan", "CacheStats", "PlanCache", "DEFAULT_PLAN_CACHE_SIZE"]


#: Default bound for per-session plan caches.  128 plans comfortably
#: covers every (fetches, feeds) pair a server or test suite touches
#: while capping memory for signature-churning workloads.
DEFAULT_PLAN_CACHE_SIZE = 128


class BoundPlan:
    """An :class:`~repro.runtime.plan.ExecutionPlan` bound to a fixed
    positional argument order."""

    __slots__ = ("plan", "scheduler", "calls", "_arg_binds", "_n_args")

    def __init__(self, plan, arg_tensors, scheduler=None):
        """Bind ``arg_tensors`` (the plan's feed tensors, in the order
        ``execute_flat`` will receive their values) to plan slots.

        Validation work that does not depend on per-call values — slot
        resolution, dtype lookup, static-shape extraction — happens here,
        once.  ``scheduler`` (a :class:`repro.blocks.BlockScheduler`)
        turns on level-parallel step execution; ``None`` keeps the serial
        kernel loop.
        """
        slot_of = {id(t): slot for t, slot in plan.feed_slots}
        binds = []
        for t in arg_tensors:
            slot = slot_of.pop(id(t), None)
            if slot is None:
                raise FetchError(
                    f"Cannot bind {t!r}: not an unbound feed of this plan"
                )
            dims = t.shape.dims
            # Fully-defined shapes compare as one tuple equality on the
            # hot path; partial shapes keep the per-dimension walk.
            exact = dims if dims is not None and None not in dims else None
            partial = dims if exact is None else None
            binds.append((slot, t.dtype.np_dtype, exact, partial, t.name))
        if slot_of:
            leftover = set(slot_of.values())
            unbound = [t.name for t, slot in plan.feed_slots
                       if slot in leftover]
            raise FetchError(
                f"Plan feeds {unbound} were not bound to argument positions"
            )
        self.plan = plan
        self.scheduler = scheduler
        self._arg_binds = tuple(binds)
        self._n_args = len(binds)
        # Lifetime execute_flat count.  Updated without a lock: one
        # CPython int add on a path that already runs the kernel loop,
        # so the serving-observability counter is approximate under
        # threads rather than a contention point.
        self.calls = 0

    @property
    def graph_version(self):
        return self.plan.graph_version

    def describe(self):
        """Observability snapshot: how big the bound plan is and how
        often it has run (surfaced in ``GET /v1/models``)."""
        plan = self.plan
        info = {
            "args": self._n_args,
            "steps": len(plan.steps),
            "levels": len(plan.levels),
            "calls": self.calls,
            "graph_version": plan.graph_version,
        }
        fused = getattr(plan, "fused_groups", ())
        if fused:
            info["fused_steps"] = len(fused)
            info["fused_ops"] = sum(len(g[1]) for g in fused)
            info["fused_kernels"] = [g[0] for g in fused]
        return info

    def execute_flat(self, args):
        """Run the plan on positional argument values; returns the flat
        fetch results (ndarrays, in fetch order).

        The per-call overhead is intentionally minimal: inputs that are
        already ndarrays of the bound dtype are stored into their slot
        untouched (no validation copy); others are coerced once.  Shape
        compatibility against the bound placeholder's static shape is
        still enforced — it is one tuple walk, and silently broadcasting
        a wrong-shaped feed is how serving bugs become model bugs.  The
        caller's arrays are never written: buffer reuse only ever
        targets intermediates the plan itself allocated.
        """
        if len(args) != self._n_args:
            raise FetchError(
                f"Bound plan takes {self._n_args} positional values, "
                f"got {len(args)}"
            )
        self.calls += 1
        plan = self.plan
        values = list(plan.base_values)
        for (slot, np_dtype, exact, partial, name), a in zip(
                self._arg_binds, args):
            if np_dtype is not None:
                if type(a) is not np.ndarray or a.dtype != np_dtype:
                    try:
                        a = np.asarray(a, dtype=np_dtype)
                    except (TypeError, ValueError) as e:
                        raise FetchError(
                            f"Feed for {name!r} cannot be cast to "
                            f"{np_dtype}: {e}"
                        ) from e
                if exact is not None:
                    if a.shape != exact:
                        raise FetchError(
                            f"Feed for {name!r} has shape {a.shape}, "
                            f"incompatible with declared {exact}"
                        )
                elif partial is not None:
                    shape = a.shape
                    if len(shape) != len(partial) or any(
                            d is not None and d != s
                            for d, s in zip(partial, shape)):
                        raise FetchError(
                            f"Feed for {name!r} has shape {shape}, "
                            f"incompatible with declared "
                            f"({', '.join(str(d) for d in partial)})"
                        )
            values[slot] = (a,)
        plan.execute(values, self.scheduler)
        return plan.fetch(values)

    def __repr__(self):
        return f"<BoundPlan args={self._n_args} plan={self.plan!r}>"


CacheStats = collections.namedtuple(
    "CacheStats", ["hits", "misses", "evictions", "size", "capacity"])


class PlanCache:
    """A thread-safe LRU cache of compiled execution plans.

    ``get`` records a hit or miss and refreshes recency; ``put`` is
    first-wins (a racing second compile returns the incumbent, so plan
    ``refs`` are never stranded) and evicts the least-recently-used
    entries beyond ``capacity``.
    """

    def __init__(self, capacity=None):
        if capacity is None:
            capacity = DEFAULT_PLAN_CACHE_SIZE
        if capacity < 1:
            raise ValueError("PlanCache capacity must be >= 1")
        self.capacity = capacity
        self._entries = collections.OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key):
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                self._misses += 1
            else:
                self._entries.move_to_end(key)
                self._hits += 1
        _REC.counter("runtime.plan_cache.hits" if plan is not None
                     else "runtime.plan_cache.misses")
        return plan

    def peek(self, key):
        """Lookup without stats or recency effects (double-check path)."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key, plan):
        """Insert ``plan`` (unless ``key`` is already present) and return
        the cached plan; evicts LRU entries beyond capacity."""
        evicted = 0
        with self._lock:
            incumbent = self._entries.get(key)
            if incumbent is not None:
                return incumbent
            self._entries[key] = plan
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
                evicted += 1
        if evicted:
            _REC.counter("runtime.plan_cache.evictions", evicted)
        return plan

    def clear(self):
        with self._lock:
            self._entries.clear()

    @property
    def stats(self):
        with self._lock:
            return CacheStats(self._hits, self._misses, self._evictions,
                              len(self._entries), self.capacity)

    def values(self):
        with self._lock:
            return list(self._entries.values())

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def __contains__(self, key):
        with self._lock:
            return key in self._entries

    def __repr__(self):
        s = self.stats
        return (f"<PlanCache size={s.size}/{s.capacity} hits={s.hits} "
                f"misses={s.misses} evictions={s.evictions}>")
