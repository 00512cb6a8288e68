"""``repro.runtime``: the shared, backend-neutral execution engine.

Every consumer of a compiled graph — ``Session.run``'s feed-dict
compatibility path, traced ``ConcreteFunction`` calls, loaded serving
artifacts, the micro-batcher's batched dispatch, and the branch / body
sub-graphs of staged ``Cond`` / ``While`` ops — executes through this
one package:

- :mod:`repro.runtime.plan` compiles a graph + fetches + feeds into an
  :class:`ExecutionPlan` (pruned topo steps, slot locators, feed/fetch
  slot tables) with constant pre-evaluation, dead-step elision,
  elementwise fusion and output-buffer reuse;
- :mod:`repro.runtime.engine` provides :class:`BoundPlan` — the
  positional **fast path** that binds feed tensors to slots once and
  executes per call with no dict lookups, no per-call flattening and no
  validation copies — plus the bounded LRU :class:`PlanCache`.

The paper's Table 2 isolates per-call dispatch overhead as the cost
in-graph execution amortizes; this package is where that overhead is
engineered out for the function-call and serving hot paths.
"""

from .engine import (
    DEFAULT_PLAN_CACHE_SIZE,
    BoundPlan,
    CacheStats,
    PlanCache,
)
from .plan import ExecutionPlan, compile_plan

__all__ = [
    "BoundPlan",
    "CacheStats",
    "DEFAULT_PLAN_CACHE_SIZE",
    "ExecutionPlan",
    "PlanCache",
    "compile_plan",
]
