"""``repro.runtime``: the shared, backend-neutral execution engine.

Every consumer of a compiled graph — ``Session.run``'s feed-dict
adapter, traced ``ConcreteFunction`` calls, loaded serving artifacts,
the micro-batcher's batched dispatch, and the branch / body sub-graphs
of staged ``Cond`` / ``While`` ops — executes through this one package,
which has three names:

- :func:`compile_plan` (:mod:`repro.runtime.plan`) compiles a graph +
  fetches + feeds into an :class:`ExecutionPlan` (pruned topo steps,
  slot locators, feed/fetch slot tables) with constant pre-evaluation,
  dead-step elision, elementwise fusion and output-buffer reuse;
- :class:`BoundPlan` (:mod:`repro.runtime.engine`) binds the feed
  tensors to slots once and runs the plan per call on positional values
  — no dict lookups, no per-call flattening, no validation copies.

The paper's Table 2 isolates per-call dispatch overhead as the cost
in-graph execution amortizes; this package is where that overhead is
engineered out for the function-call and serving hot paths.
"""

from .engine import BoundPlan
from .plan import ExecutionPlan, compile_plan

__all__ = ["BoundPlan", "ExecutionPlan", "compile_plan"]
