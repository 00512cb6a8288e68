"""``repro.observe``: cross-layer tracing and metrics.

One observability surface over every layer of the stack:

- the **runtime engine** emits per-step kernel spans, per-wavefront
  level spans and plan-cache/fusion counters;
- the **function layer** emits trace/retrace/cache-lookup spans keyed
  by input signature;
- **blocks** emit per-block worker-task spans (one track per pool
  thread in the trace viewer);
- **serving** emits per-request spans and batch-coalesce instants, and
  every :class:`~repro.serving.ModelServer` (and fleet worker) serves
  the live counter snapshot at ``GET /v1/metrics``.

The core is a process-global ring-buffer :class:`Recorder` whose
disabled path costs a single branch — leaving it off is free, and
:func:`profile` turns it on for exactly one ``with`` block::

    with repro.observe.profile() as timeline:
        traced_fn(x, w)

    for name, total, count in timeline.top_kernels(5):
        print(f"{name:24s} {total * 1e3:8.3f} ms  x{count}")
    timeline.save_chrome_trace("trace.json")   # chrome://tracing

Counters are always live (they are incremented at call/request
frequency, never per step): :func:`counters` snapshots them in-process
and ``GET /v1/metrics`` serves them — fleet-merged — over HTTP.
"""

from .events import (
    RECORDER,
    Recorder,
    clear_counters,
    counter,
    counters,
    disable,
    enable,
    enabled,
)
from .export import chrome_trace, save_chrome_trace, stats_summary
from .profile import Span, Timeline, profile

__all__ = [
    "RECORDER",
    "Recorder",
    "Span",
    "Timeline",
    "chrome_trace",
    "clear_counters",
    "counter",
    "counters",
    "disable",
    "enable",
    "enabled",
    "profile",
    "save_chrome_trace",
    "stats_summary",
]
