"""The event core of ``repro.observe``: a low-overhead, thread-safe
:class:`Recorder` of spans, instants and counters.

Design constraints (this sits on the engine's hot path):

- **One branch when off.**  Every instrumentation site in the codebase
  is gated by a single ``if RECORDER.enabled:`` attribute check — the
  disabled dispatch path pays one attribute load and one branch, nothing
  else (verified by the instrumentation-overhead row in
  ``benchmarks/test_dispatch_overhead.py``).
- **Lock-free event emission.**  Events are tuples appended to a
  ``collections.deque(maxlen=capacity)`` — a *ring buffer*: appends are
  atomic under the GIL (no lock on the emit path, concurrent emitters
  never corrupt the buffer) and once full the oldest events fall off
  instead of growing memory under sustained tracing.
- **Counters stay live.**  Metric counters (`plan-cache hits, fused
  steps, serving requests`) accumulate whether or not event
  recording is enabled, behind a small lock — they are incremented at
  per-call/per-request frequency, never per step, and feed the
  ``GET /v1/metrics`` surface of a running server.

Event representation — one tuple per event, matching the Chrome
trace-event phases the exporter emits::

    (phase, name, category, start, duration_or_value, tid, pid, args)

with ``phase`` one of ``"X"`` (complete span, ``duration`` seconds),
``"i"`` (instant, duration 0) or ``"C"`` (counter sample, the field
carries the *value*).  Timestamps are ``time.perf_counter()`` seconds —
monotonic, comparable within one process.

Processes created via ``fork`` inherit the parent's buffer; an
``os.register_at_fork`` hook clears the child's copy and re-stamps the
cached pid, so a fleet worker's recorder only ever holds its own events.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque

__all__ = ["Recorder", "RECORDER", "enable", "disable", "enabled",
           "counter", "counters", "clear_counters"]

_perf = time.perf_counter

#: Default ring capacity: ~64k events comfortably holds several seconds
#: of step-level tracing while bounding memory to a few MB.
DEFAULT_CAPACITY = 65536

_PID = os.getpid()


def _refresh_pid():
    global _PID
    _PID = os.getpid()


class _Span:
    """Context-manager form of a complete span (enabled path only)."""

    __slots__ = ("_recorder", "_name", "_cat", "_args", "_t0")

    def __init__(self, recorder, name, cat, args):
        self._recorder = recorder
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self):
        self._t0 = _perf()
        return self

    def __exit__(self, exc_type, exc, tb):
        t0 = self._t0
        self._recorder._events.append(
            ("X", self._name, self._cat, t0, _perf() - t0,
             threading.get_ident(), _PID, self._args))
        return False


class Recorder:
    """A thread-safe ring buffer of trace events plus live counters.

    The process-global instance is :data:`RECORDER`; instrumentation
    sites read its ``enabled`` attribute (a plain bool — one branch)
    before doing any tracing work.  Independent recorders can be
    constructed for tests.
    """

    __slots__ = ("enabled", "capacity", "_events", "_counters",
                 "_counter_lock")

    def __init__(self, capacity=DEFAULT_CAPACITY):
        capacity = int(capacity)
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.enabled = False
        self.capacity = capacity
        self._events = deque(maxlen=capacity)
        self._counters = {}
        self._counter_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def enable(self):
        """Start recording events (counters were always live)."""
        self.enabled = True

    def disable(self):
        self.enabled = False

    def clear(self):
        """Drop recorded events (counters are kept; see
        :meth:`clear_counters`)."""
        self._events.clear()

    # -- event emission (callers gate on ``enabled`` themselves) -----------

    def span(self, name, cat="", args=None):
        """A ``with``-block complete span.  Only call when enabled —
        the site's ``if recorder.enabled`` branch IS the off switch."""
        return _Span(self, name, cat, args)

    def begin(self):
        """Span start token (a perf-counter stamp) for the hand-rolled
        emit sites that cannot afford a context manager per step."""
        return _perf()

    def end(self, name, cat, t0, args=None):
        """Complete the span opened at ``t0``."""
        self._events.append(
            ("X", name, cat, t0, _perf() - t0,
             threading.get_ident(), _PID, args))

    def instant(self, name, cat="", args=None):
        self._events.append(
            ("i", name, cat, _perf(), 0.0,
             threading.get_ident(), _PID, args))

    # -- counters (always live) --------------------------------------------

    def counter(self, name, value=1):
        """Add ``value`` to the live metric ``name``.

        Counters accumulate regardless of ``enabled`` (they feed
        ``/v1/metrics``); when event recording is on, each increment
        additionally lands a ``"C"`` sample in the ring so counter
        series show up on the trace timeline.
        """
        with self._counter_lock:
            self._counters[name] = self._counters.get(name, 0) + value
        if self.enabled:
            self._events.append(
                ("C", name, "counter", _perf(), value,
                 threading.get_ident(), _PID, None))

    def counters(self):
        """A snapshot dict of every live counter."""
        with self._counter_lock:
            return dict(self._counters)

    def clear_counters(self):
        with self._counter_lock:
            self._counters.clear()

    # -- reading -----------------------------------------------------------

    def events(self, since=None):
        """A snapshot list of recorded events (oldest first).

        ``since``: only events whose start stamp is ``>= since`` (a
        value previously returned by :meth:`begin` /
        ``time.perf_counter()``).
        """
        snapshot = list(self._events)
        if since is None:
            return snapshot
        return [e for e in snapshot if e[3] >= since]

    def __len__(self):
        return len(self._events)

    def __repr__(self):
        state = "enabled" if self.enabled else "disabled"
        return (f"<Recorder {state} events={len(self._events)}"
                f"/{self.capacity} counters={len(self._counters)}>")


#: The process-global recorder every built-in instrumentation site uses.
RECORDER = Recorder()


def enable():
    """Enable event recording on the global recorder."""
    RECORDER.enable()


def disable():
    RECORDER.disable()


def enabled():
    """Whether the global recorder is currently recording events."""
    return RECORDER.enabled


def counter(name, value=1):
    """Increment a live metric on the global recorder."""
    RECORDER.counter(name, value)


def counters():
    """Snapshot of the global recorder's live counters."""
    return RECORDER.counters()


def clear_counters():
    RECORDER.clear_counters()


def _after_fork_in_child():
    # A forked worker starts with an empty buffer, zeroed counters, its
    # own pid stamp and recording off — parent events/counts must not
    # leak into a child's export (a fleet would merge them N times).
    _refresh_pid()
    RECORDER._events.clear()
    # Fresh lock, not an acquire: a parent thread could have held the
    # counter lock at fork time, leaving the child's copy locked forever.
    RECORDER._counter_lock = threading.Lock()
    RECORDER._counters = {}
    RECORDER.enabled = False


os.register_at_fork(after_in_child=_after_fork_in_child)
