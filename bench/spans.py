"""The benchmark's own span recorder.

A span is one call into a layer's public function, timed from the
benchmark's side of the boundary: name (``<layer>.<function>``), start,
end, the span that caused it, and the id of the operation it belongs to.
Spans stay in memory during the run and are written out once at the end
as a Chrome trace plus a self-time table (a span's duration minus the
part of it its child spans cover).
"""

from __future__ import annotations

import collections
import itertools
import json
import statistics
import threading
import time

__all__ = ["SpanRecorder"]

# ``parent`` indexes the same track's span list (-1: a root span).
_Span = collections.namedtuple(
    "_Span", ["name", "start", "end", "parent", "op", "track"])


class SpanRecorder:
    """Collects spans from any number of threads.

    Each thread appends to a track of its own, so recording takes no
    lock; a span's children always run on its thread.
    """

    def __init__(self):
        self.tracks = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_ids = itertools.count()

    # -- recording ---------------------------------------------------------

    def _track(self):
        local = self._local
        local.spans, local.stack, local.op = [], [], None
        with self._lock:
            local.track = len(self.tracks)
            self.tracks.append(local.spans)
        return local.spans, local.stack

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        local = self._local
        try:
            spans, stack = local.spans, local.stack
        except AttributeError:
            spans, stack = self._track()
        index = len(spans)
        # Reserve the slot first so children can name their parent.
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = _Span(name, start, end, parent, local.op,
                                 local.track)

    def operation(self, fn):
        """Run ``fn()`` as the root span of a new operation; every span
        it causes carries the operation's id."""
        local = self._local
        if not hasattr(local, "spans"):
            self._track()
        local.op = next(self._op_ids)
        try:
            return self.call("op", fn)
        finally:
            local.op = None

    # -- reading -----------------------------------------------------------

    def finished(self):
        """Every finished span, track by track."""
        return [s for track in self.tracks for s in track if s is not None]

    def durations(self, name):
        """Seconds of every finished span called ``name``."""
        return [s.end - s.start for s in self.finished() if s.name == name]

    def p50(self, name):
        """Median seconds of the spans called ``name``."""
        return statistics.median(self.durations(name))

    def self_times(self):
        """``{name: (count, total_s, self_s)}``: self time is a span's
        duration minus the durations of its direct children (children
        run sequentially inside their parent, so they never overlap)."""
        table = {}
        for track in self.tracks:
            child_total = collections.defaultdict(float)
            for s in track:
                if s is not None and s.parent >= 0:
                    child_total[s.parent] += s.end - s.start
            for i, s in enumerate(track):
                if s is None:
                    continue
                count, total, self_s = table.get(s.name, (0, 0.0, 0.0))
                d = s.end - s.start
                table[s.name] = (count + 1, total + d,
                                 self_s + d - child_total.get(i, 0.0))
        return table

    def self_time_table(self):
        """The self-time table as printable lines, largest self first."""
        rows = sorted(self.self_times().items(), key=lambda kv: -kv[1][2])
        lines = [f"{'span':44s} {'count':>8s} {'total_ms':>11s} "
                 f"{'self_ms':>11s} {'self_us/call':>13s}"]
        for name, (count, total, self_s) in rows:
            lines.append(
                f"{name:44s} {count:8d} {total * 1e3:11.3f} "
                f"{self_s * 1e3:11.3f} {self_s / count * 1e6:13.2f}")
        return lines

    def chrome_trace(self, max_events=None):
        """The earliest ``max_events`` spans (all by default) as a
        ``chrome://tracing`` / Perfetto document."""
        spans = sorted(self.finished(), key=lambda s: s.start)[:max_events]
        t0 = spans[0].start if spans else 0.0
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [{
                "name": s.name, "ph": "X", "pid": 1, "tid": s.track,
                "ts": (s.start - t0) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "args": {"op": s.op},
            } for s in spans],
        }

    def save(self, path, max_events=None):
        """Write the Chrome trace (with the self-time table attached)."""
        doc = self.chrome_trace(max_events)
        doc["selfTime"] = {
            name: {"count": c, "total_s": t, "self_s": s}
            for name, (c, t, s) in self.self_times().items()
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))
