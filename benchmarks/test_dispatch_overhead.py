"""Per-call dispatch overhead: positional fast path vs legacy feed dict.

The paper's Table 2 isolates *per-call dispatch overhead* as the cost
in-graph execution amortizes.  This benchmark measures that overhead
directly on a deliberately tiny model (a 1x1 "scalar" matmul — the math
is nanoseconds, so the measurement is nearly pure dispatch):

- **legacy feed-dict path**: ``Session.run`` per call — fetch
  ``nest.flatten``, cache-key build, dict binding, per-feed
  ``np.array(..., copy=True)`` validation;
- **slot-addressed fast path**: what ``ConcreteFunction.call_flat`` now
  does — a ``BoundPlan`` bound once at construction, ``execute_flat``
  per call.

Which path is cheaper is counted, not timed: the Python frames one call
enters (``sys.setprofile``).  The per-call latencies land in
``BENCH_ci.json`` via the CI smoke job, so regressions in either path
show up per commit.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

import repro
from repro import framework as fw
from benchmarks_util import scaled
from repro.runtime import BoundPlan, compile_plan

TABLE = "Dispatch overhead (tiny matmul, per-call)"
CALLS = scaled(4000, 400)
REPEATS = scaled(5, 2)

#: Python frames one call enters, the calling ``lambda`` included.
FAST_PATH_FRAMES = 14
LEGACY_FRAMES = 31


def _concrete_function():
    @repro.function(name="dispatch_overhead_matmul")
    def f(x, w):
        from repro.framework import ops

        return ops.matmul(x, w)

    x = np.ones((1, 1), np.float32)
    w = np.full((1, 1), 2.0, np.float32)
    cf = f.get_concrete_function(x, w)
    return cf, x, w


def _frames_entered(call):
    """The Python frames one ``call()`` enters, its own first, as
    ``(file, function)`` pairs: a ``sys.setprofile`` count of ``call``
    events (a C function, such as a ufunc kernel, enters none).  ``call``
    runs once before counting, so one-time work is not counted."""
    call()
    frames = []

    def profile(frame, event, arg):
        if event == "call":
            frames.append((frame.f_code.co_filename, frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return frames


def _best_per_call(run_once, calls, repeats):
    """Best-of-N mean per-call latency (seconds) for a call loop."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run_once(calls)
        best = min(best, (time.perf_counter() - start) / calls)
    return best


def test_fast_path_beats_legacy_feed_dict(results):
    """One ``call_flat`` enters 14 Python frames; one ``Session.run``
    with a feed dict enters 31 (fetch flattening, per-feed checks,
    output packing) around the same bound plan walk."""
    cf, x, w = _concrete_function()

    # -- legacy: one Session.run with a feed dict per call ---------------
    legacy_sess = fw.Session(cf.optimized_graph)
    feeds, fetches = cf._feeds, cf._output_fetches

    def run_legacy(n):
        for _ in range(n):
            legacy_sess.run(fetches, {feeds[0]: x, feeds[1]: w})

    # -- fast path: the bound plan ConcreteFunction dispatches through --
    args = [x, w]

    def run_fast(n):
        call = cf.call_flat
        for _ in range(n):
            call(args)

    fast_frames = _frames_entered(lambda: cf.call_flat(args))
    legacy_frames = _frames_entered(
        lambda: legacy_sess.run(fetches, {feeds[0]: x, feeds[1]: w}))
    assert len(fast_frames) == FAST_PATH_FRAMES, fast_frames
    assert len(legacy_frames) == LEGACY_FRAMES, legacy_frames

    # Warm both paths (plan compile, cache insertion) before timing.
    run_legacy(10)
    run_fast(10)

    # Interleaved rounds, best of each side: a machine's speed can drift
    # between two sequential timing blocks.
    legacy = fast = float("inf")
    for _ in range(2 * REPEATS):
        legacy = min(legacy, _best_per_call(run_legacy, CALLS // 2, 1))
        fast = min(fast, _best_per_call(run_fast, CALLS // 2, 1))
    speedup = legacy / fast

    results.record(TABLE, "legacy Session.run feed dict", "per-call us",
                   legacy * 1e6, unit="us")
    results.record(TABLE, "slot-addressed fast path", "per-call us",
                   fast * 1e6, unit="us")
    results.record(TABLE, "slot-addressed fast path", "speedup vs legacy",
                   speedup, unit="x")

    out = cf.call_flat(args)
    np.testing.assert_allclose(out.numpy(), [[2.0]])


def test_recorder_overhead_on_fast_path(results):
    """The observe instrumentation's bargain: the *disabled* recorder
    costs the fast path one dormant branch.

    Three rows land in ``BENCH_ci.json`` so a regression in either mode
    shows up per commit (the disabled row is directly comparable to the
    "slot-addressed fast path" row across commits — it *is* that path):

    - recorder disabled, before a tracing session;
    - recorder enabled (per-step/level/plan spans recording);
    - recorder disabled again *after* the tracing session.

    "Tracing leaves zero residue on the default path" is asserted
    structurally: once disabled and cleared, the recorder is off, its
    ring and counters are empty and stay empty, and the plan records a
    ``plan`` span on every traced call and on no other.  "One dormant
    branch" is counted: a disabled call enters no ``repro/observe/``
    frame and the same 14 frames before and after the tracing session,
    where a traced call enters the recorder's.  The three timings are
    measured in interleaved cycles, for the rows only.
    """
    import statistics

    from repro.observe.events import RECORDER

    CYCLES = 5

    cf, x, w = _concrete_function()
    args = [x, w]

    def plan_spans():
        return sum(event[2] == "plan" for event in RECORDER.events())

    def observe_frames(frames):
        return [f for f in frames
                if f"repro{os.sep}observe{os.sep}" in f[0]]

    def run(n):
        call = cf.call_flat
        for _ in range(n):
            call(args)

    def per_call():
        start = time.perf_counter()
        run(CALLS)
        return (time.perf_counter() - start) / CALLS

    assert not RECORDER.enabled
    run(10)
    frames_before = _frames_entered(lambda: cf.call_flat(args))
    before, enabled, after = [], [], []
    for _ in range(CYCLES):
        idle = plan_spans()
        before.append(per_call())
        assert plan_spans() == idle

        RECORDER.enable()
        try:
            enabled.append(per_call())
            traced_frames = _frames_entered(lambda: cf.call_flat(args))
        finally:
            RECORDER.disable()
            traced_runs = plan_spans() - idle
            RECORDER.clear()
            RECORDER.clear_counters()
        assert traced_runs == CALLS + 2

        after.append(per_call())
        assert not RECORDER.enabled and plan_spans() == 0
        assert len(RECORDER) == 0 and RECORDER.counters() == {}

    baseline, traced, disabled_after = (
        statistics.median(v) for v in (before, enabled, after))
    results.record(TABLE, "fast path, recorder disabled", "per-call us",
                   baseline * 1e6, unit="us")
    results.record(TABLE, "fast path, recorder enabled (tracing)",
                   "per-call us", traced * 1e6, unit="us")
    results.record(TABLE, "fast path, recorder enabled (tracing)",
                   "overhead vs disabled", traced / baseline, unit="x")
    results.record(TABLE, "fast path, disabled after tracing session",
                   "per-call us", disabled_after * 1e6, unit="us")

    frames_after = _frames_entered(lambda: cf.call_flat(args))
    assert observe_frames(traced_frames)
    for frames in (frames_before, frames_after):
        assert not observe_frames(frames), frames
        assert len(frames) == FAST_PATH_FRAMES, frames


def _frames_per_walk(plan, args):
    """Names of the Python frames one ``plan.walk(None)`` call and the
    walk it returns enter on ``args`` (the walk is emitted before
    counting)."""
    frames = _frames_entered(lambda: plan.walk(None)(args))
    return [name for _, name in frames[1:]]


def test_fused_chain_beats_unfused_chain(results):
    """The fusion story on Table 2's turf: a 10-op elementwise chain on
    a tiny tensor is pure per-step dispatch overhead, and the fuser
    groups it into ONE step, which the walk runs as one expression line.

    One trace, two plans of its optimized graph — the function's own
    (fused) bound plan and an unfused twin the benchmark compiles with
    ``compile_plan(..., fuse=False)`` and binds to the same feeds — run
    through the same ``execute_flat`` fast path; the only difference is
    1 step vs 10.  The claim is counted, not timed: the fused walk
    enters no Python frame besides the walk's own, where the unfused
    one enters the in-place guard of each of its nine armed steps.  The
    per-call rows land in ``BENCH_ci.json``.
    """
    def chain(x):
        from repro.framework import ops

        h = ops.square(x)              # 1
        h = ops.add(h, 1.0)            # 2
        h = ops.sqrt(h)                # 3
        h = ops.multiply(h, 0.5)       # 4
        h = ops.tanh(h)                # 5
        h = ops.add(h, 0.25)           # 6
        h = ops.multiply(h, 1.5)       # 7
        h = ops.negative(h)            # 8
        h = ops.exp(h)                 # 9
        return ops.multiply(h, 0.1)    # 10

    x = np.linspace(-1.0, 1.0, 16, dtype=np.float32)
    cf = repro.function(chain, name="dispatch_chain").get_concrete_function(x)
    fused = cf._bound
    unfused = BoundPlan(
        compile_plan(cf.optimized_graph, cf._run_fetches,
                     cf._runtime_feeds, fuse=False),
        cf._runtime_feeds)

    # The fused plan really is one step; the unfused, ten.
    stats = fused.describe()
    assert stats["steps"] == 1 and stats["fused_steps"] == 1
    assert unfused.describe()["steps"] == 10

    args = [x]
    np.testing.assert_array_equal(
        fused.execute_flat(args)[0], unfused.execute_flat(args)[0])

    frames = {name: _frames_per_walk(bound.plan, args)
              for name, bound in (("fused", fused), ("unfused", unfused))}
    assert frames["fused"] == ["walk", "walk"], frames
    assert frames["unfused"] == ["walk", "walk"] + ["_inplace"] * 9, frames

    def run_fused(n):
        call = fused.execute_flat
        for _ in range(n):
            call(args)

    def run_unfused(n):
        call = unfused.execute_flat
        for _ in range(n):
            call(args)

    run_fused(10)
    run_unfused(10)
    t_unfused = _best_per_call(run_unfused, CALLS, REPEATS)
    t_fused = _best_per_call(run_fused, CALLS, REPEATS)
    speedup = t_unfused / t_fused

    results.record(TABLE, "10-op elementwise chain, unfused",
                   "per-call us", t_unfused * 1e6, unit="us")
    results.record(TABLE, "10-op elementwise chain, fused",
                   "per-call us", t_fused * 1e6, unit="us")
    results.record(TABLE, "10-op elementwise chain, fused",
                   "speedup vs unfused", speedup, unit="x")


def test_microbatcher_dispatch_has_no_per_call_feed_dicts(results):
    """The batcher's worker path rides the same bound plan: one stacked
    execute per batch.  Per-call time here is dominated by queue
    hand-off (condition-variable wakeups), so the gate is a coarse
    ceiling that catches catastrophic dispatch regressions without
    being timing-flaky."""
    from repro.serving import MicroBatcher

    CEILING_SECONDS = 2e-3  # ~30-40x the typical ~60us observed

    @repro.function(name="dispatch_overhead_batched")
    def f(x):
        from repro.framework import ops

        return ops.matmul(x, np.full((1, 1), 2.0, np.float32))

    cf = f.get_concrete_function(repro.TensorSpec([None, 1], "float32"))
    calls = scaled(2000, 200)
    example = np.ones((1,), np.float32)
    with MicroBatcher(cf, max_batch_size=1) as batcher:
        start = time.perf_counter()
        for _ in range(calls):
            batcher.submit([example])
        per_call = (time.perf_counter() - start) / calls
    results.record(TABLE, "micro-batched (batch=1, incl. queueing)",
                   "per-call us", per_call * 1e6, unit="us")
    assert per_call < CEILING_SECONDS, (
        f"micro-batched dispatch took {per_call * 1e6:.0f}us/call "
        f"(ceiling {CEILING_SECONDS * 1e6:.0f}us) — the worker path has "
        "regressed far beyond queue-hand-off cost"
    )
