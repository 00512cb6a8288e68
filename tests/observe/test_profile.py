"""``repro.observe.profile()`` and ``Timeline``: enable/restore
semantics, nesting/self-time invariants, and the cross-layer acceptance
path — a profiled blocked ``@repro.function`` call whose per-step spans
cover every executed plan step."""

import numpy as np

import repro
import repro.observe as observe
from repro.blocks import BlockArray, BlockGrid
from repro.framework import ops
from repro.observe.events import RECORDER, Recorder
from repro.observe.profile import Timeline


def _ints(shape, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return rng.integers(-4, 5, size=shape).astype(dtype)


GRID = BlockGrid.regular((8, 6), (4, 3))


class TestProfileContext:
    def test_enables_then_restores_disabled(self):
        rec = Recorder()
        assert not rec.enabled
        with observe.profile(recorder=rec):
            assert rec.enabled
        assert not rec.enabled

    def test_restores_enabled_when_nested(self):
        rec = Recorder()
        rec.enable()
        with observe.profile(recorder=rec):
            with observe.profile(recorder=rec):
                assert rec.enabled
            assert rec.enabled
        assert rec.enabled

    def test_only_in_block_events_are_captured(self):
        rec = Recorder()
        rec.enable()
        rec.instant("before")
        with observe.profile(recorder=rec) as timeline:
            rec.instant("inside")
        assert [e[1] for e in timeline.events] == ["inside"]

    def test_counter_deltas_not_totals(self):
        rec = Recorder()
        rec.counter("n", 10)
        with observe.profile(recorder=rec) as timeline:
            rec.counter("n", 3)
            rec.counter("untouched_before", 2)
        assert timeline.counters == {"n": 3, "untouched_before": 2}

    def test_default_recorder_is_the_global_one(self):
        with observe.profile() as timeline:
            RECORDER.instant("global-hit")
        assert not RECORDER.enabled
        assert any(e[1] == "global-hit" for e in timeline.events)


class TestTimelineQueries:
    # Hand-built event stream: outer [0, 1.0] contains a [0.2, 0.5]
    # child which contains a [0.3, 0.1] grandchild; a second thread has
    # one independent span.
    EVENTS = [
        ("X", "outer", "plan", 0.0, 1.0, 1, 7, None),
        ("X", "child", "level", 0.2, 0.5, 1, 7, None),
        ("X", "grand", "step", 0.3, 0.1, 1, 7, None),
        ("X", "other", "step", 0.0, 0.2, 2, 7, None),
        ("i", "tick", "misc", 0.4, 0.0, 1, 7, None),
    ]

    def test_spans_excludes_instants(self):
        tl = Timeline(self.EVENTS)
        assert [s.name for s in tl.spans] == ["outer", "child", "grand",
                                              "other"]

    def test_query_by_name_and_cat(self):
        tl = Timeline(self.EVENTS)
        assert [s.name for s in tl.query(cat="step")] == ["grand", "other"]
        assert [s.name for s in tl.query(name="child")] == ["child"]
        assert tl.query(name="child", cat="step") == []

    def test_total_time(self):
        tl = Timeline(self.EVENTS)
        assert abs(tl.total_time(cat="step") - 0.3) < 1e-12
        assert abs(tl.total_time(name="outer") - 1.0) < 1e-12

    def test_self_times_subtract_nested_children(self):
        tl = Timeline(self.EVENTS)
        by_name = {s.name: self_s for s, self_s in tl.self_times()}
        # outer contains child (0.5) directly; grand is inside child so
        # it must NOT be double-subtracted from outer.
        assert abs(by_name["outer"] - 0.5) < 1e-12
        assert abs(by_name["child"] - 0.4) < 1e-12
        assert abs(by_name["grand"] - 0.1) < 1e-12
        # The other thread's span has no same-thread parent.
        assert abs(by_name["other"] - 0.2) < 1e-12

    def test_self_times_total_conservation(self):
        # Sum of self times == sum of root-span durations, per thread.
        tl = Timeline(self.EVENTS)
        total_self = sum(self_s for _s, self_s in tl.self_times())
        assert abs(total_self - (1.0 + 0.2)) < 1e-12

    def test_top_kernels_ranked_by_total(self):
        events = [
            ("X", "MatMul", "step", 0.0, 0.4, 1, 1, None),
            ("X", "MatMul", "step", 1.0, 0.4, 1, 1, None),
            ("X", "Add", "step", 2.0, 0.5, 1, 1, None),
            ("X", "plan.execute", "plan", 0.0, 3.0, 1, 1, None),
        ]
        tl = Timeline(events)
        assert tl.top_kernels() == [("MatMul", 0.8, 2), ("Add", 0.5, 1)]
        assert tl.top_kernels(k=1) == [("MatMul", 0.8, 2)]

    def test_repr_and_len(self):
        tl = Timeline(self.EVENTS)
        assert len(tl) == 5
        assert "spans=4" in repr(tl)


class TestProfiledExecution:
    """The ISSUE acceptance path: profile a parallel blocked function
    call and check per-step spans cover every executed plan step."""

    def test_blocked_function_steps_are_covered(self):
        def body(a, b):
            return ops.reduce_sum(ops.relu(ops.matmul(a, b)), axis=1)

        fn = repro.function(body, num_workers=4)
        x, w = _ints((8, 6)), _ints((6, 4), seed=1)
        xb = BlockArray.from_dense(x, grid=GRID)
        fn(xb, w)  # trace + first run outside the profile

        with observe.profile() as timeline:
            result = fn(xb, w)
        np.testing.assert_array_equal(
            np.asarray(result), np.asarray(body(x, w)))

        # Recover the executed plan: the blocked concrete function's
        # bound plan knows exactly which steps ran.
        concrete = fn._cache[next(iter(fn._cache))]
        plan = concrete._bound.plan
        executed = [step[4] for step in plan.steps]
        assert executed, "expected a lowered multi-step plan"

        step_spans = timeline.query(cat="step")
        recorded = {}
        for s in step_spans:
            recorded[s.name] = recorded.get(s.name, 0) + 1
        # Coverage: every executed plan step appears as a span, at least
        # as many times as the plan lists it.
        want = {}
        for name in executed:
            want[name] = want.get(name, 0) + 1
        for name, count in want.items():
            assert recorded.get(name, 0) >= count, (
                f"step {name!r} ran {count}x but was recorded "
                f"{recorded.get(name, 0)}x")

        # The level spans and the whole-plan span frame the steps.
        assert timeline.query(cat="level")
        plan_spans = timeline.query(name="plan.execute")
        assert plan_spans
        total_step = timeline.total_time(cat="step")
        assert total_step <= sum(s.duration for s in plan_spans) + 1e-6

        # The parallel scheduler's worker spans rode along.
        assert timeline.query(name="block_task", cat="block")

        # And the function layer classified this as a cache hit.
        assert timeline.counters.get("function.cache_hits", 0) >= 1

    def test_chrome_trace_export_from_real_run(self, tmp_path):
        @repro.function
        def f(a, b):
            return ops.matmul(a, b)

        x, w = _ints((8, 6)), _ints((6, 4), seed=1)
        with observe.profile() as timeline:
            f(x, w)
        doc = timeline.chrome_trace()
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "X" in phases and "M" in phases
        path = timeline.save_chrome_trace(tmp_path / "trace.json")
        import json

        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        assert loaded["traceEvents"]

    def test_disabled_recorder_records_nothing_during_run(self):
        @repro.function
        def g(a):
            return ops.add(a, 1.0)

        x = _ints((8, 6))
        g(x)
        RECORDER.clear()
        before = len(RECORDER)
        g(x)
        # Counters tick (always-live), but no events land in the ring.
        assert len(RECORDER) == before


class TestStagedLoopSpans:
    """A ``While`` body is an engine plan like any other, so profiling
    sees inside it: the body's ops are step spans nested in the While
    step's span."""

    @staticmethod
    def _loop_function():
        def loop(x, n):
            i = np.int32(0)
            while i < n:
                x = ops.matmul(ops.tanh(x), x)
                i = i + 1
            return x

        fn = repro.function(loop)
        x, n = _ints((4, 4)) / 8, np.int32(3)
        fn(x, n)  # trace, compile and first run outside any profile
        return fn, x, n

    def test_body_steps_nest_inside_the_while_step(self):
        fn, x, n = self._loop_function()
        with observe.profile() as timeline:
            fn(x, n)

        steps = timeline.query(cat="step")
        while_span, = [s for s in steps if "while" in s.name]

        def inside(s):
            return (s.tid == while_span.tid
                    and while_span.start <= s.start
                    and s.start + s.duration
                    <= while_span.start + while_span.duration)

        # One plan.execute per sub-graph run: the condition four times
        # (three passes and the exit test), the body three times.
        runs = [s for s in timeline.query(name="plan.execute") if inside(s)]
        assert len(runs) == 4 + 3
        nested = [s.name for s in steps if s is not while_span and inside(s)]
        assert nested.count("Less") == 4
        assert nested.count("Tanh") == 3
        assert nested.count("MatMul") == 3
        # Every nested step sits inside one of those sub-graph runs.
        assert len(nested) == sum(s.args["steps"] for s in runs)

    def test_recorder_off_takes_the_untraced_loop(self, monkeypatch):
        from repro.runtime import ExecutionPlan

        fn, x, n = self._loop_function()

        def boom(*args, **kwargs):
            raise AssertionError("tracing path taken with the recorder off")

        monkeypatch.setattr(ExecutionPlan, "_execute_traced", boom)
        for emit in ("span", "begin", "end", "instant"):
            monkeypatch.setattr(Recorder, emit, boom)
        assert not RECORDER.enabled
        before = len(RECORDER)
        want = np.asarray(x)
        for _ in range(3):
            want = np.tanh(want) @ want
        np.testing.assert_allclose(np.asarray(fn(x, n)), want, rtol=1e-5)
        assert len(RECORDER) == before
