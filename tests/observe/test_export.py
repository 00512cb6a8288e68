"""Chrome-trace export: schema validity over arbitrary event streams
(hypothesis), metadata/counter emission, and the flat stats summary."""

import json

from hypothesis import given
from hypothesis import strategies as st

from repro.observe.export import chrome_trace, save_chrome_trace, stats_summary


_names = st.text(
    st.characters(codec="ascii", categories=("L", "N")), min_size=1,
    max_size=12)
_times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                   allow_infinity=False)
_ids = st.integers(min_value=1, max_value=1 << 20)


@st.composite
def _event(draw):
    phase = draw(st.sampled_from(["X", "i", "C"]))
    name = draw(_names)
    cat = draw(st.one_of(st.none(), _names))
    start = draw(_times)
    if phase == "X":
        value = draw(st.floats(min_value=0.0, max_value=10.0,
                               allow_nan=False))
    elif phase == "C":
        value = draw(st.integers(min_value=0, max_value=1 << 30))
    else:
        value = 0.0
    tid = draw(_ids)
    pid = draw(_ids)
    args = draw(st.one_of(
        st.none(),
        st.dictionaries(_names, st.one_of(st.integers(), _names),
                        max_size=3)))
    return (phase, name, cat, start, value, tid, pid, args)


def _validate_trace_event(entry):
    """The subset of the trace-event schema Perfetto actually requires."""
    assert isinstance(entry, dict)
    assert isinstance(entry["name"], str) and entry["name"]
    assert entry["ph"] in ("X", "i", "C", "M")
    assert isinstance(entry["pid"], int)
    assert isinstance(entry["tid"], int)
    if entry["ph"] != "M":
        assert isinstance(entry["ts"], (int, float))
        assert entry["ts"] >= 0  # rebased to the earliest event
    if entry["ph"] == "X":
        assert isinstance(entry["dur"], (int, float))
        assert entry["dur"] >= 0
    if entry["ph"] == "i":
        assert entry["s"] in ("t", "p", "g")
    if entry["ph"] == "C":
        assert "value" in entry["args"]
    if entry["ph"] == "M":
        assert entry["name"] in ("process_name", "thread_name")
        assert isinstance(entry["args"]["name"], str)


class TestChromeTraceSchema:
    @given(st.lists(_event(), max_size=40))
    def test_round_trips_through_json_and_validates(self, events):
        doc = chrome_trace(events)
        # Must survive a real JSON round-trip — the file format is the
        # contract with chrome://tracing / Perfetto.
        doc = json.loads(json.dumps(doc))
        assert doc["displayTimeUnit"] == "ms"
        for entry in doc["traceEvents"]:
            _validate_trace_event(entry)
        # Every input event survives as a non-metadata entry.
        payload = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        assert len(payload) == len(events)

    @given(st.lists(_event(), min_size=1, max_size=40))
    def test_relative_spacing_is_preserved(self, events):
        doc = chrome_trace(events)
        payload = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        starts = sorted(e[3] for e in events)
        ts = sorted(e["ts"] for e in payload)
        t_zero = starts[0]
        for original, rebased in zip(starts, ts):
            assert abs((original - t_zero) * 1e6 - rebased) < 0.51

    @given(st.lists(_event(), min_size=1, max_size=40))
    def test_every_pid_and_tid_is_labelled(self, events):
        doc = chrome_trace(events)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        named_pids = {e["pid"] for e in meta if e["name"] == "process_name"}
        named_tids = {(e["pid"], e["tid"]) for e in meta
                      if e["name"] == "thread_name"}
        assert {e[6] for e in events} <= named_pids
        assert {(e[6], e[5]) for e in events} <= named_tids


class TestChromeTraceDetails:
    EVENTS = [
        ("X", "step_a", "step", 10.0, 0.5, 111, 42, {"slot": 3}),
        ("i", "swap", "serving", 10.2, 0.0, 111, 42, None),
        ("X", "step_b", "step", 10.6, 0.25, 222, 42, None),
    ]

    def test_process_names_override_labels(self):
        doc = chrome_trace(self.EVENTS, process_names={42: "worker-0"})
        (proc,) = [e for e in doc["traceEvents"]
                   if e["ph"] == "M" and e["name"] == "process_name"]
        assert proc["args"]["name"] == "worker-0"

    def test_user_args_merge_into_entry(self):
        doc = chrome_trace(self.EVENTS)
        (step_a,) = [e for e in doc["traceEvents"] if e["name"] == "step_a"]
        assert step_a["args"]["slot"] == 3

    def test_final_counters_land_at_trace_end(self):
        doc = chrome_trace(self.EVENTS, counters={"requests": 9})
        (sample,) = [e for e in doc["traceEvents"] if e["name"] == "requests"]
        assert sample["ph"] == "C"
        assert sample["args"]["value"] == 9
        # At or after the end of the latest span: step_b ends at
        # (10.6 - 10.0 + 0.25)s = 850_000 us after rebase.
        assert sample["ts"] >= 850_000 - 1

    def test_empty_events_still_valid(self):
        doc = chrome_trace([])
        assert doc["traceEvents"] == []
        assert json.loads(json.dumps(doc)) == doc

    def test_save_chrome_trace_writes_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        out = save_chrome_trace(path, self.EVENTS, counters={"n": 1})
        assert out == path
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        for entry in doc["traceEvents"]:
            _validate_trace_event(entry)


class TestStatsSummary:
    def test_aggregates_spans_only(self):
        events = [
            ("X", "MatMul", "step", 0.0, 0.5, 1, 1, None),
            ("X", "MatMul", "step", 1.0, 0.3, 1, 1, None),
            ("X", "Add", "step", 2.0, 0.1, 1, 1, None),
            ("i", "MatMul", "step", 3.0, 0.0, 1, 1, None),
            ("C", "requests", None, 4.0, 7, 1, 1, None),
        ]
        summary = stats_summary(events)
        assert set(summary) == {"MatMul", "Add"}
        mm = summary["MatMul"]
        assert mm["count"] == 2
        assert abs(mm["total_s"] - 0.8) < 1e-12
        assert abs(mm["mean_s"] - 0.4) < 1e-12
        assert mm["max_s"] == 0.5

    def test_empty(self):
        assert stats_summary([]) == {}
