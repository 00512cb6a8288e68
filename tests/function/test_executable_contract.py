"""The ``Executable`` contract, one harness: both backends, live and
loaded, behave the same behind the protocol.

Eight constructions of one ``matmul(x, w) + b`` model — {graph, lantern}
x {the live trace, ``load(save(freeze=True))``, ``load(save(freeze=False))``,
the non-frozen artifact saved and loaded once more} — go through the
same checks.
"""

import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro import framework as fw
from repro.framework import ops
from repro.framework.errors import FetchError, FrameworkError
from repro.framework.graph.func_graph import ExternalCapture
from repro.function import Executable
from repro.serving import load, save

BACKENDS = ("graph", "lantern")
KINDS = ("live", "frozen", "nonfrozen", "reexported")
W0 = np.array([[1.0, -2.0], [0.5, 3.0], [2.0, 0.25]], np.float32)
B0 = np.array([0.5, -1.0], np.float32)
X = np.array([[1.0, 2.0, 3.0], [-1.0, 0.5, 4.0]], np.float32)

_COUNTER = [0]


class Construction:
    """One executable under test, next to the live trace it came from."""

    def __init__(self, backend, kind, tmp_path):
        _COUNTER[0] += 1
        self.backend, self.kind = backend, kind
        self.w = fw.Variable(W0, name=f"contract_w_{_COUNTER[0]}")
        self.b = fw.Variable(B0, name=f"contract_b_{_COUNTER[0]}")
        w, b = self.w, self.b

        @repro.function(backend=backend)
        def model(x):
            return ops.matmul(x, w.value()) + b.value()

        self.live = model.get_concrete_function(
            repro.TensorSpec([None, 3], "float32"))
        self.exe = self.live
        if kind != "live":
            path = str(tmp_path / "a")
            save(self.live, path, freeze=kind == "frozen")
            self.exe = load(path)
        if kind == "reexported":
            again = str(tmp_path / "b")
            save(self.exe, again, freeze=False)
            self.exe = load(again)
        self.has_captures = kind != "frozen"

    def y(self, x=X):
        return self.exe.call_flat([x]).numpy()


@pytest.fixture(params=[(b, k) for b in BACKENDS for k in KINDS],
                ids=lambda p: "-".join(p))
def c(request, tmp_path):
    return Construction(*request.param, tmp_path)


# ---------------------------------------------------------------------------
# The surface
# ---------------------------------------------------------------------------


def test_protocol_surface(c):
    exe = c.exe
    assert isinstance(exe, Executable)
    assert exe.backend == c.backend
    # load() hands back the class the trace is built on.
    assert isinstance(c.live, type(exe))
    assert exe.signature == c.live.signature
    (spec,) = exe.signature
    assert spec.dtype.name == "float32"
    assert exe.variables == [] or c.kind == "live"
    exported = exe.export_spec()
    assert exported.backend == c.backend
    assert exported.output_template == [("t", 0)]
    assert exe.export_compatibility() == (True, "")
    stats = exe.engine_stats()
    assert isinstance(stats, dict)
    if c.backend == "graph":
        assert stats["bound_plan"]["args"] == 1 + len(exe.captures)
    assert isinstance(exe.plan_describe(), str)


def test_call_flat_is_bitwise_the_live_result(c):
    expected = c.live.call_flat([X]).numpy()
    np.testing.assert_allclose(expected, X @ W0 + B0, rtol=1e-6)
    got = c.y()
    assert got.dtype == expected.dtype == np.float32
    assert got.tobytes() == expected.tobytes()
    # __call__ on positional values is the same flat path.
    assert c.exe(X).numpy().tobytes() == expected.tobytes()


def test_captures_are_named_external_captures(c):
    captures = c.exe.captures
    assert all(type(entry) is ExternalCapture for entry in captures)
    names = [entry.name for entry in captures]
    if c.has_captures:
        assert sorted(names) == sorted([c.w.name, c.b.name])
    else:
        assert names == []
    assert sorted(c.exe.capture_values()) == sorted(names)
    assert [n for n, _, _ in c.exe.capture_specs()] == names


# ---------------------------------------------------------------------------
# Hot swap
# ---------------------------------------------------------------------------


def test_set_capture_values_is_visible_on_the_next_call_and_casts(c):
    if not c.has_captures:
        # Frozen: nothing to swap, and saying so is not an error.
        c.exe.set_capture_values({})
        assert c.exe.capture_values() == {}
        return
    c.y()
    # float64 nested lists: cast to the capture's own dtype.
    c.exe.set_capture_values({
        c.w.name: (W0.astype(np.float64) * 2).tolist(),
        c.b.name: [0.25, 0.75]})
    np.testing.assert_allclose(
        c.y(), X @ (W0 * 2) + np.array([0.25, 0.75], np.float32), rtol=1e-6)
    values = c.exe.capture_values()
    assert values[c.w.name].dtype == values[c.b.name].dtype == np.float32
    if c.kind == "live":
        # The swap wrote through to the source variables.
        np.testing.assert_array_equal(c.w.numpy(), W0 * 2)
    else:
        # The exporting process's variables are untouched.
        np.testing.assert_array_equal(c.w.numpy(), W0)


def test_set_capture_values_validates_every_entry_before_writing(c):
    with pytest.raises(KeyError, match="no capture"):
        c.exe.set_capture_values({"nope": np.zeros(1, np.float32)})
    if not c.has_captures:
        return
    before = c.y()
    with pytest.raises(ValueError, match="shape"):
        c.exe.set_capture_values({
            c.b.name: np.ones(2, np.float32),        # valid ...
            c.w.name: np.zeros((7, 7), np.float32)})  # ... invalid
    assert c.y().tobytes() == before.tobytes()
    np.testing.assert_array_equal(c.exe.capture_values()[c.b.name], B0)


def test_set_capture_state_rebinds_without_copying(c):
    specs = c.exe.capture_specs()
    if not c.has_captures:
        assert specs == []
        c.exe.set_capture_state([])
        with pytest.raises(ValueError, match="captures"):
            c.exe.set_capture_state([np.zeros(1, np.float32)])
        return
    # Read-only views, as the fleet's shared-memory store hands out.
    fresh = {c.w.name: W0 * 3, c.b.name: B0 + 1}
    views = []
    for name, np_dtype, dims in specs:
        assert np_dtype == np.float32 and dims == fresh[name].shape
        view = fresh[name].view()
        view.flags.writeable = False
        views.append(view)
    c.exe.set_capture_state(views)
    values = c.exe.capture_values()
    for (name, _, _), view in zip(specs, views):
        assert np.shares_memory(values[name], view)
        assert not values[name].flags.writeable
    np.testing.assert_allclose(c.y(), X @ (W0 * 3) + B0 + 1, rtol=1e-6)
    # A cast would copy every weight once per worker: refused.
    with pytest.raises(ValueError, match="dtype"):
        c.exe.set_capture_state([v.astype(np.float64) for v in views])
    with pytest.raises(ValueError, match="captures"):
        c.exe.set_capture_state(views[:1])
    np.testing.assert_allclose(c.y(), X @ (W0 * 3) + B0 + 1, rtol=1e-6)


# ---------------------------------------------------------------------------
# One typed error for a bad runtime argument
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [
    pytest.param([X, X], id="arity"),
    pytest.param([], id="arity-none"),
    pytest.param([X[0]], id="rank"),
    pytest.param([np.ones((2, 4), np.float32)], id="static-dim"),
    pytest.param([[["a", "b", "c"]]], id="uncastable"),
])
def test_bad_runtime_argument_raises_fetch_error(c, bad):
    with pytest.raises(FetchError) as info:
        c.exe.call_flat(bad)
    assert isinstance(info.value, FrameworkError)  # -> HTTP 400
    if len(bad) != 1:
        # Names the executable and its *declared* count, captures apart.
        assert f"{c.exe.name!r} takes 1 argument" in str(info.value)
    c.y()  # still serving


def test_float64_input_comes_back_float32(c):
    got = c.exe.call_flat([X.astype(np.float64)]).numpy()
    assert got.dtype == np.float32
    assert got.tobytes() == c.y().tobytes()


def test_keywords_need_the_python_signature(c):
    if c.kind == "live":
        assert c.exe(x=X).numpy().tobytes() == c.y().tobytes()
    else:
        with pytest.raises(FetchError, match="positionally"):
            c.exe(x=X)


# ---------------------------------------------------------------------------
# Graph: a swap is whole-tuple atomic under in-flight calls
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["live", "nonfrozen"])
def test_graph_swaps_never_mix_generations(kind, tmp_path):
    c = Construction("graph", kind, tmp_path)
    generations = [
        {c.w.name: np.full((3, 2), 2.0, np.float32),
         c.b.name: np.full((2,), 10.0, np.float32)},
        {c.w.name: np.full((3, 2), 5.0, np.float32),
         c.b.name: np.full((2,), 100.0, np.float32)},
    ]
    c.exe.set_capture_values(generations[0])
    x = np.ones((1, 3), np.float32)
    allowed = {16.0, 115.0}  # 3*2+10, 3*5+100; a mix gives 106 or 25
    mixed, calls = [], [0]
    stop = threading.Event()

    def caller():
        while not stop.is_set():
            out = float(c.exe.call_flat([x]).numpy()[0, 0])
            calls[0] += 1
            if out not in allowed:
                mixed.append(out)

    def swapper(offset):
        i = offset
        while not stop.is_set():
            c.exe.set_capture_values(generations[i % 2])
            i += 1

    threads = ([threading.Thread(target=caller) for _ in range(4)]
               + [threading.Thread(target=swapper, args=(i,))
                  for i in range(2)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        time.sleep(0.5)
    finally:
        stop.set()
        for t in threads:
            t.join(10.0)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not mixed, f"mixed (w, b) generations observed: {mixed[:5]}"
    assert calls[0] > 0
