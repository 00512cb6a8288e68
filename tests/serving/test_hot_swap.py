"""Non-frozen artifacts, versioned serving, and hot-swap under traffic."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import framework as fw
from repro.framework import ops
from repro.serving import ModelServer, ServingClient, load, save
from repro.serving.client import ServingError

_COUNTER = [0]


def _uname(base):
    _COUNTER[0] += 1
    return f"{base}_{_COUNTER[0]}"


def _linear(backend, w0=2.0, b0=0.0):
    w = fw.Variable(np.full((3, 1), w0, np.float32), name=_uname("hs_w"))
    b = fw.Variable(np.full((1,), b0, np.float32), name=_uname("hs_b"))

    @repro.function(backend=backend)
    def predict(x):
        return ops.matmul(x, w.value()) + b.value()

    return predict, w, b


# ---------------------------------------------------------------------------
# Non-frozen save -> load round trips (call / swap / validation on every
# construction: tests/function/test_executable_contract.py)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["graph", "lantern"])
def test_nonfrozen_artifact_reexports(backend, tmp_path):
    predict, w, b = _linear(backend)
    spec = repro.TensorSpec([None, 3], "float32")
    save(predict, str(tmp_path / "a"), spec, freeze=False)
    first = load(str(tmp_path / "a"))
    save(first, str(tmp_path / "b"), freeze=False)
    second = load(str(tmp_path / "b"))
    assert (sorted(c.name for c in second.captures)
            == sorted(c.name for c in first.captures)
            == sorted([w.name, b.name]))
    x = np.ones((2, 3), np.float32)
    np.testing.assert_allclose(
        second.call_flat([x]).numpy(), first.call_flat([x]).numpy(),
        rtol=1e-6)


@settings(max_examples=15, deadline=None)
@given(
    data=st.data(),
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    backend=st.sampled_from(["graph", "lantern"]),
)
def test_nonfrozen_checkpoint_roundtrips_weights(
        data, rows, cols, backend, tmp_path_factory):
    """Hypothesis: save(freeze=False) -> load -> swap arbitrary weights
    computes exactly what the eager model would, both backends."""
    elements = st.floats(-2.0, 2.0, width=32)
    w0 = np.array(
        data.draw(st.lists(st.lists(elements, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows)),
        np.float32)
    w1 = np.array(
        data.draw(st.lists(st.lists(elements, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows)),
        np.float32)
    x = np.array(
        data.draw(st.lists(st.lists(elements, min_size=rows, max_size=rows),
                           min_size=2, max_size=2)),
        np.float32)

    var = fw.Variable(w0, name=_uname("hs_h"))

    @repro.function(backend=backend)
    def f(x):
        return ops.matmul(x, var.value())

    path = str(tmp_path_factory.mktemp("hs") / "m")
    save(f, path, repro.TensorSpec([None, rows], "float32"), freeze=False)
    loaded = load(path)
    np.testing.assert_allclose(
        loaded.call_flat([x]).numpy(), x @ w0, rtol=1e-4, atol=1e-5)
    loaded.set_capture_values({var.name: w1})
    np.testing.assert_allclose(
        loaded.call_flat([x]).numpy(), x @ w1, rtol=1e-4, atol=1e-5)
    # Round-trip the swapped state through another save/load.
    path2 = str(tmp_path_factory.mktemp("hs") / "m2")
    save(loaded, path2, freeze=False)
    np.testing.assert_allclose(
        load(path2).call_flat([x]).numpy(), x @ w1, rtol=1e-4, atol=1e-5)


# ---------------------------------------------------------------------------
# Versioned serving
# ---------------------------------------------------------------------------


def test_server_versions_activate_without_retrace(tmp_path):
    p1, w1, _ = _linear("graph", w0=2.0)
    p2, w2, _ = _linear("graph", w0=5.0)
    server = ModelServer()
    spec = repro.TensorSpec([None, 3], "float32")
    server.register("lin", p1, signature=(spec,), version="1")
    server.register("lin", p2, signature=(spec,), version="2")
    x = [1.0, 1.0, 1.0]
    with server, ServingClient(server.url) as client:
        reply = client.predict("lin", [x])
        assert reply["version"] == "1"
        np.testing.assert_allclose(reply["outputs"][0], [6.0], rtol=1e-6)
        swap = client.swap_weights("lin", version="2")
        assert swap["active_version"] == "2"
        reply = client.predict("lin", [x])
        assert reply["version"] == "2"
        np.testing.assert_allclose(reply["outputs"][0], [15.0], rtol=1e-6)
        models = client.list_models()["models"]["lin"]
        assert models["versions"] == ["1", "2"]
        assert models["active_version"] == "2"
    assert p1.trace_count == 1 and p2.trace_count == 1


def test_server_swap_weights_route(tmp_path):
    predict, w, b = _linear("graph")
    server = ModelServer()
    server.register(
        "lin", predict, signature=(repro.TensorSpec([None, 3], "float32"),))
    x = [1.0, 1.0, 1.0]
    with server, ServingClient(server.url) as client:
        np.testing.assert_allclose(
            client.predict("lin", [x])["outputs"][0],
            [6.0], rtol=1e-6)
        reply = client.swap_weights("lin",
            weights={w.name: [[1.0], [1.0], [1.0]],
                     b.name: [0.25]})
        assert reply["swapped"] == sorted([w.name, b.name])
        np.testing.assert_allclose(
            client.predict("lin", [x])["outputs"][0],
            [3.25], rtol=1e-6)
        with pytest.raises(ServingError) as bad:
            client.swap_weights("lin",
                                weights={"nope": [1.0]})
        assert bad.value.status == 400
        with pytest.raises(ServingError) as missing:
            client.swap_weights("lin", version="9")
        assert missing.value.status == 400
        with pytest.raises(ServingError) as nomodel:
            client.swap_weights("nope", version="1")
        assert nomodel.value.status == 404
    assert predict.trace_count == 1


def test_hot_swap_atomic_under_concurrent_requests():
    """Hammer predict from many threads while weights swap; every reply
    must be a *consistent* (w, b) pair — never a half-applied swap."""
    predict, w, b = _linear("graph", w0=2.0, b0=10.0)
    cf = predict.get_concrete_function(
        repro.TensorSpec([None, 3], "float32"))
    server = ModelServer()
    server.register("lin", cf, batcher={"max_batch_size": 4})
    states = {3 * 2.0 + 10.0: "A", 3 * 5.0 + 100.0: "B"}  # 16 or 115
    x = [1.0, 1.0, 1.0]
    bad, seen = [], set()
    stop = threading.Event()

    def hammer():
        while not stop.is_set():
            out = client.predict("lin", [x])["outputs"][0][0]
            if abs(out - 16.0) > 1e-4 and abs(out - 115.0) > 1e-4:
                bad.append(out)
            else:
                seen.add(states[round(out, 4)])

    with server, ServingClient(server.url) as client:
        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for i in range(30):
            if i % 2:
                cf.set_capture_values({
                    w.name: np.full((3, 1), 2.0, np.float32),
                    b.name: np.array([10.0], np.float32)})
            else:
                cf.set_capture_values({
                    w.name: np.full((3, 1), 5.0, np.float32),
                    b.name: np.array([100.0], np.float32)})
        stop.set()
        for t in threads:
            t.join()
    assert not bad, f"inconsistent (w, b) mixes observed: {bad[:5]}"
    assert seen  # traffic actually flowed
    assert predict.trace_count == 1


def test_versioned_loaded_artifacts_side_by_side(tmp_path):
    predict, w, _ = _linear("graph", w0=1.0)
    spec = repro.TensorSpec([None, 3], "float32")
    save(predict, str(tmp_path / "v1"), spec, freeze=False)
    w.assign(np.full((3, 1), 4.0, np.float32))
    save(predict, str(tmp_path / "v2"), spec, freeze=False)
    server = ModelServer()
    server.register("lin", load(str(tmp_path / "v1")), version="v1")
    server.register("lin", load(str(tmp_path / "v2")), version="v2",
                    activate=True)
    x = [1.0, 1.0, 1.0]
    with server, ServingClient(server.url) as client:
        reply = client.predict("lin", [x])
        assert reply["version"] == "v2"
        np.testing.assert_allclose(reply["outputs"][0], [12.0], rtol=1e-6)
        client.swap_weights("lin", version="v1")
        np.testing.assert_allclose(
            client.predict("lin", [x])["outputs"][0],
            [3.0], rtol=1e-6)


def test_add_version_validates():
    predict, _, _ = _linear("graph")
    other = _linear("graph")[0]
    server = ModelServer()
    spec = repro.TensorSpec([None, 3], "float32")
    server.register("lin", predict, signature=(spec,))
    with pytest.raises(ValueError, match="already has a version"):
        server.register("lin", other, signature=(spec,), version="1")

    @repro.function
    def two_args(a, b):
        return a + b

    with pytest.raises(ValueError, match="arguments"):
        server.register(
            "lin", two_args, version="2",
            signature=(repro.TensorSpec([2], "float32"),
                       repro.TensorSpec([2], "float32")))


# ---------------------------------------------------------------------------
# GET /v1/models reporting
# ---------------------------------------------------------------------------


def test_models_report_latency_stats():
    predict, _, _ = _linear("graph")
    server = ModelServer()
    server.register(
        "lin", predict, signature=(repro.TensorSpec([None, 3], "float32"),))
    with server, ServingClient(server.url) as client:
        for _ in range(5):
            client.predict("lin", [[1.0, 1.0, 1.0]])
        info = client.list_models()["models"]["lin"]
    assert info["requests"] == 5
    latency = info["latency"]
    assert latency["count"] == 5
    assert latency["mean_ms"] > 0
    assert 0 < latency["p50_ms"] <= latency["p99_ms"]
    assert info["batch_stats"]["rejected"] == 0
