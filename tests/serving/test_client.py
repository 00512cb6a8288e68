"""The serving API: register(), the error envelope, the ServingClient
(typed errors, retries, wire negotiation, persistent connections)."""

import threading
import time

import numpy as np
import pytest

import repro
from repro import framework as fw
from repro.framework import ops
from repro.serving import ModelServer, client, save
from repro.serving.batching import QueueFullError as ServerQueueFull
from repro.serving.client import (ActiveVersionError,
                                  QueueFullError as ClientQueueFull,
                                  ServingClient, ServingError,
                                  UnknownModelError)

_COUNTER = [0]


def _uname(base):
    _COUNTER[0] += 1
    return f"{base}_{_COUNTER[0]}"


def _linear(w0=2.0, b0=0.0):
    w = fw.Variable(np.full((3, 1), w0, np.float32), name=_uname("cl_w"))
    b = fw.Variable(np.full((1,), b0, np.float32), name=_uname("cl_b"))

    @repro.function(backend="graph")
    def predict(x):
        return ops.matmul(x, w.value()) + b.value()

    return predict, w, b


_SPEC = repro.TensorSpec([None, 3], "float32")
_X = [[1.0, 1.0, 1.0]]


# ---------------------------------------------------------------------------
# register(): the unified entry point
# ---------------------------------------------------------------------------


def test_register_function_executable_and_path(tmp_path):
    predict, _, _ = _linear()
    server = ModelServer()
    # A polymorphic Function, signature selected explicitly.
    server.register("fn", predict, signature=(_SPEC,))
    # An already-concrete Executable.
    server.register("cf", predict.get_concrete_function(_SPEC))
    # A saved artifact path.
    path = str(tmp_path / "m")
    save(predict, path, _SPEC, freeze=False)
    server.register("art", path)
    with server:
        c = ServingClient(server.url)
        for name in ("fn", "cf", "art"):
            out = np.asarray(c.predict(name, _X)["outputs"][0])
            np.testing.assert_allclose(out, [6.0], rtol=1e-6)


def test_register_versions_and_activate():
    v1, _, _ = _linear(2.0)
    v2, _, _ = _linear(5.0)
    server = ModelServer()
    server.register("lin", v1, signature=(_SPEC,))
    server.register("lin", v2, signature=(_SPEC,), version="2")
    with server:
        c = ServingClient(server.url)
        # Version 1 stays active until explicitly activated.
        assert c.predict("lin", _X)["version"] == "1"
        c.swap_weights("lin", version="2")
        reply = c.predict("lin", _X)
        assert reply["version"] == "2"
        np.testing.assert_allclose(
            np.asarray(reply["outputs"][0]), [15.0], rtol=1e-6)
    # activate=True takes traffic immediately.
    server2 = ModelServer()
    server2.register("lin", v1, signature=(_SPEC,))
    server2.register("lin", v2, signature=(_SPEC,), version="2",
                     activate=True)
    with server2:
        assert ServingClient(server2.url).predict("lin", _X)["version"] == "2"


def test_register_batcher_options():
    predict, _, _ = _linear()
    server = ModelServer()
    server.register("unbatched", predict, signature=(_SPEC,), batcher=False)
    server.register("tuned", predict, signature=(_SPEC,),
                    batcher={"max_batch_size": 4, "max_queue": 8})
    with pytest.raises(TypeError, match="Unknown batcher option"):
        server.register("bad", predict, signature=(_SPEC,),
                        batcher={"nope": 1})
    with pytest.raises(TypeError, match="batcher must be"):
        server.register("bad", predict, signature=(_SPEC,), batcher=7)
    with server:
        c = ServingClient(server.url)
        info = c.list_models()["models"]
        assert info["unbatched"]["batching"] is False
        assert info["tuned"]["batching"] is True
        # Unbatched predicts carry the batch axis themselves.
        out = c.predict("unbatched", [_X])["outputs"][0]
        np.testing.assert_allclose(np.asarray(out), [[6.0]], rtol=1e-6)
        plan = c.list_models()["models"]["unbatched"]["engine"]["bound_plan"]
        assert plan["inplace_steps"] in range(plan["steps"] + 1)


def test_register_path_refuses_signature(tmp_path):
    predict, _, _ = _linear()
    path = str(tmp_path / "m")
    save(predict, path, _SPEC, freeze=False)
    server = ModelServer()
    with pytest.raises(TypeError, match="no signature"):
        server.register("art", path, signature=(_SPEC,))


def test_register_is_the_only_registration_surface():
    # The add_signature / add_version shims and the module-level client
    # functions were deleted, not deprecated further.
    assert not hasattr(ModelServer, "add_signature")
    assert not hasattr(ModelServer, "add_version")
    for name in ("predict", "list_models", "swap_weights", "remove_version"):
        assert not hasattr(client, name)


# ---------------------------------------------------------------------------
# The error envelope and its typed client exceptions
# ---------------------------------------------------------------------------


@pytest.fixture()
def running_server():
    predict, w, _ = _linear()
    server = ModelServer()
    server.register("lin", predict, signature=(_SPEC,))
    server.weight_name = w.name  # for the swap tests
    with server:
        yield server


def test_unknown_model_maps_to_typed_404(running_server):
    c = ServingClient(running_server.url)
    with pytest.raises(UnknownModelError) as info:
        c.predict("nope", _X)
    assert info.value.status == 404
    assert info.value.code == "not_found"
    with pytest.raises(UnknownModelError):
        c.describe("nope")
    with pytest.raises(UnknownModelError):
        c.swap_weights("nope", version="1")
    with pytest.raises(UnknownModelError):
        c.remove_version("nope", "1")
    with pytest.raises(UnknownModelError):
        c.set_canary("nope", "1", 0.5)


def test_bad_request_maps_to_400(running_server):
    c = ServingClient(running_server.url)
    with pytest.raises(ServingError) as info:
        c.predict("lin", [[1.0]] * 2)  # wrong arity
    assert info.value.status == 400
    assert info.value.code == "bad_request"
    with pytest.raises(ServingError) as info:
        c.swap_weights("lin", version="nope")
    assert info.value.status == 400
    with pytest.raises(ServingError) as info:
        c.set_canary("lin", "1", 1.5)
    assert info.value.status == 400


def test_active_version_maps_to_409(running_server):
    c = ServingClient(running_server.url)
    with pytest.raises(ActiveVersionError) as info:
        c.remove_version("lin", "1")
    assert info.value.status == 409
    assert info.value.code == "active_version"


def test_queue_full_maps_to_503_with_retry_after(running_server,
                                                 monkeypatch):
    def shed(name, body, priority=None):
        raise ServerQueueFull("worker is saturated")

    monkeypatch.setattr(running_server, "_predict", shed)
    c = ServingClient(running_server.url)
    with pytest.raises(ClientQueueFull) as info:
        c.predict("lin", _X)
    assert info.value.status == 503
    assert info.value.code == "queue_full"
    assert info.value.retry_after == 1.0
    assert issubclass(ClientQueueFull, ServingError)


def test_unknown_content_type_maps_to_415(running_server):
    import urllib.error
    import urllib.request

    req = urllib.request.Request(
        f"{running_server.url}/v1/models/lin:predict",
        data=b"<xml/>", headers={"Content-Type": "text/xml"})
    with pytest.raises(urllib.error.HTTPError) as info:
        urllib.request.urlopen(req, timeout=10)
    assert info.value.code == 415
    import json
    envelope = json.loads(info.value.read())
    assert envelope["error"]["code"] == "unsupported_media_type"


def test_max_inflight_sheds_when_saturated():
    predict, _, _ = _linear()
    server = ModelServer(max_inflight=1)
    server.register("lin", predict, signature=(_SPEC,), batcher=False)
    # Saturate the one slot, then the next request sheds.
    server._inflight_sem.acquire()
    try:
        with pytest.raises(ServerQueueFull, match="max_inflight"):
            server._predict("lin", {"inputs": [_X]})
    finally:
        server._inflight_sem.release()
    out = server._predict("lin", {"inputs": [_X]})
    np.testing.assert_allclose(out["outputs"][0], [[6.0]], rtol=1e-6)
    with pytest.raises(ValueError, match="max_inflight"):
        ModelServer(max_inflight=0)


# ---------------------------------------------------------------------------
# Wire negotiation
# ---------------------------------------------------------------------------


def test_binary_and_json_wire_agree(running_server):
    binary = ServingClient(running_server.url)          # wire="auto"
    jsonc = ServingClient(running_server.url, wire="json")
    x = np.ones((3,), np.float32)  # one example; the batcher stacks
    out_b = binary.predict("lin", [x])["outputs"][0]
    out_j = jsonc.predict("lin", [x])["outputs"][0]
    assert isinstance(out_b, np.ndarray)
    assert out_b.dtype == np.float32
    assert isinstance(out_j, list)
    np.testing.assert_allclose(out_b, np.asarray(out_j, np.float32))


def test_binary_swap_weights_with_ndarrays(running_server):
    c = ServingClient(running_server.url)
    new_w = np.full((3, 1), -1.0, np.float32)
    reply = c.swap_weights(
        "lin", weights={running_server.weight_name: new_w})
    assert reply["swapped"] == [running_server.weight_name]
    out = np.asarray(c.predict("lin", _X)["outputs"][0])
    np.testing.assert_allclose(out, [-3.0], rtol=1e-6)


def test_auto_wire_downgrades_on_415(monkeypatch):
    c = ServingClient("http://example.invalid")
    calls = []

    def fake_send(path, data, method, headers):
        calls.append(dict(headers or {}))
        if c._wire == "auto":
            raise ServingError(415, "no binary here",
                               code="unsupported_media_type")
        return {"ok": True}

    monkeypatch.setattr(c, "_send", fake_send)
    assert c.predict("m", _X) == {"ok": True}
    assert c._wire == "json"  # sticky downgrade
    assert c.predict("m", _X) == {"ok": True}
    assert len(calls) == 3  # 415 attempt + two JSON sends


# ---------------------------------------------------------------------------
# Transport retries
# ---------------------------------------------------------------------------


def test_retries_transport_errors_then_succeeds(monkeypatch):
    c = ServingClient("http://example.invalid", retries=2, backoff=0.001)
    attempts = []

    def flaky(path, data, method, headers):
        attempts.append(path)
        if len(attempts) < 3:
            raise ConnectionResetError("mid-restart")
        return {"ok": True}

    monkeypatch.setattr(c, "_send", flaky)
    assert c.list_models() == {"ok": True}
    assert len(attempts) == 3


def test_retries_exhaust_and_http_errors_never_retry(monkeypatch):
    c = ServingClient("http://example.invalid", retries=1, backoff=0.001)
    attempts = []

    def always_down(path, data, method, headers):
        attempts.append(path)
        raise ConnectionRefusedError("down")

    monkeypatch.setattr(c, "_send", always_down)
    with pytest.raises(ConnectionRefusedError):
        c.list_models()
    assert len(attempts) == 2  # initial + 1 retry

    http_attempts = []

    def http_error(path, data, method, headers):
        http_attempts.append(path)
        raise UnknownModelError(404, "nope", code="not_found")

    monkeypatch.setattr(c, "_send", http_error)
    with pytest.raises(UnknownModelError):
        c.list_models()
    assert len(http_attempts) == 1  # no retry on an error *reply*

    with pytest.raises(ValueError, match="retries"):
        ServingClient("http://x", retries=-1)
    with pytest.raises(ValueError, match="wire"):
        ServingClient("http://x", wire="msgpack")


# ---------------------------------------------------------------------------
# Persistent connections
# ---------------------------------------------------------------------------


def _connection_threads():
    return [t for t in threading.enumerate()
            if t.name == "repro-serving-connection"]


def test_requests_reuse_one_connection(running_server):
    with ServingClient(running_server.url) as c:
        for _ in range(5):
            c.predict("lin", _X)
        c.list_models()
        assert len(c._idle) == 1
        assert len(_connection_threads()) == 1
    assert c._idle == []
    # Closed, not broken: the client reconnects on demand.
    assert c.predict("lin", _X)["version"] == "1"
    c.close()


def test_one_client_is_safe_from_many_threads(running_server):
    import sys

    c = ServingClient(running_server.url)
    errors = []

    def hammer():
        try:
            for _ in range(20):
                out = np.asarray(c.predict("lin", _X)["outputs"][0])
                np.testing.assert_allclose(out, [6.0], rtol=1e-6)
        except Exception as e:  # noqa: BLE001
            errors.append(e)

    # More threads than cores, switching as often as the interpreter
    # allows: the idle list (client side), the connection table and the
    # latency histogram (server side) are all shared between them.
    threads = [threading.Thread(target=hammer) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert 1 <= len(c._idle) <= 8  # never more connections than callers
    # No lost update: every request is in the histogram exactly once.
    endpoint = running_server._endpoints["lin"]
    assert endpoint.requests == 160
    assert sum(endpoint._latency.buckets.values()) == 160
    c.close()


def test_base_url_path_prefix_is_kept(monkeypatch):
    import http.client

    seen = []

    def fake_request(self, method, url, body=None, headers=()):
        seen.append((self.host, self.port, method, url))
        raise ConnectionRefusedError("no server in this test")

    monkeypatch.setattr(http.client.HTTPConnection, "request", fake_request)
    c = ServingClient("http://gateway.test:8080/serving/", retries=0)
    with pytest.raises(ConnectionRefusedError):
        c.describe("lin")
    assert seen == [("gateway.test", 8080, "GET", "/serving/v1/models/lin")]
    with pytest.raises(ValueError, match="base_url"):
        ServingClient("ftp://gateway.test")


def test_stale_connection_is_replaced_without_spending_a_retry():
    predict, _, _ = _linear()
    server = ModelServer()
    server.register("lin", predict, signature=(_SPEC,))
    with server:
        c = ServingClient(server.url, retries=0)
        c.predict("lin", _X)
        port = server._httpd.server_address[1]
    # The server went away and took the kept-alive connection with it;
    # bring one back on the same port.
    server._port = port
    with server:
        assert len(c._idle) == 1
        # retries=0: only the free stale-connection replacement can
        # make this succeed.
        assert c.predict("lin", _X)["version"] == "1"
    # With nothing listening, the fresh connection fails for real.
    with pytest.raises(ConnectionError):
        c.predict("lin", _X)
    c.close()


def test_stop_ends_connections_and_joins_their_threads():
    predict, _, _ = _linear()
    server = ModelServer()
    server.register("lin", predict, signature=(_SPEC,))
    baseline = threading.active_count()
    with server:
        clients = [ServingClient(server.url, retries=0, timeout=5.0)
                   for _ in range(3)]
        for c in clients:
            c.predict("lin", _X)
        assert len(_connection_threads()) == 3
    # No handler thread (nor batcher, nor acceptor) outlives stop(),
    # even though every client still holds its connection open ...
    assert _connection_threads() == []
    assert threading.active_count() == baseline
    # ... and using one is a prompt transport error, not a hang.
    with pytest.raises(ConnectionError):
        clients[0].predict("lin", _X)


def test_idle_connection_times_out(monkeypatch):
    import socket

    from repro.serving import server as server_lib

    monkeypatch.setattr(server_lib, "IDLE_TIMEOUT_SECONDS", 0.05)
    predict, _, _ = _linear()
    server = ModelServer()
    server.register("lin", predict, signature=(_SPEC,))
    with server:
        sock = socket.create_connection(server._httpd.server_address)
        sock.settimeout(5.0)
        # The server hangs up on a connection that never sends anything.
        assert sock.recv(1) == b""
        sock.close()
        c = ServingClient(server.url, retries=0)
        c.predict("lin", _X)
        deadline = time.monotonic() + 10.0
        while _connection_threads():
            assert time.monotonic() < deadline, "connection never idled out"
            time.sleep(0.005)
        # The kept-alive connection idled out; the client reconnects
        # (retries=0: through the free stale-connection replacement).
        assert len(c._idle) == 1
        assert c.predict("lin", _X)["version"] == "1"
        c.close()
