"""ModelServer: HTTP routing, both backends, batched concurrent clients."""

import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro
from gated_executable import GatedExecutable, wait_for
from repro.framework import ops
from repro.serving import ModelServer, ServingClient, load, save
from repro.serving.client import ServingError


W = np.random.default_rng(0).normal(size=(4, 3)).astype(np.float32)


def _score_function(backend):
    @repro.function(backend=backend)
    def score(x):
        return ops.tanh(ops.matmul(x, W))

    return score


def test_serves_both_backends_from_one_server():
    spec = repro.TensorSpec([None, 4], "float32")
    server = ModelServer()
    server.register("graph", _score_function("graph"), signature=(spec,))
    server.register("lantern", _score_function("lantern"), signature=(spec,))
    x = np.random.default_rng(1).normal(size=(4,)).astype(np.float32)
    expected = np.tanh(x[None, :] @ W)[0]
    with server, ServingClient(server.url) as client:
        for name in ("graph", "lantern"):
            reply = client.predict(name, [x.tolist()])
            assert reply["backend"] == name
            np.testing.assert_allclose(
                np.asarray(reply["outputs"][0]), expected, rtol=1e-5, atol=1e-6)


def test_same_artifact_serves_whichever_backend_traced_it(tmp_path):
    """The acceptance-criteria scenario: save via either backend, load,
    serve — one protocol end to end."""
    spec = repro.TensorSpec([None, 4], "float32")
    x = np.random.default_rng(2).normal(size=(4,)).astype(np.float32)
    expected = np.tanh(x[None, :] @ W)[0]
    server = ModelServer()
    for backend in ("graph", "lantern"):
        path = str(tmp_path / backend)
        save(_score_function(backend), path, spec)
        server.register(backend, load(path))
    with server, ServingClient(server.url) as client:
        models = client.list_models()["models"]
        assert set(models) == {"graph", "lantern"}
        for backend in ("graph", "lantern"):
            assert models[backend]["batching"] is True
            reply = client.predict(backend, [x.tolist()])
            assert reply["backend"] == backend
            np.testing.assert_allclose(
                np.asarray(reply["outputs"][0]), expected, rtol=1e-5, atol=1e-6)


def test_concurrent_clients_are_batched():
    spec = repro.TensorSpec([None, 4], "float32")
    gate = GatedExecutable(
        _score_function("graph").get_concrete_function(spec))
    server = ModelServer()
    executable = server.register("score", gate,
                                 batcher={"max_batch_size": 8})
    assert "score" in executable.serving_names
    rng = np.random.default_rng(3)
    examples = [rng.normal(size=(4,)).astype(np.float32) for _ in range(16)]
    replies = [None] * 16
    with server:
        url = server.url

        def hit(i):
            with ServingClient(url) as client:
                replies[i] = client.predict("score", [examples[i]])

        # One request parks the batcher's worker inside the model; the
        # 15 that arrive over HTTP meanwhile queue behind it.
        threads = [threading.Thread(target=hit, args=(i,)) for i in range(16)]
        threads[0].start()
        assert gate.entered.wait(10.0)
        for t in threads[1:]:
            t.start()
        batcher = server._endpoints["score"].active_version().batcher
        wait_for(lambda: batcher.queue_depth() == 15, "queue never filled")
        gate.release.set()
        for t in threads:
            t.join()
        with ServingClient(url) as client:
            stats = client.list_models()["models"]["score"]["batch_stats"]
    for x, reply in zip(examples, replies):
        np.testing.assert_allclose(
            np.asarray(reply["outputs"][0]), np.tanh(x[None, :] @ W)[0],
            rtol=1e-5, atol=1e-6)
    # Coalescing observable over HTTP: 1 + 8 + 7.
    assert (stats["requests"], stats["batches"]) == (16, 3)
    assert stats["max_batch_size"] == 8


def test_unbatched_signature_takes_full_tensors():
    server = ModelServer()
    server.register(
        "score", _score_function("graph"),
        signature=(repro.TensorSpec([None, 4], "float32"),), batcher=False)
    x = np.random.default_rng(4).normal(size=(2, 4)).astype(np.float32)
    with server, ServingClient(server.url) as client:
        reply = client.predict("score", [x.tolist()])
    np.testing.assert_allclose(
        np.asarray(reply["outputs"][0]), np.tanh(x @ W), rtol=1e-5, atol=1e-6)


def test_error_replies():
    server = ModelServer()
    server.register(
        "score", _score_function("graph"),
        signature=(repro.TensorSpec([None, 4], "float32"),))
    with server, ServingClient(server.url) as client:
        with pytest.raises(ServingError) as nope:
            client.predict("nope", [[1.0]])
        assert nope.value.status == 404
        with pytest.raises(ServingError) as bad:
            client.predict("score", "not-a-list")
        assert bad.value.status == 400
        with pytest.raises(ServingError) as bogus:
            ServingClient(server.url + "/bogus").list_models()
        assert bogus.value.status == 404
        # Error replies keep the connection usable.
        assert client.predict("score", [[1.0] * 4])["version"] == "1"


def _raw_round_trip(sock, reader, method, path, body=b"",
                    content_length=None):
    """One hand-written HTTP/1.1 request on ``sock``, its reply parsed
    off ``reader`` (ONE buffered reader per socket, so a reply the server
    should never have sent is not silently dropped with a per-response
    buffer); returns ``(status, reply body, response headers)``."""
    if content_length is None:
        content_length = len(body)
    head = (f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {content_length}\r\n\r\n")
    sock.sendall(head.encode("ascii") + body)
    status = int(reader.readline().split()[1])
    headers = {}
    while True:
        line = reader.readline().strip()
        if not line:
            break
        key, _, value = line.decode("ascii").partition(":")
        headers[key.lower()] = value.strip()
    return status, reader.read(int(headers["content-length"])), headers


def test_unread_bodies_never_become_the_next_request():
    """Keep-alive framing: every route consumes its request body, also
    the ones that reply before looking at it."""
    import json
    import socket

    server = ModelServer()
    server.register(
        "score", _score_function("graph"),
        signature=(repro.TensorSpec([None, 4], "float32"),))
    x = np.ones(4, np.float32)
    # A body that would itself parse as a request line.
    decoy = b"GET /v1/models HTTP/1.1\r\n\r\n"
    predict = json.dumps({"inputs": [x.tolist()]}).encode()
    with server:
        sock = socket.create_connection(server._httpd.server_address)
        sock.settimeout(10.0)
        reader = sock.makefile("rb")
        try:
            for method, path in (("POST", "/v1/bogus"),
                                 ("POST", "/v1/models/score:nope"),
                                 ("GET", "/v1/nothing-here"),
                                 ("DELETE", "/v1/models/score/versions/9"),
                                 ("DELETE", "/v1/bogus")):
                status, body, _ = _raw_round_trip(
                    sock, reader, method, path, decoy)
                assert status == 404, (method, path)
                assert json.loads(body)["error"]["code"] == "not_found"
                # The very next request on the same socket is a valid
                # predict and must be answered as one.
                status, body, _ = _raw_round_trip(
                    sock, reader, "POST", "/v1/models/score:predict",
                    predict)
                assert status == 200, (method, path, body)
                np.testing.assert_allclose(
                    json.loads(body)["outputs"][0], np.tanh(x[None, :] @ W)[0],
                    rtol=1e-5, atol=1e-6)
            status, _, _ = _raw_round_trip(
                sock, reader, "GET", "/v1/models", decoy)
            assert status == 200
            # A body of unknowable length cannot be skipped: the server
            # says so and hangs up rather than guess.
            status, _, headers = _raw_round_trip(
                sock, reader, "POST", "/v1/models/score:predict",
                content_length="lots")
            assert status == 400
            assert headers["connection"] == "close"
            assert reader.read(1) == b""
        finally:
            reader.close()
            sock.close()


def test_one_reply_is_one_send(monkeypatch):
    """Nagle x delayed-ACK guard, structurally: head and body of a reply
    leave in a single send on a TCP_NODELAY socket."""
    import socket

    server = ModelServer()
    server.register(
        "score", _score_function("graph"),
        signature=(repro.TensorSpec([None, 4], "float32"),))
    sends = []
    nodelay = []
    real_send = socket.socket.send

    def counting_send(self, data, *args):
        if self.getsockname()[1] == port:  # the server's end
            sends.append(len(data))
            nodelay.append(self.getsockopt(socket.IPPROTO_TCP,
                                           socket.TCP_NODELAY))
        return real_send(self, data, *args)

    with server, ServingClient(server.url) as client:
        port = server._httpd.server_address[1]
        monkeypatch.setattr(socket.socket, "send", counting_send)
        client.predict("score", [np.ones(4, np.float32)])   # binary reply
        client.list_models()                                # JSON reply
        with pytest.raises(ServingError):
            client.predict("nope", [[1.0]])                 # error reply
        monkeypatch.undo()
    assert len(sends) == 3, sends
    assert all(nodelay)


def test_sequential_predicts_on_one_connection_do_not_stall():
    """The behavioural twin: were a reply two small writes, each request
    after the first would wait out a ~40 ms delayed ACK."""
    import time

    server = ModelServer()
    server.register(
        "score", _score_function("graph"),
        signature=(repro.TensorSpec([None, 4], "float32"),))
    x = np.ones(4, np.float32)
    latencies = []
    with server, ServingClient(server.url) as client:
        for _ in range(200):
            start = time.perf_counter()
            client.predict("score", [x])
            latencies.append(time.perf_counter() - start)
        assert len(client._idle) == 1
    # All but a few scheduling hiccups of a shared VM; a stall would
    # put (nearly) every request over the line.
    assert sorted(latencies)[-5] < 0.020, sorted(latencies)[-10:]


def test_duplicate_and_bad_registrations():
    server = ModelServer()
    spec = repro.TensorSpec([None, 4], "float32")
    server.register("score", _score_function("graph"), signature=(spec,))
    with pytest.raises(ValueError, match="already has a version '1'"):
        server.register("score", _score_function("graph"), signature=(spec,))
    with pytest.raises(TypeError, match="Function or Executable"):
        server.register("plain", lambda x: x)


def test_restart_keeps_batching():
    server = ModelServer()
    server.register(
        "score", _score_function("graph"),
        signature=(repro.TensorSpec([None, 4], "float32"),),
        batcher={"max_batch_size": 4})
    x = np.ones(4, np.float32)
    for _ in range(2):  # second iteration exercises the restarted server
        with server, ServingClient(server.url) as client:
            models = client.list_models()["models"]
            assert models["score"]["batching"] is True
            reply = client.predict("score", [x.tolist()])
            np.testing.assert_allclose(
                np.asarray(reply["outputs"][0]), np.tanh(x[None, :] @ W)[0],
                rtol=1e-5, atol=1e-6)


def test_lazy_repro_serving_attribute_in_fresh_process():
    """``repro.serving`` / ``repro.saved_function`` attribute access must
    work on a cold interpreter (the module __getattr__ path; a from-
    import there used to recurse forever)."""
    root = pathlib.Path(__file__).resolve().parent.parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    code = (
        "import repro\n"
        "assert repro.serving.ModelServer is not None\n"
        "assert callable(repro.saved_function.save)\n"
        "from repro import *\n"
        "print('lazy-ok')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env=env)
    assert result.returncode == 0, result.stderr[-2000:]
    assert "lazy-ok" in result.stdout


def test_pretty_cache_reports_serving_status():
    fn = _score_function("graph")
    server = ModelServer()
    server.register("scorer", fn,
                    signature=(repro.TensorSpec([None, 4], "float32"),))
    text = fn.pretty_cache()
    assert "serving=scorer" in text
    assert "<exportable>" in text
    assert "[graph]" in text
