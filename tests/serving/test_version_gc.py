"""ModelServer version GC: ``remove_version`` + the DELETE route.

A long-lived server that keeps registering new versions needs a way to
unload old ones.  The contract: inactive versions unload cleanly (their
batchers drain, their executables drop from the registry); the *active*
version is always refused (HTTP 409) so traffic never loses its target.
"""

import numpy as np
import pytest

import repro
from repro.framework import ops
from repro.serving import ModelServer, ServingClient
from repro.serving.client import ServingError
from repro.serving.server import ActiveVersionError


def _model(scale):
    @repro.function(name=f"gc_model_x{scale}")
    def f(x):
        return ops.multiply(x, float(scale))

    return f.get_concrete_function(
        repro.TensorSpec([None, 2], "float32"))


@pytest.fixture
def server():
    s = ModelServer()
    s.register("score", _model(1), version="1")
    s.register("score", _model(2), version="2")
    s.register("score", _model(3), version="3")
    return s


def test_remove_inactive_version(server):
    reply = server.remove_version("score", "2")
    assert reply == {
        "model": "score",
        "removed": "2",
        "versions": ["1", "3"],
        "active_version": "1",
    }


def test_remove_active_version_refused(server):
    with pytest.raises(ActiveVersionError):
        server.remove_version("score", "1")
    # Still registered, still serving.
    assert "1" in server._endpoints["score"].versions


def test_remove_unknown_version_or_model(server):
    with pytest.raises(KeyError):
        server.remove_version("score", "99")
    with pytest.raises(KeyError):
        server.remove_version("nope", "1")


def test_removed_version_cannot_be_activated(server):
    server.remove_version("score", "3")
    with pytest.raises(ValueError):
        server._swap_weights("score", {"version": "3"})


def test_remove_then_reregister_same_label(server):
    with server, ServingClient(server.url) as client:
        server.remove_version("score", "3")
        server.register("score", _model(30), version="3", activate=True)
        reply = client.predict("score", [[1.0, 1.0]])
    assert reply["version"] == "3"
    np.testing.assert_allclose(reply["outputs"][0], [30.0, 30.0])


def test_delete_route_and_client(server):
    with server, ServingClient(server.url) as client:
        # Activate 2, then GC 1 over the wire.
        client.swap_weights("score", version="2")
        reply = client.remove_version("score", "1")
        assert reply["removed"] == "1"
        assert reply["versions"] == ["2", "3"]
        assert reply["active_version"] == "2"

        models = client.list_models()
        assert models["models"]["score"]["versions"] == ["2", "3"]

        # Traffic still flows on the surviving active version.
        out = client.predict("score", [[2.0, 2.0]])
        np.testing.assert_allclose(out["outputs"][0], [4.0, 4.0])


def test_delete_active_version_is_409(server):
    with server, ServingClient(server.url) as client:
        with pytest.raises(ServingError) as err:
            client.remove_version("score", "1")
        assert err.value.status == 409


def test_delete_unknown_is_404(server):
    with server, ServingClient(server.url) as client:
        with pytest.raises(ServingError) as err:
            client.remove_version("score", "42")
        assert err.value.status == 404
        with pytest.raises(ServingError) as err:
            client.remove_version("missing", "1")
        assert err.value.status == 404


def test_gc_closes_the_versions_batcher(server):
    with server:
        endpoint = server._endpoints["score"]
        batcher = endpoint.versions["3"].batcher
        assert batcher is not None
        server.remove_version("score", "3")
        with pytest.raises(RuntimeError):
            batcher.submit([np.ones(2, np.float32)])
