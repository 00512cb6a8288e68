"""``GET /v1/metrics``: the live counter surface on a standalone
ModelServer over HTTP, and the fleet worker's merged per-worker view
(driven in-process, no forking)."""

import numpy as np
import pytest

import repro
from repro import framework as fw
from repro.framework import ops
from repro.observe.events import RECORDER
from repro.serving import FleetServer, ModelServer, ServingClient, save

_COUNTER = [0]


def _uname(base):
    _COUNTER[0] += 1
    return f"{base}_{_COUNTER[0]}"


W = np.random.default_rng(0).normal(size=(4, 3)).astype(np.float32)


def _score_function():
    @repro.function
    def score(x):
        return ops.tanh(ops.matmul(x, W))

    return score


_X = np.ones((4,), np.float32)
_XB = np.ones((1, 4), np.float32)


class TestModelServerMetrics:
    def test_metrics_over_http(self):
        spec = repro.TensorSpec([None, 4], "float32")
        server = ModelServer()
        server.register("score", _score_function(), signature=(spec,))
        with server:
            client = ServingClient(server.url)
            for _ in range(3):
                client.predict("score", [_X.tolist()])
            doc = client.metrics()
        assert doc["models"]["score"]["requests"] == 3
        assert "p99_ms" in doc["models"]["score"]["latency"]
        counters = doc["counters"]
        # The request counters are always live — no profiling enabled.
        assert counters["serving.requests"] >= 3
        assert counters["serving.requests.score"] >= 3
        assert counters["serving.batches"] >= 1
        assert counters["serving.batched_requests"] >= 3
        # Mean batcher wait = batch_queue_wait_us / batches; a lone
        # client on an idle batcher waits for a thread hand-off, not
        # for a linger timer.
        assert 0 <= counters["serving.batch_queue_wait_us"]

    def test_metrics_route_survives_unknown_routes(self):
        server = ModelServer()
        server.register(
            "score", _score_function(),
            signature=(repro.TensorSpec([None, 4], "float32"),))
        with server:
            client = ServingClient(server.url)
            doc = client.metrics()
            assert doc["models"]["score"]["requests"] == 0
            from repro.serving.client import UnknownModelError

            with pytest.raises(UnknownModelError):
                client._call("/v1/metricsx")

    def test_requests_counter_is_disabled_recorder_safe(self):
        # The counters tick while the global recorder stays off: the
        # metrics surface must never require enabling tracing.
        assert not RECORDER.enabled
        spec = repro.TensorSpec([None, 4], "float32")
        server = ModelServer()
        server.register("score", _score_function(), signature=(spec,))
        before = RECORDER.counters().get("serving.requests", 0)
        with server:
            client = ServingClient(server.url)
            client.predict("score", [_X.tolist()])
            doc = client.metrics()
        assert doc["counters"]["serving.requests"] == before + 1
        assert not RECORDER.enabled


def _save_linear(path, w0, b0, features=4):
    w = fw.Variable(np.full((features, 1), w0, np.float32),
                    name=_uname("mx_w"))
    b = fw.Variable(np.full((1,), b0, np.float32), name=_uname("mx_b"))

    @repro.function(backend="graph")
    def predict(x):
        return ops.matmul(x, w.value()) + b.value()

    save(predict, str(path), repro.TensorSpec([None, features], "float32"),
         freeze=False)


class TestFleetMergedMetrics:
    @pytest.fixture()
    def inproc_fleet(self, tmp_path):
        _save_linear(tmp_path / "m", 1.0, 0.0)
        fleet = FleetServer(n_workers=2)
        fleet.register("score", tmp_path / "m", batcher=False)
        fleet._setup_shared_state()
        try:
            yield fleet
        finally:
            fleet.stop()

    def test_merged_counters_and_request_counts(self, inproc_fleet):
        a = inproc_fleet._build_worker(0)
        b = inproc_fleet._build_worker(1)
        for _ in range(3):
            a._predict("score", {"inputs": [_XB]})
        b._predict("score", {"inputs": [_XB]})
        # Whichever worker answers /v1/metrics merges all stats blocks.
        doc = b._metrics()
        fleet_doc = doc["fleet"]
        assert fleet_doc["n_workers"] == 2
        assert fleet_doc["worker"] == 1
        assert fleet_doc["requests"] == 4
        by_worker = {w["worker"]: w["requests"] for w in fleet_doc["workers"]}
        assert by_worker == {0: 3, 1: 1}
        # In-process "workers" share one recorder, so each publishes the
        # full process counters; the merge then double-counts — which is
        # exactly what proves the summing path. Per-worker serving
        # counters exist and the merged total is the per-block sum.
        merged = fleet_doc["merged_counters"]
        assert merged.get("serving.requests", 0) >= 4
        supervisor = fleet_doc["supervisor"]
        assert supervisor["deaths"] == 0
        assert supervisor["respawns"] == 0
        # Each worker publishes its latency histogram; the answering
        # worker merges them into one fleet-wide distribution.
        latency = fleet_doc["latency"]["score"]
        assert latency["count"] == 4
        assert 0 < latency["p50_ms"] <= latency["p99_ms"]
        slowest = max(w._endpoints["score"].latency_stats()["p99_ms"]
                      for w in (a, b))
        assert latency["p99_ms"] == slowest

    def test_answering_worker_publishes_before_merging(self, inproc_fleet):
        a = inproc_fleet._build_worker(0)
        a._predict("score", {"inputs": [_XB]})
        # No other worker ever published; _metrics must still reflect
        # worker 0's just-published stats and placeholder rows for the
        # silent sibling.
        doc = a._metrics()
        by_worker = {w["worker"]: w for w in doc["fleet"]["workers"]}
        assert by_worker[0]["requests"] == 1
        assert by_worker[1]["requests"] == 0
