"""The prefork fleet: shared-memory weights, atomic hot-swap, canary,
shedding, and fleet observability."""

import threading
import time

import numpy as np
import pytest

import repro
from repro import framework as fw
from repro.framework import ops
from repro.serving import FleetServer, ServingClient, save
from repro.serving.client import QueueFullError, UnknownModelError
from repro.serving.fleet import _SharedDoc
from repro.serving.shm_store import SharedWeightStore

_COUNTER = [0]


def _uname(base):
    _COUNTER[0] += 1
    return f"{base}_{_COUNTER[0]}"


def _save_linear(path, w0, b0, backend="graph", features=4):
    """Save y = x @ W + b with W = w0 * ones, b = b0 * ones."""
    w = fw.Variable(np.full((features, 1), w0, np.float32),
                    name=_uname("ft_w"))
    b = fw.Variable(np.full((1,), b0, np.float32), name=_uname("ft_b"))

    @repro.function(backend=backend)
    def predict(x):
        return ops.matmul(x, w.value()) + b.value()

    save(predict, str(path), repro.TensorSpec([None, features], "float32"),
         freeze=False)
    return w.name, b.name


_X = np.ones((4,), np.float32)   # one example (batched endpoints stack)
_XB = np.ones((1, 4), np.float32)  # one batch (unbatched in-proc workers)


def _value(reply):
    return float(np.asarray(reply["outputs"][0]).ravel()[0])


# ---------------------------------------------------------------------------
# SharedWeightStore (in-process)
# ---------------------------------------------------------------------------


def test_store_publish_read_update_generations():
    ns = f"tst{_uname('s')}"
    store = SharedWeightStore(
        ns, create=True,
        initial={"w": np.arange(6, dtype=np.float32).reshape(2, 3),
                 "b": np.zeros((3,), np.float64)})
    try:
        assert store.generation == 1
        gen, views = store.read()
        assert gen == 1
        np.testing.assert_array_equal(
            views["w"], np.arange(6, dtype=np.float32).reshape(2, 3))
        assert not views["w"].flags.writeable

        # A second attachment (another process, in spirit) sees the same.
        reader = SharedWeightStore(ns)
        try:
            _, their = reader.read()
            np.testing.assert_array_equal(their["w"], views["w"])

            # Partial update: new generation, other captures carried over.
            assert store.update({"w": np.full((2, 3), 7.0)}) == 2
            gen2, views2 = reader.read()
            assert gen2 == 2
            np.testing.assert_array_equal(views2["w"], np.full((2, 3), 7.0))
            assert views2["w"].dtype == np.float32  # cast to stored dtype
            np.testing.assert_array_equal(views2["b"], np.zeros(3))

            with pytest.raises(KeyError, match="no capture named"):
                store.update({"nope": np.zeros(1)})
            with pytest.raises(ValueError, match="expects shape"):
                store.update({"w": np.zeros((9, 9))})
        finally:
            reader.close()

        # Generations keep the last two names; older ones unlink.
        for _ in range(4):
            store.publish(store.read()[1])
        assert store.generation == 6
        _, latest = store.read()
        np.testing.assert_array_equal(latest["w"], np.full((2, 3), 7.0))
    finally:
        store.unlink()
    with pytest.raises(FileNotFoundError):
        SharedWeightStore(ns)


def test_store_rejects_foreign_control_block():
    from multiprocessing import shared_memory

    from repro.serving.shm_store import _untrack

    ns = f"tstf{_uname('f')}"
    seg = shared_memory.SharedMemory(name=f"{ns}c", create=True, size=16)
    _untrack(seg)
    try:
        seg.buf[:16] = b"definitely nope!"
        with pytest.raises(ValueError, match="not a SharedWeightStore"):
            SharedWeightStore(ns)
    finally:
        seg.unlink()
        seg.close()


def test_shared_doc_roundtrip_and_bounds():
    doc = _SharedDoc(f"tstd{_uname('d')}", create=True)
    try:
        assert doc.read() is None  # before first write
        doc.write({"active": "2", "canary": ["3", 0.25]})
        assert doc.read() == {"active": "2", "canary": ["3", 0.25]}
        doc.write({"active": "3", "canary": None})
        assert doc.read() == {"active": "3", "canary": None}
        with pytest.raises(ValueError, match="payload"):
            doc.write({"blob": "x" * (_SharedDoc.SIZE)})
    finally:
        doc.unlink()


# ---------------------------------------------------------------------------
# In-process worker (exercises the fleet plumbing without forking)
# ---------------------------------------------------------------------------


@pytest.fixture()
def inproc_fleet(tmp_path):
    w1, b1 = _save_linear(tmp_path / "v1", 1.0, 0.0)   # -> 4.0
    _save_linear(tmp_path / "v2", 2.0, 1.0)            # -> 9.0
    fleet = FleetServer(n_workers=2)
    # Unbatched: in-process workers are driven without serve_on_socket,
    # so no batcher worker threads exist to coalesce requests.
    fleet.register("score", tmp_path / "v1", batcher=False)
    fleet.register("score", tmp_path / "v2", version="2", batcher=False)
    fleet._setup_shared_state()
    try:
        yield fleet, w1, b1
    finally:
        fleet.stop()


def test_inproc_worker_serves_from_shared_views(inproc_fleet):
    fleet, w1, _ = inproc_fleet
    worker = fleet._build_worker(0)
    reply = worker._predict("score", {"inputs": [_XB]})
    assert _value(reply) == 4.0
    assert reply["version"] == "1"
    # The worker's captures are literally the shared read-only views.
    executable = (worker._endpoints["score"].versions["1"].executable)
    state = executable._capture_state
    assert all(not a.flags.writeable for a in state)


def test_inproc_swap_propagates_between_workers(inproc_fleet):
    fleet, w1, b1 = inproc_fleet
    a, b = fleet._build_worker(0), fleet._build_worker(1)
    assert _value(a._predict("score", {"inputs": [_XB]})) == 4.0
    assert _value(b._predict("score", {"inputs": [_XB]})) == 4.0
    # Worker A handles the swap; worker B sees it on its next request.
    a._swap_weights("score", {
        "weights": {w1: np.full((4, 1), -1.0, np.float32),
                    b1: np.full((1,), 10.0, np.float32)}})
    assert _value(a._predict("score", {"inputs": [_XB]})) == 6.0
    assert _value(b._predict("score", {"inputs": [_XB]})) == 6.0
    generation = fleet._stores[("score", "1")].generation
    assert generation == 2


def test_inproc_activation_and_canary_propagate(inproc_fleet):
    fleet, _, _ = inproc_fleet
    a, b = fleet._build_worker(0), fleet._build_worker(1)
    a._swap_weights("score", {"version": "2"})
    assert b._predict("score", {"inputs": [_XB]})["version"] == "2"
    assert _value(b._predict("score", {"inputs": [_XB]})) == 9.0
    # Canary set through worker B is visible to worker A.
    b.set_canary("score", version="1", fraction=1.0)
    assert a._predict("score", {"inputs": [_XB]})["version"] == "1"
    b.set_canary("score", fraction=0.0)
    assert a._predict("score", {"inputs": [_XB]})["version"] == "2"


def test_inproc_fleet_info_merges_worker_stats(inproc_fleet):
    fleet, _, _ = inproc_fleet
    a, b = fleet._build_worker(0), fleet._build_worker(1)
    for _ in range(3):
        a._predict("score", {"inputs": [_XB]})
    b._predict("score", {"inputs": [_XB]})
    info = a._describe_all()
    assert info["models"]["score"]["engine"]["bound_plan"]["calls"] >= 1
    fleet_info = info["fleet"]
    assert fleet_info["n_workers"] == 2
    requests = [w.get("requests", 0) for w in fleet_info["workers"]]
    assert requests[0] >= 3 and requests[1] >= 1
    assert fleet_info["weight_generations"]["score@1"] >= 1
    # Per-worker latency percentiles ride along.
    assert "p99_ms" in fleet_info["workers"][0]["models"]["score"]


def test_inproc_stats_doc_with_histograms_fits_shared_block(inproc_fleet):
    import json
    import random

    fleet, _, _ = inproc_fleet
    workers = [fleet._build_worker(0), fleet._build_worker(1)]
    rng = random.Random(0)
    for worker in workers:
        endpoint = worker._endpoints["score"]
        # Microseconds to seconds: far wider than any real endpoint.
        for _ in range(20000):
            endpoint.record_latency(rng.lognormvariate(-7.0, 2.0))
        worker._publish_stats()  # raises if the doc outgrew its block
        doc = worker._stats_docs[worker._worker_index].read()
        assert len(json.dumps(doc)) < _SharedDoc.SIZE // 2
        assert len(doc["models"]["score"]["buckets"]) > 100
    latency = workers[0]._metrics()["fleet"]["latency"]["score"]
    assert latency["count"] == 40000


def test_fleet_register_validation(tmp_path):
    fleet = FleetServer(n_workers=1)
    with pytest.raises(TypeError, match="saved artifacts"):
        fleet.register("m", lambda x: x)
    with pytest.raises(RuntimeError, match="no registered models"):
        fleet.start()
    with pytest.raises(RuntimeError, match="not running"):
        fleet.url
    with pytest.raises(ValueError, match="n_workers"):
        FleetServer(n_workers=0)
    _save_linear(tmp_path / "m", 1.0, 0.0)
    fleet.register("m", tmp_path / "m")
    fleet.register("m", tmp_path / "m", version="2")
    with pytest.raises(ValueError, match="duplicate registration"):
        fleet.register("m", tmp_path / "m", version="2")
        fleet._setup_shared_state()
    fleet.stop()


# ---------------------------------------------------------------------------
# Forked fleet over HTTP
# ---------------------------------------------------------------------------


def _wait_ready(client, name, tries=100):
    for _ in range(tries):
        try:
            client.list_models()
            return
        except Exception:  # noqa: BLE001 - workers still booting
            time.sleep(0.05)
    raise AssertionError("fleet never became reachable")


def _fresh_predict(url, name="score"):
    """One predict on a connection of its own.  Connections are sticky
    to the worker that accepted them, so a probe meant to land on
    *whichever* worker the kernel picks needs a fresh client."""
    with ServingClient(url) as c:
        return c.predict(name, [_X])


def test_fleet_predicts_across_workers(tmp_path):
    _save_linear(tmp_path / "m", 1.0, 0.0)
    fleet = FleetServer(n_workers=2)
    fleet.register("score", tmp_path / "m")
    with fleet:
        c = ServingClient(fleet.url)
        _wait_ready(c, "score")
        for _ in range(12):
            assert _value(_fresh_predict(fleet.url)) == 4.0
        with pytest.raises(UnknownModelError):
            c.predict("nope", [_X])
        info = c.list_models()
        workers = info["fleet"]["workers"]
        assert len(workers) == 2
        assert sum(w.get("requests", 0) for w in workers) >= 12


def test_fleet_swap_under_traffic_is_atomic(tmp_path):
    """No request, on any worker, may ever see half-swapped weights.

    v1: W=1, b=0  -> y = 4.0;  swapped: W=-1, b=10 -> y = 6.0.
    A torn read (new W with old b, or vice versa) would yield -4.0 or
    14.0 — the two-sided sentinel the assertion hunts for.
    """
    w_name, b_name = _save_linear(tmp_path / "m", 1.0, 0.0)
    fleet = FleetServer(n_workers=2)
    fleet.register("score", tmp_path / "m")
    with fleet:
        url = fleet.url
        _wait_ready(ServingClient(url), "score")
        seen = set()
        errors = []
        stop = threading.Event()

        def hammer():
            c = ServingClient(url, retries=3)
            while not stop.is_set():
                try:
                    seen.add(_value(c.predict("score", [_X])))
                except Exception as e:  # noqa: BLE001
                    errors.append(e)
                    return

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.2)  # traffic flowing on old weights
        swapper = ServingClient(url)
        swapper.swap_weights("score", weights={
            w_name: np.full((4, 1), -1.0, np.float32),
            b_name: np.full((1,), 10.0, np.float32),
        })
        deadline = time.monotonic() + 10.0
        while 6.0 not in seen and time.monotonic() < deadline:
            time.sleep(0.02)
        stop.set()
        for t in threads:
            t.join()
        assert not errors, errors[:1]
        assert 6.0 in seen, "swap never became visible"
        # The heart of the guarantee: only whole-tuple values, ever.
        assert seen <= {4.0, 6.0}, f"mixed-version weights observed: {seen}"


def test_fleet_activation_is_fleet_wide(tmp_path):
    _save_linear(tmp_path / "v1", 1.0, 0.0)   # -> 4.0
    _save_linear(tmp_path / "v2", 2.0, 1.0)   # -> 9.0
    fleet = FleetServer(n_workers=2)
    fleet.register("score", tmp_path / "v1")
    fleet.register("score", tmp_path / "v2", version="2")
    with fleet:
        c = ServingClient(fleet.url)
        _wait_ready(c, "score")
        assert c.predict("score", [_X])["version"] == "1"
        c.swap_weights("score", version="2")
        # Every subsequent request — whichever worker gets it — serves v2.
        for _ in range(16):
            reply = _fresh_predict(fleet.url)
            assert reply["version"] == "2"
            assert _value(reply) == 9.0


def test_fleet_canary_splits_traffic(tmp_path):
    _save_linear(tmp_path / "v1", 1.0, 0.0)
    _save_linear(tmp_path / "v2", 2.0, 1.0)
    fleet = FleetServer(n_workers=2)
    fleet.register("score", tmp_path / "v1")
    fleet.register("score", tmp_path / "v2", version="2")
    with fleet:
        c = ServingClient(fleet.url)
        _wait_ready(c, "score")
        reply = c.set_canary("score", version="2", fraction=0.5)
        assert reply["canary"] == {"version": "2", "fraction": 0.5}
        versions = [c.predict("score", [_X])["version"]
                    for _ in range(200)]
        share = versions.count("2") / len(versions)
        # 200 draws at p=0.5: ±0.15 is > 4 sigma.
        assert 0.35 <= share <= 0.65, f"canary share {share}"
        c.set_canary("score", fraction=0.0)
        assert all(c.predict("score", [_X])["version"] == "1"
                   for _ in range(8))


def test_fleet_sheds_with_503_envelope(tmp_path):
    # Big matmul so requests dwell long enough to pile onto the one
    # worker's bounded queue.
    _save_linear(tmp_path / "m", 1.0, 0.0, features=256)
    fleet = FleetServer(n_workers=1, max_inflight=2)
    fleet.register("score", tmp_path / "m",
                   batcher={"max_batch_size": 1, "max_queue": 1})
    with fleet:
        url = fleet.url
        _wait_ready(ServingClient(url), "score")
        x = np.ones((256,), np.float32)
        shed, ok, other = [], [], []

        def hit():
            try:
                ServingClient(url, retries=0, timeout=30.0).predict(
                    "score", [x])
                ok.append(1)
            except QueueFullError as e:
                shed.append(e)
            except Exception as e:  # noqa: BLE001
                other.append(e)

        threads = [threading.Thread(target=hit) for _ in range(64)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not other, other[:1]
        assert ok, "no request got through"
        assert shed, "64 concurrent requests never tripped the queue bound"
        e = shed[0]
        assert e.status == 503
        assert e.code == "queue_full"
        assert e.retry_after == 1.0


def test_fleet_serves_lantern_artifacts(tmp_path):
    w_name, b_name = _save_linear(tmp_path / "m", 1.0, 0.0,
                                  backend="lantern")
    fleet = FleetServer(n_workers=2)
    fleet.register("score", tmp_path / "m")
    with fleet:
        c = ServingClient(fleet.url)
        _wait_ready(c, "score")
        assert _value(c.predict("score", [_X])) == 4.0
        c.swap_weights("score", weights={
            w_name: np.full((4, 1), -1.0, np.float32),
            b_name: np.full((1,), 10.0, np.float32),
        })
        for _ in range(8):  # both workers converge on the new generation
            assert _value(_fresh_predict(fleet.url)) == 6.0
