"""Fleet hardening: a killed worker is reaped and respawned into the
same listening socket and shared blocks, the supervisor's death/respawn
counts surface through fleet stats and ``/v1/metrics``, and traffic
keeps flowing throughout."""

import os
import signal
import time

import numpy as np

import repro
from repro import framework as fw
from repro.framework import ops
from repro.serving import FleetServer, ServingClient, save

_COUNTER = [0]


def _uname(base):
    _COUNTER[0] += 1
    return f"{base}_{_COUNTER[0]}"


def _save_linear(path, w0, b0, features=4):
    w = fw.Variable(np.full((features, 1), w0, np.float32),
                    name=_uname("rs_w"))
    b = fw.Variable(np.full((1,), b0, np.float32), name=_uname("rs_b"))

    @repro.function(backend="graph")
    def predict(x):
        return ops.matmul(x, w.value()) + b.value()

    save(predict, str(path), repro.TensorSpec([None, features], "float32"),
         freeze=False)


_X = np.ones((4,), np.float32)


def _value(reply):
    return float(np.asarray(reply["outputs"][0]).ravel()[0])


def _wait_ready(client, tries=100):
    for _ in range(tries):
        try:
            client.list_models()
            return
        except Exception:  # noqa: BLE001 - workers still booting
            time.sleep(0.05)
    raise AssertionError("fleet never became reachable")


def _wait_for(predicate, deadline=10.0, interval=0.05):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(interval)
    return False


def test_killed_worker_is_respawned_and_traffic_continues(tmp_path):
    _save_linear(tmp_path / "m", 1.0, 0.0)
    fleet = FleetServer(n_workers=2)
    fleet.register("score", tmp_path / "m")
    with fleet:
        client = ServingClient(fleet.url, retries=4)
        _wait_ready(client)
        for _ in range(4):
            assert _value(client.predict("score", [_X])) == 4.0

        victim = fleet._processes[0]
        victim_pid = victim.pid
        os.kill(victim_pid, signal.SIGKILL)

        # The supervisor reaps and refills the slot with a new process.
        assert _wait_for(
            lambda: (fleet._processes[0].pid != victim_pid
                     and fleet._processes[0].is_alive())), (
            "worker 0 was never respawned")
        assert fleet._deaths == 1 and fleet._respawns == 1

        # Traffic keeps flowing (the survivor covers the gap; the
        # replacement joins the accept loop once booted).
        for _ in range(8):
            assert _value(client.predict("score", [_X])) == 4.0

        # The counts surface through both observability routes.
        supervisor = client.list_models()["fleet"]["supervisor"]
        assert supervisor["deaths"] == 1
        assert supervisor["respawns"] == 1
        assert len(supervisor["pids"]) == 2
        assert victim_pid not in supervisor["pids"]

        metrics = client.metrics()["fleet"]
        assert metrics["supervisor"]["deaths"] == 1
        assert metrics["supervisor"]["respawns"] == 1
        # Every worker slot still reports; the respawned worker restarts
        # its in-process counts from zero, so totals are per-incarnation
        # (survivors' counts persist, which is all we can promise).
        assert {w["worker"] for w in metrics["workers"]} == {0, 1}
        assert metrics["requests"] >= 1

        # The respawned worker actually serves: hammer until both pids
        # answer (the kernel load-balances accepts — of *connections*,
        # which are sticky, so every probe opens a fresh one; a handful
        # reaches both).
        seen = set()

        def hit():
            with ServingClient(fleet.url, retries=4) as probe:
                doc = probe.metrics()["fleet"]
                for w in doc["workers"]:
                    if w.get("pid"):
                        seen.add(w["pid"])
                probe.predict("score", [_X])
            return len(seen) >= 2

        assert _wait_for(hit, deadline=15.0, interval=0.1), (
            f"only {seen} ever published stats")


def test_clean_stop_after_respawn_leaves_nothing_behind(tmp_path):
    _save_linear(tmp_path / "m", 1.0, 0.0)
    fleet = FleetServer(n_workers=1)
    fleet.register("score", tmp_path / "m")
    fleet.start()
    try:
        client = ServingClient(fleet.url, retries=4)
        _wait_ready(client)
        victim_pid = fleet._processes[0].pid
        os.kill(victim_pid, signal.SIGKILL)
        assert _wait_for(
            lambda: (fleet._processes[0].pid != victim_pid
                     and fleet._processes[0].is_alive()))
        replacement = fleet._processes[0]
    finally:
        fleet.stop()
    # stop() took the supervisor down first, then the replacement: no
    # respawn raced the shutdown and nothing is left running.
    assert not replacement.is_alive()
    assert fleet._processes == []
    assert fleet._supervisor_doc is None
    # SIGCHLD handling is restored for whoever runs next.
    assert not fleet._sigchld_installed
