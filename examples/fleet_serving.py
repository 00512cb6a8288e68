#!/usr/bin/env python
"""Fleet serving: one socket, N worker processes, shared-memory swaps.

``examples/serving.py`` serves from one process; this example runs the
production-shaped version — ``repro.serving.FleetServer``:

  1. **export** — two versions of a linear model are saved with
     ``freeze=False`` (graph + named weight checkpoint), the loadable
     unit a fleet worker boots from;
  2. **prefork** — the parent binds the socket, creates the shared
     state, and forks worker processes; the kernel load-balances
     accepts across them.  Connections are persistent, so what it
     balances is *connections*: a ``ServingClient`` stays with the
     worker that accepted it, and a fresh client is how to reach
     whichever worker is next;
  3. **shared weights** — capture values live in POSIX shared memory
     with a generation counter, so one ``swap_weights`` call rebinds
     every worker atomically (a pointer bump, not N copies);
  4. **fleet control** — version activation and canary splits
     propagate the same way: write once, every worker follows;
  5. **observability** — ``GET /v1/models`` merges per-worker request
     counts and latency percentiles into one fleet view, and
     ``GET /v1/metrics`` merges the workers' latency histograms into one
     fleet-wide distribution.
"""

import collections
import tempfile
import threading
import time

import numpy as np

import repro
from repro import framework as fw
from repro.framework import ops
from repro.serving import FleetServer, ServingClient, save

N_FEATURES = 4


def export(path, scale, bias):
    """Save y = x @ W + b with W = scale * ones, b = bias * ones."""
    w = fw.Variable(np.full((N_FEATURES, 1), scale, np.float32),
                    name=f"w{scale}")
    b = fw.Variable(np.full((1,), bias, np.float32), name=f"b{scale}")

    @repro.function
    def predict(x):
        return ops.matmul(x, w.value()) + b.value()

    save(predict, path, repro.TensorSpec([None, N_FEATURES], "float32"),
         freeze=False)
    return w.name, b.name


def wait_ready(client):
    for _ in range(200):
        try:
            client.list_models()
            return
        except Exception:  # noqa: BLE001 - workers still booting
            time.sleep(0.05)
    raise AssertionError("fleet never became reachable")


def main():
    # --- 1. export two versions -------------------------------------------
    v1 = tempfile.mkdtemp(prefix="repro-fleet-v1-")
    v2 = tempfile.mkdtemp(prefix="repro-fleet-v2-")
    w_name, b_name = export(v1, scale=1.0, bias=0.0)   # y = sum(x)
    export(v2, scale=2.0, bias=1.0)                    # y = 2 sum(x) + 1

    # --- 2. prefork a two-worker fleet ------------------------------------
    fleet = FleetServer(n_workers=2)
    fleet.register("score", v1)
    fleet.register("score", v2, version="2")

    x = np.ones((N_FEATURES,), np.float32)  # sum(x) = 4

    def probe():
        """One predict on a fresh connection: whichever worker accepts."""
        with ServingClient(fleet.url) as c:
            return float(np.asarray(
                c.predict("score", [x])["outputs"][0]).reshape(()))

    with fleet:
        client = ServingClient(fleet.url)  # binary wire by default
        wait_ready(client)

        # Both workers answer from the same shared weights.
        values = [probe() for _ in range(20)]
        assert set(values) == {4.0}, values

        # --- 3. one swap, every worker ------------------------------------
        client.swap_weights("score", weights={
            w_name: np.full((N_FEATURES, 1), -1.0, np.float32),
            b_name: np.full((1,), 10.0, np.float32),
        })
        swapped = [probe() for _ in range(20)]
        assert set(swapped) == {6.0}, swapped  # -4 + 10, never torn
        print("fleet-wide weight swap: 4.0 -> 6.0 on every worker")

        # --- 4. canary, then promote --------------------------------------
        client.set_canary("score", version="2", fraction=0.25)
        drawn = collections.Counter(
            client.predict("score", [x])["version"] for _ in range(100))
        assert set(drawn) == {"1", "2"}, drawn
        print(f"canary at 25%: {drawn['2']}/100 requests went to v2")

        client.swap_weights("score", version="2")
        client.set_canary("score", fraction=0.0)
        assert client.predict("score", [x])["version"] == "2"
        print("promoted version 2 fleet-wide")

        # --- 5. fleet observability ---------------------------------------
        def hammer():
            with ServingClient(fleet.url, retries=3) as c:
                for _ in range(25):
                    c.predict("score", [x])

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        info = client.list_models()
        workers = info["fleet"]["workers"]
        served = sum(w.get("requests", 0) for w in workers)
        generations = info["fleet"]["weight_generations"]
        latency = client.metrics()["fleet"]["latency"]["score"]

    assert len(workers) == 2
    assert served >= 100
    print(f"{len(workers)} workers served {served} requests "
          f"(weight generations: {generations})")
    print(f"fleet-wide latency over {latency['count']} predicts: "
          f"p50 {latency['p50_ms']}ms, p99 {latency['p99_ms']}ms")
    print("OK")


if __name__ == "__main__":
    main()
