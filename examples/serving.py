#!/usr/bin/env python
"""Serving: train a model, export it, serve it, hot-swap its weights.

The full deployment story built on the backend-neutral ``Executable``
protocol:

  1. **train** — a ``@repro.function``-traced gradient-descent step
     updates ``Variable`` weights.  The weights are *captures* — runtime
     inputs of the compiled plan — so every optimizer step is visible to
     the next traced call with zero retraces;
  2. **export** — the same inference function exports two ways:
     ``freeze=True`` bakes the weights into a self-contained artifact,
     ``freeze=False`` ships the graph plus a separate named weight
     checkpoint;
  3. **load** — artifacts rehydrate into ``Executable``s without
     retracing (and without the training code);
  4. **serve** — ``repro.serving.ModelServer`` exposes them over
     HTTP/1.1 (binary tensor wire with JSON fallback).  The batcher runs
     a request the moment its worker is free and coalesces whatever
     arrives while a batch executes — no linger timer to tune;
  5. **clients** — ``ServingClient`` threads, each on its own
     persistent connection, hit the server concurrently and the batch
     statistics show the coalescing at work;
  6. **hot-swap** — ``client.swap_weights(...)`` replaces the served
     weights (and flips between registered versions) live, under
     traffic, without a restart or a retrace.

For the multi-process version of steps 4-6 — one socket, N worker
processes, shared-memory weight swaps — see ``fleet_serving.py``.
"""

import tempfile
import threading

import numpy as np

import repro
from repro import framework as fw
from repro.framework import ops
from repro.serving import ModelServer, ServingClient, load, save

RNG = np.random.default_rng(7)
N_FEATURES = 4

# Ground truth the model should recover: y = x @ w_true + b_true.
W_TRUE = RNG.normal(size=(N_FEATURES, 1)).astype(np.float32)
B_TRUE = np.float32(0.5)


def main():
    # --- 1. train ---------------------------------------------------------
    w = fw.Variable(np.zeros((N_FEATURES, 1), np.float32), name="w")
    b = fw.Variable(np.zeros((), np.float32), name="b")

    @repro.function
    def train_step(x, y):
        err = ops.matmul(x, w.value()) + b.value() - y
        loss = ops.reduce_mean(err * err)
        dw, db = fw.gradients(loss, [w.value(), b.value()])
        w.assign_sub(ops.multiply(dw, 0.1))
        b.assign_sub(ops.multiply(db, 0.1))
        return loss

    for step in range(200):
        x = RNG.normal(size=(32, N_FEATURES)).astype(np.float32)
        y = x @ W_TRUE + B_TRUE
        loss = train_step(x, y)
    print(f"trained: final loss {float(loss.numpy()):.6f} "
          f"(traces: {train_step.trace_count})")

    # --- 2. export a pure inference signature -----------------------------
    @repro.function
    def predict(x):
        return ops.matmul(x, w.value()) + b.value()

    path = tempfile.mkdtemp(prefix="repro-saved-")
    save(predict, path, repro.TensorSpec([None, N_FEATURES], "float32"))
    print(f"exported frozen signature to {path}")
    print("cache:", predict.pretty_cache())
    # The training step itself cannot leave the process — it mutates
    # Variables — and the diagnostics say so:
    print("train cache:", train_step.pretty_cache())

    # --- 3. load (no retracing, no Variables needed) ----------------------
    artifact = load(path)
    probe = RNG.normal(size=(1, N_FEATURES)).astype(np.float32)
    want = float((probe @ W_TRUE + B_TRUE)[0, 0])
    got = float(artifact.call_flat([probe]).numpy()[0, 0])
    assert abs(got - want) < 1e-2, (got, want)
    print(f"loaded artifact predicts {got:.4f} (true {want:.4f})")

    # --- 4 + 5. serve it, hit it with concurrent clients ------------------
    server = ModelServer()
    batcher = {"max_batch_size": 8}
    server.register("regress", artifact, batcher=batcher)
    n_clients, n_requests = 8, 5
    errors = []

    def hit(i):
        rng = np.random.default_rng(100 + i)
        try:
            # One persistent connection per client thread (binary wire,
            # JSON fallback), closed on the way out.
            with ServingClient(server.url) as c:
                for _ in range(n_requests):
                    x1 = rng.normal(size=(N_FEATURES,)).astype(np.float32)
                    reply = c.predict("regress", [x1])
                    want = float(x1 @ W_TRUE[:, 0] + B_TRUE)
                    got = float(np.asarray(reply["outputs"][0]).reshape(()))
                    assert abs(got - want) < 1e-2, (got, want)
        except Exception as e:  # noqa: BLE001
            errors.append(e)

    # --- 6. hot-swap: a second version + live weight replacement ----------
    swap_path = tempfile.mkdtemp(prefix="repro-saved-v2-")
    save(predict, swap_path, repro.TensorSpec([None, N_FEATURES], "float32"),
         freeze=False)  # graph + named weight checkpoint, not frozen
    server.register("regress", load(swap_path), version="2",
                    batcher=batcher)

    with server:
        client = ServingClient(server.url)
        threads = [threading.Thread(target=hit, args=(i,))
                   for i in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        v1_stats = client.list_models()["models"]["regress"]
        v1_batches = v1_stats["batch_stats"]
        assert v1_batches["requests"] == n_clients * n_requests

        # Activate version 2 (a pointer swap: zero retraces), then push
        # doubled weights into it while the server keeps running.  The
        # binary wire carries the ndarrays as raw buffers.
        client.swap_weights("regress", version="2")
        reply = client.swap_weights(
            "regress",
            weights={"w": 2.0 * W_TRUE, "b": np.float32(2.0 * B_TRUE)})
        probe2 = np.ones(N_FEATURES, np.float32)
        doubled = client.predict("regress", [probe2])
        want2 = 2.0 * float(probe2 @ W_TRUE[:, 0] + B_TRUE)
        got2 = float(np.asarray(doubled["outputs"][0]).reshape(()))
        assert abs(got2 - want2) < 2e-2, (got2, want2)
        assert doubled["version"] == "2"
        print(f"hot-swapped to version {reply['active_version']} with "
              f"weights {reply['swapped']}: predicts {got2:.4f} "
              f"(want {want2:.4f})")

        stats = client.list_models()["models"]["regress"]
    assert not errors, errors
    latency = stats["latency"]
    print(f"served {stats['requests']} requests "
          f"(p50 {latency['p50_ms']}ms, p99 {latency['p99_ms']}ms) "
          f"across versions {stats['versions']}")
    print(f"version-1 batching: {v1_batches['requests']} requests in "
          f"{v1_batches['batches']} batches "
          f"(largest batch: {v1_batches['max_batch_size']})")
    print("OK")


if __name__ == "__main__":
    main()
