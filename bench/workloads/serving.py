"""Workloads that serve a saved function from a fleet process.

Both use the production shape - ``FleetServer(n_workers=1)``, so the
server runs in its own process - and two closed-loop ``ServingClient``
threads over loopback HTTP with the binary wire.  ``serve_small`` sends
one 128-float example per request through the default micro-batcher, so
connection handling, routing and the batcher's queue wait dominate;
``serve_large`` sends a 1 MB tensor per request to an unbatched
one-matmul model, so the wire codec and socket byte movement dominate.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import tempfile
import time
import urllib.request

import numpy as np

import repro
from repro import observe
from repro.serving import FleetServer, MicroBatcher, ServingClient, wire
from repro.serving import client as client_lib
from repro.serving.saved_function import load, save

from .. import models, reference
from ..measure import Caller, p50
from .base import Workload, require

__all__ = ["ServeSmall", "ServeLarge"]

CLIENTS = 2
MODEL = "model"


class _Serving(Workload):
    #: ``None``: the server's default micro-batcher; ``False``: unbatched.
    batcher = None
    # Mostly timer and I/O wait, and two callers beside a server process.
    calibrated = False
    #: A reply is a float32 dot product of hundreds of O(1) terms that
    #: largely cancel, and the server may compute it in a batch of two
    #: where the reference computes it alone: the rounding differs by up
    #: to 1e-4 in absolute terms however small the result (a wrong model
    #: or a misrouted request is off by O(1)).
    atol = 1e-3

    def build(self):
        """Return ``(function, input spec, per-client request tensors,
        per-client expected outputs)`` from ``self.rng``."""
        raise NotImplementedError

    def to_batch(self, x):
        """A request tensor as the model's (batched) input."""
        return x

    # -- protocol ----------------------------------------------------------

    def setup(self):
        fn, spec, self.requests, self.expected = self.build()
        self.path = pathlib.Path(tempfile.gettempdir()) / f"artifact-{self.name}"
        save(fn, str(self.path), spec)
        self.fleet = FleetServer(n_workers=1)
        self.fleet.register(MODEL, self.path, batcher=self.batcher)
        started = time.perf_counter()
        self.fleet.start()
        # Every shared-memory segment of this fleet starts with this.
        self.shm_prefix = self.fleet._namespace
        try:
            self.url = self.fleet.url
            reply = self._first_reply()
            self.fleet_start_s = time.perf_counter() - started
            require(self._reply_ok(reply, 0),
                    "first reply differs from the NumPy reference")
            require(not observe.enabled(), "repro.observe must be off")
            # One entry per 503 a client saw (list.append is atomic).
            self.sheds = []
            self.metrics_before = ServingClient(self.url).metrics()
        except BaseException:
            self.teardown()
            raise

    def _first_reply(self):
        client = ServingClient(self.url, retries=0, timeout=10.0)
        deadline = time.perf_counter() + 30.0
        while True:
            try:
                return client.predict(MODEL, [self.requests[0]])
            except (OSError, client_lib.ServingError):
                # The worker is still loading the artifact.
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.01)

    def _reply_ok(self, reply, i):
        return reference.allclose(
            [np.asarray(o) for o in reply["outputs"]], [self.expected[i]],
            atol=self.atol)

    def _caller(self, i, op):
        def guarded():
            try:
                return op()
            except client_lib.QueueFullError:
                self.sheds.append(1)
                raise

        return Caller(guarded, lambda reply: self._reply_ok(reply, i))

    def callers(self):
        callers = []
        for i in range(CLIENTS):
            client = ServingClient(self.url)
            inputs = [self.requests[i]]
            callers.append(self._caller(
                i, lambda c=client, x=inputs: c.predict(MODEL, x)))
        return callers

    def traced_callers(self, spans):
        """``ServingClient.predict`` taken apart at its layer boundaries:
        encode, the HTTP round trip, decode."""
        endpoint = f"{self.url}/v1/models/{MODEL}:predict"
        headers = {"Content-Type": wire.CONTENT_TYPE,
                   "Accept": wire.CONTENT_TYPE}

        def round_trip(body):
            request = urllib.request.Request(
                endpoint, data=body, headers=headers)
            with urllib.request.urlopen(request, timeout=10.0) as response:
                return response.read()

        def traced_op(doc):
            body = spans.call("serving.wire.encode", wire.encode, doc)
            raw = spans.call("serving.client.http_round_trip",
                             round_trip, body)
            return spans.call("serving.wire.decode", wire.decode, raw)

        return [
            self._caller(i, lambda doc={"inputs": [self.requests[i]]}:
                         spans.operation(lambda: traced_op(doc)))
            for i in range(CLIENTS)
        ]

    def layers(self, spans, untraced, probes):
        x = self.requests[0]
        client = ServingClient(self.url)
        for _ in range(probes.slow):
            loaded = spans.call("serving.saved_function.load",
                                load, str(self.path))
        batch = self.to_batch(x)
        call_flat = p50(lambda: loaded.call_flat([batch]), probes.fast)

        # The wire, both directions: the request and the reply document,
        # each encoded on one side and decoded on the other.
        request_doc = {"inputs": [x]}
        reply_doc = client.predict(MODEL, [x])
        request_raw, reply_raw = (wire.encode(request_doc),
                                  wire.encode(reply_doc))
        encode = (p50(lambda: wire.encode(request_doc), probes.fast)
                  + p50(lambda: wire.encode(reply_doc), probes.fast))
        decode = (p50(lambda: wire.decode(request_raw), probes.fast)
                  + p50(lambda: wire.decode(reply_raw), probes.fast))

        metrics = {
            "serving.saved_function.load_ms":
                spans.p50("serving.saved_function.load") * 1e3,
            "serving.saved_function.call_flat_us": call_flat * 1e6,
            "serving.wire.encode_us": encode * 1e6,
            "serving.wire.decode_us": decode * 1e6,
            "serving.wire.bytes_per_request":
                len(request_raw) + len(reply_raw),
            "serving.fleet.start_ms": self.fleet_start_s * 1e3,
            "serving.client.latency_p99_us": untraced["raw_p99_s"] * 1e6,
            "framework.kernels.numpy_floor_us":
                p50(self.numpy_forward, probes.fast) * 1e6,
        }
        execute = call_flat
        if self.batcher is None:
            # In process, one submitter: the coalescing timeout is paid in
            # full on every call, as it is by a lone client.
            with MicroBatcher(loaded) as batcher:
                execute = p50(lambda: batcher.submit([x]), probes.slow)
            metrics["serving.batching.submit_us"] = execute * 1e6
        metrics["serving.server.transport_us"] = (
            untraced["raw_p50_s"] - encode - decode - execute) * 1e6

        # The server's own view.
        described = client.list_models()["models"][MODEL]
        metrics["serving.server.reported_p50_us"] = (
            described["latency"]["p50_ms"] * 1e3)
        metrics["serving.server.shed"] = (
            len(self.sheds) + described.get("batch_stats", {}).get("rejected", 0))
        if self.batcher is None:
            now = client.metrics()["counters"]
            before = self.metrics_before["counters"]
            batches = (now.get("serving.batches", 0)
                       - before.get("serving.batches", 0))
            metrics["serving.batching.avg_batch_size"] = (
                (now.get("serving.batched_requests", 0)
                 - before.get("serving.batched_requests", 0))
                / batches)
        return metrics

    def teardown(self):
        self.fleet.stop()
        leaked = [name for name in os.listdir("/dev/shm")
                  if name.startswith(self.shm_prefix)]
        children = multiprocessing.active_children()
        if leaked or children:
            raise RuntimeError(
                f"fleet teardown leaked shm segments {leaked} or child "
                f"processes {children}")


class ServeSmall(_Serving):
    name = "serve_small"
    FEATURES = 128
    HIDDEN = 256
    LAYERS = 16

    def build(self):
        rng = self.rng
        # The scale keeps tanh out of saturation through 16 layers.
        weights = [0.1 * rng.normal(size=(self.FEATURES, self.HIDDEN))]
        weights += [0.1 * rng.normal(size=(self.HIDDEN, self.HIDDEN))
                    for _ in range(self.LAYERS - 1)]
        self.weights = [w.astype(np.float32) for w in weights]
        self.w_out = rng.normal(size=(self.HIDDEN, 1)).astype(np.float32)
        requests = [rng.normal(size=(self.FEATURES,)).astype(np.float32)
                    for _ in range(CLIENTS)]
        expected = [
            reference.numpy_mlp(self.weights, self.w_out, x[None, :])[0]
            for x in requests]
        fn = repro.function(models.make_mlp(self.weights, self.w_out))
        spec = repro.TensorSpec([None, self.FEATURES], "float32")
        return fn, spec, requests, expected

    def to_batch(self, x):
        return x[None, :]

    def numpy_forward(self):
        return reference.numpy_mlp(self.weights, self.w_out,
                                   self.requests[0][None, :])


class ServeLarge(_Serving):
    name = "serve_large"
    batcher = False
    ROWS = 256
    COLS = 1024
    OUT = 8

    def build(self):
        rng = self.rng
        self.w = (0.05 * rng.normal(size=(self.COLS, self.OUT))).astype(
            np.float32)
        requests = [rng.normal(size=(self.ROWS, self.COLS)).astype(np.float32)
                    for _ in range(CLIENTS)]
        expected = [reference.numpy_matmul(x, self.w) for x in requests]
        fn = repro.function(models.make_projection(self.w))
        spec = repro.TensorSpec([self.ROWS, self.COLS], "float32")
        return fn, spec, requests, expected

    def numpy_forward(self):
        return reference.numpy_matmul(self.requests[0], self.w)
