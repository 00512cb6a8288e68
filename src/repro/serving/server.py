"""``ModelServer``: an HTTP front over named executables.

Routes (JSON in/out by default; ``:predict`` and ``:swap_weights`` also
speak the binary tensor wire format — send
``Content-Type: application/x-repro-tensor`` bodies and/or
``Accept: application/x-repro-tensor`` to skip JSON tensor encoding
entirely, see :mod:`repro.serving.wire`):

- ``GET /v1/models`` — every served signature: backend, input specs,
  versions, batching configuration, canary split, request counts,
  latency stats and engine (bound-plan) info;
- ``GET /v1/models/<name>`` — one signature's metadata;
- ``GET /v1/metrics`` — the live :mod:`repro.observe` counter snapshot
  (engine, function-cache and serving counters) plus per-model request
  counts and latency stats; a fleet worker answers with the counters of
  *every* worker merged from the shared stats blocks;
- ``POST /v1/models/<name>:predict`` with body ``{"inputs": [...]}`` —
  one value per signature entry; responds ``{"outputs": [...],
  "backend": ..., "version": ...}`` with the flattened result leaves.
  An ``X-Repro-Priority: high`` header routes the request onto the
  batcher's high lane (drained first, shed last);
- ``POST /v1/models/<name>:swap_weights`` — live model management with
  **zero retraces**: body ``{"weights": {<capture>: values}}`` replaces
  the active version's capture values in place, body
  ``{"version": <label>}`` atomically activates another registered
  version, and both may be combined (swap then activate);
- ``POST /v1/models/<name>:canary`` with ``{"version", "fraction"}`` —
  split that fraction of predict traffic onto another registered
  version (``fraction: 0`` clears the split);
- ``DELETE /v1/models/<name>/versions/<version>`` — version GC: unload
  an *inactive* version (drains its batcher, drops its executable).

Every error reply carries one uniform envelope::

    {"error": {"code": <machine code>, "message": <human text>}}

with codes ``bad_request`` (400), ``not_found`` (404),
``active_version`` (409), ``unsupported_media_type`` (415),
``queue_full`` (503, with a ``Retry-After`` header) and ``internal``
(500); :class:`repro.serving.client.ServingClient` maps them back onto a
typed exception hierarchy.

Registration goes through one entry point::

    server.register(name, source, version=..., batcher=...)

where ``source`` is an :class:`~repro.function.Executable`, a
polymorphic :class:`~repro.function.Function` (select its signature with
``signature=(specs...)``), or a saved-artifact *path* (loaded via
:func:`~repro.serving.saved_function.load`).  Registering an existing
name adds a version; ``batcher=`` is ``None`` (default micro-batching),
``False`` (unbatched) or a dict of :class:`MicroBatcher` options.

Connections are persistent (HTTP/1.1): each *connection* gets a thread
(``ThreadingHTTPServer``) serving request after request until the
client closes, idles for ``IDLE_TIMEOUT_SECONDS`` or the server stops —
:meth:`ModelServer.stop` ends every connection and joins its thread.
A reply leaves in one ``send`` with ``TCP_NODELAY`` (a separate header
write would stall ~40 ms on delayed ACKs), and every route reads its
request body before replying, so no reply leaves bytes behind to be
parsed as the next request.  Batched signatures funnel through a
per-version :class:`~repro.serving.MicroBatcher`: predicts that arrive
while a batch executes coalesce into the next.  Latency is kept per
signature in a :class:`LatencyHistogram`.  Load shedding is two-layered:
the batcher's ``max_queue`` bounds queued work per signature, and
``ModelServer(max_inflight=N)`` bounds concurrently executing predicts
per process — both reject with 503 + ``Retry-After`` instead of
queueing without limit.

A signature may serve several *versions* side by side — each version is
its own executable (and batcher), so activating one is a single
attribute rebind: in-flight requests finish on the version they started
on, later requests see the new one, and nothing retraces.  For a
multi-process front over the same routes, see
:class:`repro.serving.fleet.FleetServer`, which runs N prefork workers
(each one of these servers) behind a shared listening socket with
weights in shared memory.
"""

from __future__ import annotations

import json
import math
import os
import random
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from ..framework import nest
from ..framework.eager.tensor import EagerTensor
from ..framework.errors import FrameworkError
from ..function.executable import Executable, resolve_executable
from ..function.tensor_spec import TensorSpec
from ..observe.events import RECORDER as _REC
from . import wire
from .batching import MicroBatcher, QueueFullError

__all__ = ["ActiveVersionError", "IDLE_TIMEOUT_SECONDS", "LatencyHistogram",
           "ModelServer", "RETRY_AFTER_SECONDS"]


class ActiveVersionError(ValueError):
    """Refusal to garbage-collect the version currently serving traffic
    (HTTP 409 Conflict): activate another version first, then delete."""


#: Advised by 503 replies; load-shed clients should back off at least
#: this long before retrying.
RETRY_AFTER_SECONDS = 1

#: Handlers close a connection this long idle (clients just reconnect).
IDLE_TIMEOUT_SECONDS = 60.0

#: MicroBatcher options a ``batcher=`` dict may carry, with defaults.
_DEFAULT_BATCHER = {"batch_axis": 0, "max_batch_size": 32,
                    "pad_value": None, "max_queue": None}


class LatencyHistogram:
    """Latencies in fixed log-spaced buckets: O(1) ``record``, quantiles
    from the occupied buckets (at most ``BUCKETS``), and — unlike a
    sliding window of samples — histograms merge by adding counts, so a
    fleet reports one distribution across its workers.

    Bucket ``i`` covers ``[2**(i/8), 2**((i+1)/8))`` microseconds; a
    quantile reports its geometric mid-point, within
    :attr:`RELATIVE_ERROR` (4.4%) of the exact order statistic.  Count
    and mean are exact; samples outside 1 us .. 134 s clamp to the ends.
    """

    PER_OCTAVE = 8
    BUCKETS = 27 * PER_OCTAVE
    RELATIVE_ERROR = 2.0 ** (0.5 / PER_OCTAVE) - 1.0

    __slots__ = ("count", "total", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0.0     # seconds
        self.buckets = {}    # bucket index -> samples (occupied ones only)

    def record(self, seconds):
        us = seconds * 1e6
        index = int(math.log2(us) * self.PER_OCTAVE) if us > 1.0 else 0
        index = min(index, self.BUCKETS - 1)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.total += seconds

    def quantile(self, q):
        """The ``q``-quantile in seconds (0.0 when empty)."""
        rank = min(self.count - 1, int(q * self.count))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen > rank:
                return 2.0 ** ((index + 0.5) / self.PER_OCTAVE) * 1e-6
        return 0.0

    def stats(self):
        mean = self.total / self.count if self.count else 0.0
        return {
            "count": self.count,
            "mean_ms": round(mean * 1e3, 3),
            "p50_ms": round(self.quantile(0.50) * 1e3, 3),
            "p99_ms": round(self.quantile(0.99) * 1e3, 3),
        }

    def to_doc(self):
        """``stats()`` plus the mergeable state in sparse JSON form:
        occupied buckets as a flat ``[index, samples, ...]`` list."""
        flat = [v for item in sorted(self.buckets.items()) for v in item]
        return {**self.stats(), "total": self.total, "buckets": flat}

    def merge(self, doc):
        """Add the samples of another histogram's ``to_doc()``."""
        flat = doc["buckets"]
        for index, n in zip(flat[0::2], flat[1::2]):
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.count += doc["count"]
        self.total += doc["total"]
        return self


class _Version:
    """One registered executable version of an endpoint."""

    __slots__ = ("label", "executable", "batcher", "batch_config")

    def __init__(self, label, executable, batch_config):
        self.label = label
        self.executable = executable
        # None = unbatched; otherwise MicroBatcher kwargs, kept so a
        # stopped-and-restarted server rebuilds an equivalent batcher.
        self.batch_config = batch_config
        self.batcher = None

    def ensure_batcher(self):
        if self.batch_config is not None and self.batcher is None:
            self.batcher = MicroBatcher(self.executable, **self.batch_config)

    def close_batcher(self):
        if self.batcher is not None:
            self.batcher.close()
            self.batcher = None


class _Endpoint:
    __slots__ = ("name", "versions", "active", "canary", "_lock",
                 "_latency")

    def __init__(self, name):
        self.name = name
        self.versions = {}
        self.active = None
        # (version label, fraction of predict traffic) or None.
        self.canary = None
        self._lock = threading.Lock()
        self._latency = LatencyHistogram()

    def add_version(self, label, executable, batch_config, running):
        if label in self.versions:
            raise ValueError(
                f"Signature {self.name!r} already has a version {label!r}"
            )
        if self.versions:
            reference = next(iter(self.versions.values())).executable
            if len(executable.signature) != len(reference.signature):
                raise ValueError(
                    f"Version {label!r} of {self.name!r} takes "
                    f"{len(executable.signature)} arguments; existing "
                    f"versions take {len(reference.signature)}"
                )
        version = _Version(label, executable, batch_config)
        if running:
            version.ensure_batcher()
        self.versions[label] = version
        if self.active is None:
            self.active = label
        return version

    def version(self, label):
        try:
            return self.versions[label]
        except KeyError:
            raise KeyError(
                f"{self.name!r} has no version {label!r}; registered: "
                f"{sorted(self.versions)}") from None

    def activate(self, label):
        self.version(label)
        # One attribute rebind: requests snapshot the active version, so
        # the switch is atomic with respect to in-flight traffic.
        self.active = label

    def remove_version(self, label):
        self.version(label)
        if label == self.active:
            raise ActiveVersionError(
                f"Version {label!r} of {self.name!r} is the active "
                "version; activate another version before removing it"
            )
        if self.canary is not None and self.canary[0] == label:
            self.canary = None
        return self.versions.pop(label)

    def active_version(self):
        return self.versions[self.active]

    def routed_version(self):
        """The version this predict request executes on: the canary
        version for its traffic fraction, the active version otherwise."""
        canary = self.canary
        if canary is not None and random.random() < canary[1]:
            version = self.versions.get(canary[0])
            if version is not None:
                return version
        return self.versions[self.active]

    @property
    def requests(self):
        return self._latency.count

    def record_latency(self, seconds):
        with self._lock:
            self._latency.record(seconds)

    def latency_stats(self):
        with self._lock:
            return self._latency.stats()

    def latency_doc(self):
        """Stats plus the sparse histogram (what a fleet worker
        publishes for its siblings to merge)."""
        with self._lock:
            return self._latency.to_doc()

    def describe(self):
        version = self.active_version()
        executable = version.executable
        info = {
            "backend": executable.backend,
            "signature": [
                repr(s) if isinstance(s, TensorSpec) else s
                for s in executable.signature
            ],
            "batching": version.batch_config is not None,
            "requests": self.requests,
            "latency": self.latency_stats(),
            "versions": sorted(self.versions),
            "active_version": self.active,
        }
        if self.canary is not None:
            info["canary"] = {"version": self.canary[0],
                              "fraction": self.canary[1]}
        engine = executable.engine_stats()
        if engine:
            info["engine"] = engine
        if version.batcher is not None:
            info["batch_stats"] = version.batcher.stats._asdict()
        return info


class ModelServer:
    """Serve named :class:`~repro.function.Executable` signatures.

    ::

        server = ModelServer()
        server.register("score", model_fn, signature=(spec,))
        server.register("score", model_fn_v2, signature=(spec,),
                        version="2")
        with server:                                     # start/stop
            client = repro.serving.ServingClient(server.url)
            reply = client.predict("score", [[1.0, 2.0, 3.0, 4.0]])
            client.swap_weights("score", version="2")
    """

    def __init__(self, host="127.0.0.1", port=0, max_inflight=None):
        """``max_inflight`` bounds concurrently *executing* predict
        requests in this process; requests over the bound shed with 503
        + ``Retry-After`` (``None`` = unbounded)."""
        self._host = host
        self._port = port
        self._endpoints = {}
        self._httpd = None
        self._thread = None
        self._swap_lock = threading.Lock()
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1 (or None)")
        self._max_inflight = max_inflight
        self._inflight_sem = (
            None if max_inflight is None
            else threading.BoundedSemaphore(max_inflight))

    # -- registration ------------------------------------------------------

    def register(self, name, source, *, signature=(), version="1",
                 activate=None, batcher=None):
        """The one registration entry point.

        Args:
          name: URL-visible signature name.  A new name creates the
            endpoint; an existing name registers another *version* of it.
          source: what to serve — an :class:`~repro.function.Executable`,
            a polymorphic :class:`~repro.function.Function` (its
            signature selected, and traced if needed, by ``signature=``),
            or a saved-artifact path (``str`` / ``os.PathLike``, loaded
            via :func:`~repro.serving.saved_function.load`).
          signature: positional specs/values selecting a Function's
            signature, exactly like ``get_concrete_function``.
          version: label for this version (default ``"1"``).
          activate: switch traffic to this version immediately.  Default
            (``None``): the first registered version of a name becomes
            active, later ones serve but do not take traffic.
          batcher: ``None`` — micro-batch with default settings;
            ``False`` — serve unbatched (requests carry full tensors);
            a dict — :class:`MicroBatcher` options
            (``batch_axis``, ``max_batch_size``, ``pad_value``,
            ``max_queue``) overriding the defaults.

        Returns:
          The registered executable.
        """
        if isinstance(source, (str, os.PathLike)):
            from .saved_function import load

            if signature:
                raise TypeError(
                    "register(path) takes no signature= (artifacts are "
                    "already one concrete signature)"
                )
            executable = load(source)
        elif isinstance(source, Executable):
            executable = resolve_executable(source, (), {}, "register")
        else:
            executable = resolve_executable(
                source, tuple(signature), {}, "register")
        batch_config = self._batch_config(batcher)
        endpoint = self._endpoints.get(name)
        if endpoint is None:
            endpoint = self._endpoints[name] = _Endpoint(name)
        endpoint.add_version(str(version), executable, batch_config,
                             running=self._httpd is not None)
        if activate:
            endpoint.activate(str(version))
        executable._mark_served(name)
        return executable

    @staticmethod
    def _batch_config(batcher):
        if batcher is False:
            return None
        if batcher is None:
            return dict(_DEFAULT_BATCHER)
        if isinstance(batcher, dict):
            unknown = set(batcher) - set(_DEFAULT_BATCHER)
            if unknown:
                raise TypeError(
                    f"Unknown batcher option(s) {sorted(unknown)}; "
                    f"valid: {list(_DEFAULT_BATCHER)}"
                )
            return {**_DEFAULT_BATCHER, **batcher}
        raise TypeError(
            f"batcher must be None, False or a dict of MicroBatcher "
            f"options, got {type(batcher).__name__}"
        )

    def _endpoint(self, name):
        try:
            return self._endpoints[name]
        except KeyError:
            raise KeyError(f"No signature {name!r}") from None

    def remove_version(self, name, version):
        """Unload (garbage-collect) an *inactive* version of ``name``.

        The version's batcher is drained and its executable dropped from
        the registry — the memory GC story for long-lived servers that
        keep registering new versions.  The active version is refused
        with :class:`ActiveVersionError` (HTTP 409 over the wire):
        activate another version first, so traffic never loses its
        target.  A canary split pointing at the removed version is
        cleared.  Requests that snapshotted the version before removal
        finish on it; remove after traffic has drained off the version
        for a clean cut.

        Also exposed as ``DELETE /v1/models/<name>/versions/<version>``.
        """
        endpoint = self._endpoint(name)
        with self._swap_lock:
            removed = endpoint.remove_version(str(version))
        # Outside the lock: close() joins the worker thread, which may be
        # mid-batch; swaps/activations need not wait on that drain.
        removed.close_batcher()
        return {
            "model": name,
            "removed": removed.label,
            "versions": sorted(endpoint.versions),
            "active_version": endpoint.active,
        }

    def set_canary(self, name, version=None, fraction=0.0):
        """Split ``fraction`` of ``name``'s predict traffic onto
        ``version`` (the canary); ``fraction=0`` clears the split.

        Both versions keep serving: each predict draws once, executes on
        exactly one version (never a mix), and reports which in its
        ``"version"`` reply field — measuring the split, and the canary's
        behavior, is just counting replies.
        """
        endpoint = self._endpoint(name)
        try:
            fraction = float(fraction)
        except (TypeError, ValueError):
            raise ValueError(
                f"canary fraction must be a number in [0, 1], got "
                f"{fraction!r}") from None
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(
                f"canary fraction must be within [0, 1], got {fraction}"
            )
        with self._swap_lock:
            if fraction == 0.0:
                endpoint.canary = None
            else:
                if version is None:
                    raise ValueError(
                        "a nonzero canary fraction needs a version label"
                    )
                try:
                    endpoint.version(str(version))
                except KeyError as e:
                    raise ValueError(e.args[0]) from None
                endpoint.canary = (str(version), fraction)
        return {
            "model": name,
            "canary": None if endpoint.canary is None else
            {"version": endpoint.canary[0], "fraction": endpoint.canary[1]},
        }

    # -- lifecycle ---------------------------------------------------------

    @property
    def url(self):
        if self._httpd is None:
            raise RuntimeError("ModelServer is not running")
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def _versions(self):
        return [version for endpoint in self._endpoints.values()
                for version in endpoint.versions.values()]

    def _ensure_batchers(self):
        # A restarted server gets fresh batchers (stop() drained the old
        # ones) so batched signatures stay batched across restarts.
        for version in self._versions():
            version.ensure_batcher()

    def start(self):
        """Bind and serve on a daemon thread; returns the base URL."""
        if self._httpd is not None:
            raise RuntimeError("ModelServer is already running")
        self._ensure_batchers()
        self._httpd = _ConnectionTrackingServer(
            (self._host, self._port), _make_handler(self))
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-model-server",
            daemon=True)
        self._thread.start()
        return self.url

    def stop(self):
        """Shut the listener down, end every established connection
        (joining its handler thread) and drain the batchers."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._thread.join()
            self._httpd.close_connections()
            self._httpd = None
            self._thread = None
        self._close_batchers()

    def _close_batchers(self):
        for version in self._versions():
            version.close_batcher()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
        return False

    # -- fleet hooks (overridden by fleet workers) -------------------------

    def _sync_endpoint(self, name):
        """Pull fleet-shared state (active version, canary, weight
        generation) before touching ``name``; no-op standalone."""

    def _fleet_info(self):
        """Extra fleet-wide observability for ``GET /v1/models``."""
        return {}

    def _metrics_info(self):
        """Fleet hook: merged per-worker counters for ``/v1/metrics``."""
        return {}

    def _request_served(self):
        """Post-request hook (fleet workers publish stats here)."""

    # -- request plumbing (called from handler threads) --------------------

    def _describe_all(self):
        for name in self._endpoints:
            self._sync_endpoint(name)
        doc = {"models": {name: endpoint.describe()
                          for name, endpoint in self._endpoints.items()}}
        doc.update(self._fleet_info())
        return doc

    def _metrics(self):
        """The ``GET /v1/metrics`` document: this process's live
        :mod:`repro.observe` counters (engine, function-cache, serving)
        plus per-model request counts and latency stats.  Fleet workers
        add the merged per-worker view via :meth:`_metrics_info`."""
        doc = {
            "counters": _REC.counters(),
            "models": {
                name: {
                    "requests": ep.requests,
                    "latency": ep.latency_stats(),
                }
                for name, ep in self._endpoints.items()
            },
        }
        doc.update(self._metrics_info())
        return doc

    def _describe_one(self, name):
        endpoint = self._endpoint(name)
        self._sync_endpoint(name)
        return {name: endpoint.describe()}

    def _predict(self, name, body, priority=None):
        endpoint = self._endpoint(name)
        self._sync_endpoint(name)
        priority = (priority or "normal").strip().lower()
        if priority not in ("normal", "high"):
            raise ValueError(
                f"X-Repro-Priority must be 'normal' or 'high', "
                f"got {priority!r}")
        started = time.perf_counter()
        # Snapshot the routed version once: a concurrent version swap (or
        # server stop) cannot hand this request half of each version.
        version = endpoint.routed_version()
        executable = version.executable
        inputs = body.get("inputs") if isinstance(body, dict) else None
        signature = executable.signature
        if not isinstance(inputs, list) or len(inputs) != len(signature):
            raise ValueError(
                f"Body must carry 'inputs': a list of "
                f"{len(signature)} values (one per signature entry)"
            )
        values = []
        for value, spec in zip(inputs, signature):
            if isinstance(spec, TensorSpec):
                # Binary-wire inputs arrive as correctly-typed ndarray
                # views and pass through asarray copy-free; JSON inputs
                # (nested lists) materialize here.
                value = np.asarray(value, dtype=spec.dtype.np_dtype)
            values.append(value)
        slots = self._inflight_sem
        if slots is not None and not slots.acquire(blocking=False):
            raise QueueFullError(
                f"worker is at max_inflight={self._max_inflight} "
                "concurrently executing requests; retry later"
            )
        try:
            result = self._execute(version, values, priority)
        finally:
            if slots is not None:
                slots.release()
        outputs = [leaf.numpy() if isinstance(leaf, EagerTensor) else leaf
                   for leaf in nest.flatten(result)]
        endpoint.record_latency(time.perf_counter() - started)
        _REC.counter("serving.requests")
        _REC.counter(f"serving.requests.{name}")
        if _REC.enabled:
            _REC.end(f"predict:{name}", "request", started, {
                "model": name, "version": version.label,
                "priority": priority,
            })
        self._request_served()
        return {"outputs": outputs, "backend": executable.backend,
                "version": version.label}

    def _execute(self, version, values, priority):
        # Snapshot: stop() may null the batcher under an in-flight
        # handler thread.  A drained batcher raises its own "closed"
        # error; an already-nulled one must NOT fall through to the
        # unbatched path (these values are single examples without the
        # batch axis).
        batcher = version.batcher
        if batcher is not None:
            return batcher.submit(values, priority=priority)
        if version.batch_config is not None:
            raise RuntimeError("ModelServer is stopping")
        return version.executable.call_flat(values)

    def _swap_weights(self, name, body):
        endpoint = self._endpoint(name)
        self._sync_endpoint(name)
        weights = body.get("weights")
        target = body.get("version")
        if weights is None and target is None:
            raise ValueError(
                "Body must carry 'weights' (capture name -> values) "
                "and/or 'version' (a registered version label)"
            )
        swapped = []
        try:
            with self._swap_lock:
                if weights is not None:
                    if not isinstance(weights, dict):
                        raise ValueError("'weights' must map capture names "
                                         "to nested-list values")
                    label = (str(target) if target is not None
                             else endpoint.active)
                    self._apply_weights(
                        name, label, endpoint.version(label), weights)
                    swapped = sorted(weights)
                if target is not None:
                    self._activate(name, endpoint, str(target))
        except KeyError as e:  # unknown version label or capture name
            raise ValueError(e.args[0]) from None
        self._request_served()
        return {
            "model": name,
            "active_version": endpoint.active,
            "swapped": swapped,
        }

    def _apply_weights(self, name, label, version, weights):
        """Swap one version's capture values (fleet workers override to
        publish into shared memory instead)."""
        # No dtype here: each backend casts to the capture's own dtype
        # (float32 would corrupt wider captures).
        version.executable.set_capture_values({
            k: np.asarray(v) for k, v in weights.items()
        })

    def _activate(self, name, endpoint, label):
        """Activate a version (fleet workers override to publish the
        label fleet-wide)."""
        endpoint.activate(label)

    def _set_canary_route(self, name, body):
        if not isinstance(body, dict):
            raise ValueError("Body must be an object with 'version' and "
                             "'fraction'")
        self._sync_endpoint(name)
        result = self.set_canary(name, body.get("version"),
                                 body.get("fraction", 0.0))
        self._request_served()
        return result


class _ConnectionTrackingServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` that keeps its established connections
    on the books, so stopping can end them: with HTTP/1.1 keep-alive a
    handler thread lives as long as its client holds the connection."""

    daemon_threads = True

    def __init__(self, address, handler, sock=None):
        """``sock``: adopt this already-listening socket (a fleet's
        fork-inherited one) instead of binding ``address``."""
        super().__init__(address, handler, bind_and_activate=sock is None)
        if sock is not None:
            self.socket.close()
            self.socket = sock
            self.server_address = sock.getsockname()[:2]
        self._connections = {}  # accepted socket -> its handler thread
        self._connections_lock = threading.Lock()

    def process_request(self, request, client_address):
        # Runs on the accept loop's own thread, so a connection is
        # recorded before shutdown() can return.
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            name="repro-serving-connection", daemon=True)
        with self._connections_lock:
            self._connections[request] = thread
        thread.start()

    def shutdown_request(self, request):
        with self._connections_lock:
            self._connections.pop(request, None)
        super().shutdown_request(request)

    def close_connections(self, join_timeout=5.0):
        """End every connection and join its thread.  ``SHUT_RD``, not
        ``SHUT_RDWR``: a handler waiting for a request wakes with EOF
        and exits, one mid-request still gets its reply out first; a
        client reusing the connection later sees a reset, not a hang."""
        with self._connections_lock:
            connections = list(self._connections.items())
        for request, _ in connections:
            try:
                request.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # the peer (or the handler) closed it first
        for _, thread in connections:
            thread.join(join_timeout)


def _make_handler(server):
    class _Handler(BaseHTTPRequestHandler):
        # Persistent connections: handle() loops over one connection's
        # requests until either side closes it.
        protocol_version = "HTTP/1.1"
        timeout = IDLE_TIMEOUT_SECONDS
        # A reply is buffered and leaves in one send, with TCP_NODELAY:
        # a small write queued behind an un-ACKed one would wait out
        # the peer's delayed ACK (~40 ms).
        wbufsize = 1 << 16
        disable_nagle_algorithm = True

        # Handler threads must not write to the test/benchmark console.
        def log_message(self, format, *args):  # noqa: A002
            pass

        def _reply_bytes(self, status, data, content_type, headers=()):
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            for key, value in headers:
                self.send_header(key, value)
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            try:
                self.wfile.write(data)
                self.wfile.flush()
            except OSError:
                self.close_connection = True  # the client went away

        def _reply(self, status, payload, headers=()):
            """JSON reply, or binary when the client accepts the tensor
            wire format (tensor leaves then skip ``tolist`` entirely)."""
            accepts = self.headers.get("Accept") or ""
            if status == 200 and wire.CONTENT_TYPE in accepts:
                self._reply_bytes(status, wire.encode(payload),
                                  wire.CONTENT_TYPE, headers)
                return
            data = json.dumps(wire.jsonify(payload)).encode("utf-8")
            self._reply_bytes(status, data, "application/json", headers)

        def _error(self, status, code, message):
            """The one error body every route and status speaks."""
            headers = ()
            if status == 503:
                headers = (("Retry-After", str(RETRY_AFTER_SECONDS)),)
            envelope = {"error": {"code": code, "message": str(message)}}
            self._reply(status, envelope, headers)

        def _read_raw(self):
            """The request body's bytes.  Read on *every* route, before
            any reply: bytes left unread on a persistent connection
            would be parsed as the next request line."""
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                length = -1
            if length < 0 or self.headers.get("Transfer-Encoding"):
                # Where the next request starts is unknowable.
                self.close_connection = True
                raise ValueError("request bodies need a valid Content-Length")
            return self.rfile.read(length) if length else b""

        def _decode_body(self, raw):
            """Decode the request body per its Content-Type."""
            ctype = (self.headers.get("Content-Type") or
                     "application/json").split(";")[0].strip().lower()
            if ctype == wire.CONTENT_TYPE:
                return wire.decode(raw)
            if ctype in ("", "application/json"):
                return json.loads(raw or b"{}")
            raise _UnsupportedMediaType(ctype)

        def _serve(self, route):
            """Read the body, run ``route(raw body)``, reply with its
            result — or with the error envelope its failure maps to."""
            try:
                self._reply(200, route(self._read_raw()))
            except _UnsupportedMediaType as e:
                self._error(415, "unsupported_media_type",
                            f"Cannot decode Content-Type {e.args[0]!r}; "
                            f"send application/json or {wire.CONTENT_TYPE}")
            except KeyError as e:
                self._error(404, "not_found", e.args[0] if e.args else e)
            except QueueFullError as e:
                self._error(503, "queue_full", e)
            except ActiveVersionError as e:
                self._error(409, "active_version", e)
            except (wire.WireError, json.JSONDecodeError, ValueError,
                    TypeError, FrameworkError) as e:
                self._error(400, "bad_request", e)
            except Exception as e:  # noqa: BLE001 - wire boundary
                self._error(500, "internal", f"{type(e).__name__}: {e}")

        def _no_route(self):
            raise KeyError(f"No route {self.path!r}")

        def _get(self, _raw):
            if self.path == "/v1/models":
                return server._describe_all()
            if self.path == "/v1/metrics":
                return server._metrics()
            if self.path.startswith("/v1/models/"):
                return server._describe_one(self.path[len("/v1/models/"):])
            self._no_route()

        def _post(self, raw):
            name, colon, action = (
                self.path[len("/v1/models/"):].rpartition(":"))
            if not (self.path.startswith("/v1/models/") and colon):
                self._no_route()
            if action == "predict":
                return server._predict(
                    name, self._decode_body(raw),
                    priority=self.headers.get("X-Repro-Priority"))
            if action == "swap_weights":
                return server._swap_weights(name, self._decode_body(raw))
            if action == "canary":
                return server._set_canary_route(name, self._decode_body(raw))
            self._no_route()

        def _delete(self, _raw):
            name, marker, label = (
                self.path[len("/v1/models/"):].partition("/versions/"))
            if not (self.path.startswith("/v1/models/") and marker):
                self._no_route()
            return server.remove_version(name, label)

        def do_GET(self):  # noqa: N802 - http.server API
            self._serve(self._get)

        def do_POST(self):  # noqa: N802
            self._serve(self._post)

        def do_DELETE(self):  # noqa: N802
            self._serve(self._delete)

    return _Handler


class _UnsupportedMediaType(Exception):
    """Internal: request body in a Content-Type we do not speak."""
