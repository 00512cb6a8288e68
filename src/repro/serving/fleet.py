"""``FleetServer``: a prefork worker pool behind one listening socket.

A single :class:`~repro.serving.ModelServer` is thread-concurrent but
GIL-bound: one process's worth of Python glue caps throughput no matter
how many cores the machine has.  The fleet preforks:

- the **acceptor** (parent) binds the listening socket, loads each
  registered saved artifact once to seed a
  :class:`~repro.serving.shm_store.SharedWeightStore` per (model,
  version) with the artifact's capture values, writes per-model control
  blocks (active version + canary split) and per-worker stats blocks,
  then forks N workers and waits;
- each **worker** (child) is a full :class:`ModelServer` subclass that
  adopts the inherited socket (the kernel load-balances accepts across
  workers blocked in ``accept()``), loads the artifacts into its own
  process, and immediately rebinds every capture to read-only views
  into the current shared-memory generation.

Connections are persistent (HTTP/1.1 keep-alive), so the kernel
balances *connections*, not requests: N clients spread over the
workers, each **sticky** to the worker that accepted its connection.

Weights therefore exist **once** per fleet, not once per worker, and a
``swap_weights`` request — handled by whichever worker the kernel gave
it to — publishes a new generation and bumps one shared counter; every
other worker notices the bump on its next request and rebinds its whole
capture tuple in a single atomic assignment (see
:mod:`~repro.serving.shm_store` for why no request can ever observe a
half-swapped weight set).  Version activation and canary splits travel
the same way, through a seqlock-framed JSON control block per model.

The HTTP surface is exactly the single-process server's (same routes,
same error envelope, same binary wire negotiation).  ``GET /v1/models``
additionally reports a ``"fleet"`` section: per-worker request counts
and latency percentiles (each worker publishes its own stats block;
whoever answers the GET reads all of them) and the current shared
weight-store generations.  Stats blocks carry each worker's sparse
latency histograms; ``GET /v1/metrics`` merges them into one fleet-wide
``latency`` distribution per model.

::

    fleet = FleetServer(n_workers=4)
    fleet.register("score", "/path/to/artifact")
    with fleet:
        client = ServingClient(fleet.url)
        client.predict("score", [[1.0, 2.0, 3.0, 4.0]])
        client.swap_weights("score", weights={"w": new_w})  # all workers

The parent also **supervises**: a monitor thread (woken early by
``SIGCHLD`` when the parent runs on the main thread) reaps any worker
that dies and forks a replacement into the same inherited socket and
shared blocks — the fleet heals to full strength without dropping the
port.  Death and respawn counts are published through a parent-written
stats block and show up under ``"supervisor"`` in ``GET /v1/models``
and ``GET /v1/metrics``.

Limitations (by design, for now): models must be *saved artifacts* (each
worker re-loads from disk; live Python functions don't cross ``fork``
usefully), and registration happens before :meth:`start`.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import secrets
import signal
import socket
import struct
import sys
import threading
from multiprocessing import get_context

from ..observe.events import RECORDER as _REC
from .server import (LatencyHistogram, ModelServer,
                     _ConnectionTrackingServer, _make_handler)
from .shm_store import SharedWeightStore, _unlink_segment, _untrack

__all__ = ["FleetServer"]

_mp = get_context("fork")


class _SharedDoc:
    """A small JSON document in shared memory behind a seqlock.

    Layout: ``u32 sequence | u32 length | payload``.  Writers bump the
    sequence to odd, copy the payload, then bump to even; readers retry
    until they see the same even sequence on both sides of their copy.
    Single-writer blocks (per-worker stats) need no lock; multi-writer
    blocks (per-model control) serialize writers on the fleet's
    fork-inherited lock.
    """

    SIZE = 8192

    def __init__(self, name, *, create=False, lock=None):
        from multiprocessing import shared_memory

        self._shm = shared_memory.SharedMemory(
            name=name, create=create, size=self.SIZE)
        _untrack(self._shm)
        self._lock = lock
        if create:
            struct.pack_into("<II", self._shm.buf, 0, 0, 0)

    def write(self, doc):
        payload = json.dumps(doc).encode("utf-8")
        if len(payload) > self.SIZE - 8:
            raise ValueError(
                f"shared doc payload is {len(payload)} bytes; max "
                f"{self.SIZE - 8}"
            )
        with self._lock or contextlib.nullcontext():
            self._write(payload)

    def _write(self, payload):
        buf = self._shm.buf
        seq = struct.unpack_from("<I", buf, 0)[0]
        struct.pack_into("<I", buf, 0, seq + 1)  # odd: write in progress
        struct.pack_into("<I", buf, 4, len(payload))
        buf[8:8 + len(payload)] = payload
        struct.pack_into("<I", buf, 0, seq + 2)

    def read(self):
        """The current document, or ``None`` before the first write."""
        buf = self._shm.buf
        for _ in range(256):
            seq1 = struct.unpack_from("<I", buf, 0)[0]
            if seq1 & 1:
                continue
            length = struct.unpack_from("<I", buf, 4)[0]
            if length == 0:
                return None
            if length > self.SIZE - 8:
                continue  # torn read across a concurrent write
            payload = bytes(buf[8:8 + length])
            if struct.unpack_from("<I", buf, 0)[0] == seq1:
                return json.loads(payload.decode("utf-8"))
        raise RuntimeError("shared doc write storm; reader starved")

    def close(self):
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover
            pass

    def unlink(self):
        _unlink_segment(self._shm)
        self.close()


class _FleetWorker(ModelServer):
    """One fleet process: a ModelServer whose shared state (active
    version, canary, weights) lives in the fleet's shm blocks.

    Separated from the fork plumbing so tests can drive a worker
    in-process: construct one, attach the same stores/control blocks,
    and call the ``_sync_endpoint`` / ``_apply_weights`` overrides
    directly.
    """

    def __init__(self, index, n_workers, stores, controls, stats_docs,
                 publish_lock, max_inflight=None, supervisor_doc=None):
        super().__init__(max_inflight=max_inflight)
        self._worker_index = index
        self._n_workers = n_workers
        self._stores = stores          # (name, label) -> SharedWeightStore
        self._store_gen = {}           # (name, label) -> last bound gen
        self._controls = controls      # name -> _SharedDoc
        self._stats_docs = stats_docs  # worker index -> _SharedDoc
        self._publish_lock = publish_lock
        self._supervisor_doc = supervisor_doc  # parent-written _SharedDoc
        self._stats_lock = threading.Lock()
        self._served = 0

    # -- shared-state sync (reader side) -----------------------------------

    def _sync_endpoint(self, name):
        endpoint = self._endpoints.get(name)
        if endpoint is None:
            return
        control = self._controls.get(name)
        if control is not None:
            doc = control.read()
            if doc is not None:
                active = doc.get("active")
                if (active and active != endpoint.active
                        and active in endpoint.versions):
                    endpoint.activate(active)
                canary = doc.get("canary")
                endpoint.canary = tuple(canary) if canary else None
        for label, version in endpoint.versions.items():
            store = self._stores.get((name, label))
            if store is None:
                continue
            if store.generation != self._store_gen.get((name, label)):
                self._rebind(name, label, version.executable, store)

    def _rebind(self, name, label, executable, store):
        """Bind the executable's whole capture tuple to the latest
        generation's read-only shared views — the zero-copy hot-swap."""
        generation, views = store.read()
        order = [n for n, _dtype, _shape in executable.capture_specs()]
        executable.set_capture_state([views[n] for n in order])
        self._store_gen[(name, label)] = generation

    # -- shared-state publication (writer side) ----------------------------

    def _publish_control(self, name):
        control = self._controls.get(name)
        endpoint = self._endpoints.get(name)
        if control is None or endpoint is None:
            return
        control.write({
            "active": endpoint.active,
            "canary": list(endpoint.canary) if endpoint.canary else None,
        })

    def _apply_weights(self, name, label, version, weights):
        store = self._stores.get((name, label))
        if store is None:
            # No captures for this version (frozen artifact): the base
            # path raises the right per-capture errors.
            super()._apply_weights(name, label, version, weights)
            return
        store.update(weights)  # KeyError/ValueError -> 400 via caller
        # This worker observes its own swap immediately; siblings rebind
        # on their next request's _sync_endpoint.
        self._rebind(name, label, version.executable, store)

    def _activate(self, name, endpoint, label):
        endpoint.activate(label)  # KeyError -> 400 via caller
        self._publish_control(name)

    def set_canary(self, name, version=None, fraction=0.0):
        result = super().set_canary(name, version, fraction)
        self._publish_control(name)
        return result

    # -- observability -----------------------------------------------------

    def _request_served(self):
        self._publish_stats(served=1)

    def _publish_stats(self, served=0):
        """Publish this worker's live stats — request count, per-model
        latency (summary + mergeable histogram), :mod:`repro.observe`
        counters — into its seqlock block, where any sibling reads them."""
        with self._stats_lock:
            self._served += served
            self._stats_docs[self._worker_index].write({
                "worker": self._worker_index,
                "pid": os.getpid(),
                "requests": self._served,
                "counters": _REC.counters(),
                "models": {
                    name: endpoint.latency_doc()
                    for name, endpoint in self._endpoints.items()
                },
            })

    def _supervisor_stats(self):
        doc = self._supervisor_doc
        stats = doc.read() if doc is not None else None
        return stats if stats is not None else {"deaths": 0, "respawns": 0}

    def _worker_stats(self):
        """Every worker's stats block (a placeholder before its first)."""
        return [self._stats_docs[index].read()
                or {"worker": index, "requests": 0}
                for index in sorted(self._stats_docs)]

    def _fleet_info(self):
        return {
            "fleet": {
                "n_workers": self._n_workers,
                "worker": self._worker_index,
                "workers": self._worker_stats(),
                "supervisor": self._supervisor_stats(),
                "weight_generations": {
                    f"{name}@{label}": store.generation
                    for (name, label), store in self._stores.items()
                },
            }
        }

    def _metrics_info(self):
        """The fleet view for ``GET /v1/metrics``: whichever worker the
        kernel handed this request publishes its own fresh stats, then
        merges every worker's stats block — per-worker request counts,
        counters summed and latency histograms merged across workers,
        and the supervisor's death/respawn counts."""
        self._publish_stats()
        workers = []
        merged = {}
        latency = {}
        for stats in self._worker_stats():
            workers.append({key: stats.get(key)
                            for key in ("worker", "pid", "requests")})
            for key, value in stats.get("counters", {}).items():
                merged[key] = merged.get(key, 0) + value
            for name, doc in stats.get("models", {}).items():
                latency.setdefault(name, LatencyHistogram()).merge(doc)
        return {
            "fleet": {
                "n_workers": self._n_workers,
                "worker": self._worker_index,
                "requests": sum(w["requests"] for w in workers),
                "merged_counters": merged,
                "latency": {name: hist.stats()
                            for name, hist in latency.items()},
                "workers": workers,
                "supervisor": self._supervisor_stats(),
            }
        }

    # -- serving on the inherited socket -----------------------------------

    def serve_on_socket(self, sock):
        """Serve forever on the fleet's shared socket (worker main)."""
        self._ensure_batchers()
        # Every worker accept()s from the one inherited kernel queue.
        self._httpd = _ConnectionTrackingServer(
            sock.getsockname()[:2], _make_handler(self), sock=sock)
        try:
            self._httpd.serve_forever(poll_interval=0.05)
        finally:
            self._httpd.close_connections()
            self._close_batchers()


class FleetServer:
    """N prefork :class:`ModelServer` workers behind one socket.

    The kernel balances *connections* across workers and connections
    are persistent, so a ``ServingClient`` is sticky to one worker; a
    fresh client is how to reach another.

    Args:
      n_workers: processes to fork (each a full threaded HTTP server).
      host/port: bind address (port 0 picks a free port).
      max_inflight: per-worker bound on concurrently executing predict
        requests; over it, that worker sheds with 503 + ``Retry-After``.
    """

    def __init__(self, n_workers=2, *, host="127.0.0.1", port=0,
                 max_inflight=None):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self._n_workers = n_workers
        self._host = host
        self._port = port
        self._max_inflight = max_inflight
        self._registrations = []
        self._socket = None
        self._processes = []
        self._stores = {}
        self._controls = {}
        self._stats_docs = {}
        self._namespace = None
        self._publish_lock = None
        self._supervisor_doc = None
        self._supervisor = None
        self._stop_supervising = None
        self._wake = None
        self._prev_sigchld = None
        self._sigchld_installed = False
        self._deaths = 0
        self._respawns = 0

    # -- registration (before start) ---------------------------------------

    def register(self, name, path, *, version="1", activate=None,
                 batcher=None):
        """Register a *saved artifact* path to serve as ``name``.

        Same semantics as :meth:`ModelServer.register` with a path
        source; every worker loads the artifact into its own process at
        fork time, then rebinds its weights to the fleet's shared
        memory.  Must be called before :meth:`start`.
        """
        if self._socket is not None:
            raise RuntimeError(
                "FleetServer.register must happen before start(); use "
                "swap_weights/canary routes for live management"
            )
        if not isinstance(path, (str, os.PathLike)):
            raise TypeError(
                "FleetServer serves saved artifacts: register(name, path); "
                f"got {type(path).__name__} (save the model first)"
            )
        # Validate batcher options now, not inside N forked workers.
        ModelServer._batch_config(batcher)
        self._registrations.append({
            "name": name, "path": os.fspath(path), "version": str(version),
            "activate": activate, "batcher": batcher,
        })

    # -- lifecycle ---------------------------------------------------------

    @property
    def url(self):
        if self._socket is None:
            raise RuntimeError("FleetServer is not running")
        host, port = self._socket.getsockname()[:2]
        return f"http://{host}:{port}"

    def _setup_shared_state(self):
        """Seed the fleet's shared memory from a parent-side load: one
        weight store per (model, version) with captures, one control
        block per model, one stats block per worker."""
        from .saved_function import load

        self._namespace = f"rf{secrets.token_hex(3)}"
        self._publish_lock = _mp.Lock()
        actives = {}
        for i, reg in enumerate(self._registrations):
            name, label = reg["name"], reg["version"]
            if (name, label) in self._stores:
                raise ValueError(
                    f"duplicate registration of {name!r} version {label!r}"
                )
            executable = load(reg["path"])
            if executable.capture_specs():
                self._stores[(name, label)] = SharedWeightStore(
                    f"{self._namespace}s{i}", create=True,
                    initial=executable.capture_values(),
                    lock=self._publish_lock)
            if name not in actives or reg["activate"]:
                actives[name] = label
        for j, (name, label) in enumerate(actives.items()):
            control = _SharedDoc(f"{self._namespace}c{j}", create=True,
                                 lock=self._publish_lock)
            control.write({"active": label, "canary": None})
            self._controls[name] = control
        for index in range(self._n_workers):
            self._stats_docs[index] = _SharedDoc(
                f"{self._namespace}w{index}", create=True)
        # Parent-written, worker-read: death/respawn counts (single
        # writer — the supervisor thread — so no lock).
        self._supervisor_doc = _SharedDoc(
            f"{self._namespace}sup", create=True)
        self._publish_supervisor()

    def start(self):
        """Bind, seed shared memory, fork the workers; returns the URL."""
        if self._socket is not None:
            raise RuntimeError("FleetServer is already running")
        if not self._registrations:
            raise RuntimeError("FleetServer has no registered models")
        self._setup_shared_state()

        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self._host, self._port))
        sock.listen(128)
        self._socket = sock

        for index in range(self._n_workers):
            self._processes.append(self._spawn(index))
        self._start_supervisor()
        return self.url

    def _spawn(self, index):
        process = _mp.Process(
            target=self._worker_entry, args=(index,),
            name=f"repro-fleet-worker-{index}", daemon=True)
        process.start()
        return process

    def _build_worker(self, index):
        """A :class:`_FleetWorker` wired to this fleet's shared blocks
        (used by the forked children, and by in-process tests)."""
        worker = _FleetWorker(
            index, self._n_workers, self._stores, self._controls,
            self._stats_docs, self._publish_lock,
            max_inflight=self._max_inflight,
            supervisor_doc=self._supervisor_doc)
        for reg in self._registrations:
            worker.register(
                reg["name"], reg["path"], version=reg["version"],
                activate=reg["activate"], batcher=reg["batcher"])
        # Bind every stored version's captures to the current shared
        # generation before taking traffic.
        for name in {reg["name"] for reg in self._registrations}:
            worker._sync_endpoint(name)
        return worker

    def _worker_entry(self, index):
        # SIGTERM must unwind normally (not os._exit) so batcher drains
        # and atexit hooks (e.g. coverage) run.
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
        # Forked children share the parent's RNG state; reseed so canary
        # draws are independent per worker.
        random.seed()
        worker = self._build_worker(index)
        try:
            worker.serve_on_socket(self._socket)
        except SystemExit:
            pass

    # -- supervision -------------------------------------------------------

    def _start_supervisor(self):
        """Watch the workers; reap and respawn any that die.

        A ``SIGCHLD`` handler (installable only from the main thread —
        elsewhere the supervisor degrades to pure polling) wakes the
        monitor early, so a crashed worker is usually replaced within
        milliseconds; the 0.2 s poll is the fallback and also paces
        respawns if a worker is crashing in a loop.
        """
        self._stop_supervising = threading.Event()
        self._wake = threading.Event()
        self._sigchld_installed = False
        try:
            self._prev_sigchld = signal.signal(
                signal.SIGCHLD, lambda *_: self._wake.set())
            self._sigchld_installed = True
        except ValueError:  # pragma: no cover - non-main-thread start
            self._prev_sigchld = None
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-fleet-supervisor",
            daemon=True)
        self._supervisor.start()

    def _supervise(self):
        while True:
            self._wake.wait(0.2)
            self._wake.clear()
            if self._stop_supervising.is_set():
                return
            self._reap_and_respawn()

    def _reap_and_respawn(self):
        changed = False
        for index, process in enumerate(self._processes):
            if process.is_alive():
                continue
            process.join()
            self._deaths += 1
            # The replacement forks from the current parent, inheriting
            # the same listening socket, stores, control and stats
            # blocks — it serves the same port under the same worker
            # index as its predecessor.
            self._processes[index] = self._spawn(index)
            self._respawns += 1
            changed = True
        if changed:
            self._publish_supervisor()

    def _publish_supervisor(self):
        if self._supervisor_doc is not None:
            self._supervisor_doc.write({
                "deaths": self._deaths,
                "respawns": self._respawns,
                "pids": [p.pid for p in self._processes],
            })

    def _stop_supervisor(self):
        if self._supervisor is None:
            return
        # Order matters: the supervisor must be down before stop()
        # terminates the workers, or it would respawn them mid-shutdown.
        self._stop_supervising.set()
        self._wake.set()
        self._supervisor.join()
        self._supervisor = None
        if self._sigchld_installed:
            restore = (self._prev_sigchld if self._prev_sigchld is not None
                       else signal.SIG_DFL)
            try:
                signal.signal(signal.SIGCHLD, restore)
            except ValueError:  # pragma: no cover
                pass
            self._sigchld_installed = False
            self._prev_sigchld = None

    def stop(self):
        """Terminate the workers, close the socket, free shared memory."""
        self._stop_supervisor()
        for process in self._processes:
            process.terminate()
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.kill()
                process.join(timeout=5)
        self._processes = []
        if self._socket is not None:
            self._socket.close()
            self._socket = None
        for block in (*self._stores.values(), *self._controls.values(),
                      *self._stats_docs.values()):
            block.unlink()
        self._stores, self._controls, self._stats_docs = {}, {}, {}
        if self._supervisor_doc is not None:
            self._supervisor_doc.unlink()
            self._supervisor_doc = None

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
        return False

    def __repr__(self):
        state = "running" if self._socket is not None else "stopped"
        return (f"<FleetServer n_workers={self._n_workers} {state} "
                f"models={sorted({r['name'] for r in self._registrations})}>")
