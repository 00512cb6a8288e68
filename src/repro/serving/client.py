"""A tiny stdlib client for :class:`~repro.serving.ModelServer`.

Kept dependency-free (``http.client``) so examples, benchmarks and user
code can hit a server — or a :class:`~repro.serving.fleet.FleetServer` —
without an HTTP library; it is also the documentation of the wire
format, in code form.

The surface is :class:`ServingClient`::

    with ServingClient(server.url) as client:
        client.predict("score", [[1.0, 2.0, 3.0, 4.0]])
        client.swap_weights("score", weights={"w": new_w})
        client.set_canary("score", version="2", fraction=0.1)

Requests travel over **persistent** HTTP/1.1 connections: a client keeps
the connections it opened on an idle list and reuses them, so a request
costs a round trip, not a TCP handshake plus a server thread.  One
client is safe to share between threads (each concurrent request takes
a connection off the list, or opens one).  Against a fleet a client is
sticky to the worker that accepted its connection; a new client reaches
whichever the kernel picks.  When a *reused* connection turns out closed
by the server (idle timeout, restart, killed worker) — it fails before
any reply byte — the request goes again on a fresh one, retry unspent.

By default (``wire="auto"``) tensor payloads travel as the binary wire
format (:mod:`repro.serving.wire` — dtype/shape header + raw buffers,
no JSON number printing/parsing) and fall back to JSON if the server
replies 415; ``wire="json"`` forces JSON end-to-end.  Transport-level
failures (connection refused/reset mid-restart) retry with exponential
backoff; HTTP *error replies* do not retry — they surface as typed
exceptions mapped from the server's error envelope
(``{"error": {"code", "message"}}``):

- ``not_found`` → :class:`UnknownModelError` (404)
- ``queue_full`` → :class:`QueueFullError` (503, carries
  ``retry_after``) — the client-side twin of
  :class:`repro.serving.QueueFullError`
- ``active_version`` → :class:`ActiveVersionError` (409)
- anything else → :class:`ServingError` (the base, carries ``status``
  and ``code``)
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from urllib.parse import urlsplit

from . import wire

__all__ = [
    "ActiveVersionError",
    "QueueFullError",
    "ServingClient",
    "ServingError",
    "UnknownModelError",
]


class ServingError(RuntimeError):
    """A server-side error reply (carries HTTP status + envelope code)."""

    def __init__(self, status, message, code=None, retry_after=None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.code = code
        #: Seconds the server advised waiting before a retry (503 only).
        self.retry_after = retry_after


class UnknownModelError(ServingError):
    """404: no such signature/version/route on the server."""


class QueueFullError(ServingError):
    """503: the server shed this request; back off ``retry_after``s."""


class ActiveVersionError(ServingError):
    """409: refused to remove the version currently serving traffic."""


_ERROR_TYPES = {
    "not_found": UnknownModelError,
    "queue_full": QueueFullError,
    "active_version": ActiveVersionError,
}

#: Transport failures worth retrying: the request may never have reached
#: a healthy worker (connect refused during restart, worker recycled
#: mid-keepalive).  HTTP error *replies* are never retried here.
_RETRYABLE = (ConnectionError, TimeoutError)

#: How a kept-alive connection the server has closed meanwhile fails,
#: before any reply byte (``RemoteDisconnected`` is a reset too).
_STALE = (ConnectionResetError, BrokenPipeError)


def _raise_serving_error(status, body, headers):
    """Map an error reply onto the typed exception hierarchy.

    Lenient on shape: the envelope is ``{"error": {"code", "message"}}``,
    but a dying worker (or ``http.server`` itself) may send no JSON.
    """
    code, message = None, body.decode("utf-8", "replace")[:200]
    try:
        envelope = json.loads(body)["error"]
        code, message = envelope.get("code"), envelope.get("message", "")
    except Exception:  # noqa: BLE001 - error-path best effort
        pass
    try:
        retry_after = float(headers.get("Retry-After"))
    except (TypeError, ValueError):
        retry_after = None
    cls = _ERROR_TYPES.get(code, ServingError)
    raise cls(status, message, code=code, retry_after=retry_after) from None


class ServingClient:
    """A connection-config-carrying client for the serving routes.

    Args:
      base_url: e.g. ``server.url`` / ``fleet.url``.
      timeout: per-request socket timeout in seconds.
      retries: how many times to re-send after a *transport* failure
        (connection refused/reset; HTTP error replies never retry).
      backoff: first retry delay in seconds; doubles per attempt.
      wire: ``"auto"`` (binary tensor wire, falling back to JSON if the
        server replies 415) or ``"json"`` (JSON end-to-end).
    """

    def __init__(self, base_url, *, timeout=10.0, retries=2, backoff=0.05,
                 wire="auto"):
        if wire not in ("auto", "json"):
            raise ValueError(f"wire must be 'auto' or 'json', got {wire!r}")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.base_url = base_url.rstrip("/")
        url = urlsplit(self.base_url)
        if url.scheme != "http" or not url.hostname:
            raise ValueError(
                f"base_url must look like http://host[:port][/prefix], "
                f"got {base_url!r}")
        self._address = (url.hostname, url.port or 80)
        self._prefix = url.path
        # Connections not in use right now, newest last.
        self._idle = []
        self._idle_lock = threading.Lock()
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        # Downgrades to "json" (sticky) on the first 415 when "auto".
        self._wire = wire

    def close(self):
        """Close the idle connections (also on leaving a ``with``
        block); the client stays usable and reconnects on demand."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- routes ------------------------------------------------------------

    def list_models(self):
        """``GET /v1/models``: every served signature's metadata (plus
        fleet-wide worker stats when talking to a fleet)."""
        return self._call("/v1/models")

    def describe(self, name):
        """``GET /v1/models/<name>``: one signature's metadata."""
        return self._call(f"/v1/models/{name}")

    def metrics(self):
        """``GET /v1/metrics``: the live counter snapshot (engine,
        function-cache, serving) plus per-model request/latency stats;
        a fleet additionally reports every worker's counters merged."""
        return self._call("/v1/metrics")

    def predict(self, name, inputs, priority=None):
        """``POST /v1/models/<name>:predict`` with one value per
        signature entry; ``priority="high"`` routes onto the batcher's
        high lane (drained first, shed last)."""
        headers = {}
        if priority is not None:
            headers["X-Repro-Priority"] = priority
        return self._call(f"/v1/models/{name}:predict",
                          data={"inputs": inputs}, headers=headers)

    def swap_weights(self, name, weights=None, version=None):
        """``POST /v1/models/<name>:swap_weights``: live model
        management with zero retraces.

        ``weights`` replaces capture values (name -> arrays) on the
        target (default: active) version; ``version`` activates a
        registered version label.  Against a fleet, one call updates
        every worker atomically (shared-memory generation bump).
        """
        data = {}
        if weights is not None:
            data["weights"] = weights
        if version is not None:
            data["version"] = version
        return self._call(f"/v1/models/{name}:swap_weights", data=data)

    def set_canary(self, name, version=None, fraction=0.0):
        """``POST /v1/models/<name>:canary``: split ``fraction`` of
        predict traffic onto ``version``; ``fraction=0`` clears."""
        return self._call(f"/v1/models/{name}:canary",
                          data={"version": version, "fraction": fraction})

    def remove_version(self, name, version):
        """``DELETE /v1/models/<name>/versions/<version>``: unload an
        inactive version.  Deleting the active version raises
        :class:`ActiveVersionError` — activate another first."""
        return self._call(f"/v1/models/{name}/versions/{version}",
                          method="DELETE")

    # -- transport ---------------------------------------------------------

    def _call(self, path, data=None, method=None, headers=None):
        attempt = 0
        while True:
            try:
                return self._send(path, data, method, headers)
            except ServingError as e:
                if e.status == 415 and self._wire == "auto":
                    # Talking to a JSON-only server: downgrade once,
                    # stay downgraded.
                    self._wire = "json"
                    continue
                raise
            except _RETRYABLE:
                if attempt >= self.retries:
                    raise
            time.sleep(self.backoff * (2 ** attempt))
            attempt += 1

    def _send(self, path, data, method, headers):
        all_headers = dict(headers or ())
        body = None
        if data is not None:
            if self._wire == "auto":
                body = wire.encode(data)
                all_headers["Content-Type"] = wire.CONTENT_TYPE
            else:
                body = json.dumps(wire.jsonify(data)).encode("utf-8")
                all_headers["Content-Type"] = "application/json"
        if self._wire == "auto":
            all_headers["Accept"] = wire.CONTENT_TYPE
        if method is None:
            method = "GET" if body is None else "POST"
        response, raw = self._round_trip(
            method, self._prefix + path, body, all_headers)
        if response.status >= 400:
            _raise_serving_error(response.status, raw, response.headers)
        ctype = (response.headers.get("Content-Type") or "").split(
            ";")[0].strip().lower()
        if ctype == wire.CONTENT_TYPE:
            return wire.decode(raw)
        return json.loads(raw.decode("utf-8"))

    def _round_trip(self, method, target, body, headers):
        """One request and its whole reply over a persistent connection;
        returns ``(response, body bytes)``."""
        with self._idle_lock:
            connection = (self._idle.pop() if self._idle else
                          http.client.HTTPConnection(*self._address,
                                                     timeout=self.timeout))
        reused = connection.sock is not None

        def exchange():
            connection.request(method, target, body=body, headers=headers)
            return connection.getresponse()

        try:
            try:
                response = exchange()
            except _STALE:
                if not reused:
                    raise
                # The server closed this connection while it sat idle;
                # nothing was answered, so go again on a fresh socket
                # (request() reconnects a closed connection).
                connection.close()
                response = exchange()
            raw = response.read()
        except BaseException:
            connection.close()
            raise
        # (Closed by a ``Connection: close`` reply, it reconnects on reuse.)
        with self._idle_lock:
            self._idle.append(connection)
        return response, raw
