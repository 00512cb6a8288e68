"""``repro.serving``: taking traced functions out of the process.

Layers, all speaking the backend-neutral
:class:`~repro.function.Executable` protocol, so a signature traced via
``backend="graph"`` and one lowered via ``backend="lantern"`` are
interchangeable everywhere here:

- :mod:`repro.serving.saved_function` — ``save``/``load``: serialize a
  traced signature (optimized graph or lantern program, ``TensorSpec``
  tree) to disk — frozen, or with a separate named weight checkpoint
  (``freeze=False``) whose loaded captures hot-swap — and rehydrate it
  without retracing;
- :class:`MicroBatcher` — dynamic micro-batching: the worker runs
  whatever is queued (up to ``max_batch_size``) the moment it is free,
  so requests that arrive while a batch executes coalesce along a batch
  axis (pad + stack, split results) and an idle batcher adds no wait;
  two priority lanes and bounded-queue backpressure (``max_queue`` /
  :class:`QueueFullError`);
- :mod:`repro.serving.wire` — the length-prefixed binary tensor wire
  format (``application/x-repro-tensor``): dtype/shape header + raw
  buffers, decoded zero-copy; JSON stays the fallback;
- :class:`ModelServer` — a threaded HTTP/1.1 front (persistent
  connections, one thread per connection) routing named signatures
  (registered via ``server.register(...)``) through the batcher to
  either backend, serving N versions side by side with live,
  zero-retrace weight/version swaps, canary traffic splits, uniform
  ``{"error": {"code", "message"}}`` replies, load shedding and
  per-signature latency histograms in ``GET /v1/models``;
- :class:`FleetServer` (:mod:`repro.serving.fleet`) — N prefork worker
  processes behind one shared socket (a connection is sticky to the
  worker that accepted it), weights held once per fleet in
  :mod:`~repro.serving.shm_store` shared-memory generations so
  hot-swaps stay atomic and zero-copy fleet-wide;
- :class:`~repro.serving.client.ServingClient` — the stdlib client:
  persistent connections, wire negotiation, transport retries, typed
  errors mapped from the envelope.
"""

from . import client, fleet, saved_function, shm_store, wire
from .batching import MicroBatcher, QueueFullError
from .client import ServingClient
from .fleet import FleetServer
from .saved_function import load, save
from .server import ActiveVersionError, ModelServer

__all__ = [
    "ActiveVersionError",
    "FleetServer",
    "MicroBatcher",
    "ModelServer",
    "QueueFullError",
    "ServingClient",
    "client",
    "fleet",
    "load",
    "save",
    "saved_function",
    "shm_store",
    "wire",
]
