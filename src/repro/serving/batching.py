"""Dynamic micro-batching: coalescing concurrent calls into one execution.

The serving cost model mirrors the paper's Table-2 observation: each
executed call pays a fixed dispatch overhead (feed validation, plan
lookup, Python glue), so N concurrent single-example requests cost
N * overhead executed one by one — but only 1 * overhead (plus the
marginal, well-vectorized math) executed as one stacked batch.

:class:`MicroBatcher` owns a queue and a worker thread.  Client threads
submit single examples (shaped like the executable's signature *minus*
the batch axis) and block; the worker dispatches **the moment it is
free**: it takes whatever is queued — up to ``max_batch_size`` — stacks
it along ``batch_axis``, runs the executable once via the
backend-neutral ``call_flat``, splits the result along the batch axis,
and wakes every waiter with its slice.  It never sleeps on a timer:
coalescing comes only from requests that arrive *while* a batch
executes, so an idle batcher runs batches of one at the model's own
latency and batches grow with load (there is no linger knob to tune).

Examples co-batched together must agree on shape by default; ragged
batches are rejected, because zero-filling silently changes the math of
shape-sensitive models (a mean over a padded axis depends on who you
were batched with).  Passing ``pad_value`` opts into padding for models
where the fill value is neutral (masked attention, sum-pooling over
zeros, ...) — the per-request output slice then keeps the padded shape.

The wrapped executable must therefore be batch-polymorphic along
``batch_axis`` (trace it with that dimension as ``None``).  Outputs are
assumed to carry the batch axis too — a scalar output (e.g. a loss
reduced over the batch) cannot be split and raises.

Two *priority lanes* ride on the queue: ``submit(..., priority="high")``
requests are drained ahead of the normal lane (they still co-batch with
whatever else is waiting), and under load shedding the normal lane is
shed first — high-priority traffic keeps flowing into a 50% headroom
above ``max_queue`` while bulk traffic is already being 503'd.
"""

from __future__ import annotations

import collections
import threading
from time import perf_counter

import numpy as np

from ..framework import nest
from ..framework.eager.tensor import EagerTensor
from ..function.tensor_spec import TensorSpec
from ..observe.events import RECORDER as _REC

__all__ = ["BatchStats", "MicroBatcher", "QueueFullError"]


BatchStats = collections.namedtuple(
    "BatchStats",
    ["requests", "batches", "max_batch_size", "rejected", "high_priority"])


class QueueFullError(RuntimeError):
    """The batcher's queue is at ``max_queue``; the request was rejected.

    Backpressure, not buffering: when the executable cannot drain
    requests as fast as they arrive, callers get an immediate, explicit
    failure (the server maps it to HTTP 503) instead of an unbounded
    queue and a timeout.
    """


class _Request:
    __slots__ = ("inputs", "queued_at", "event", "result", "error")

    def __init__(self, inputs):
        self.inputs = inputs
        self.queued_at = perf_counter()
        self.event = threading.Event()
        self.result = None
        self.error = None


class MicroBatcher:
    """Coalesces concurrent same-signature calls along a batch axis."""

    def __init__(self, executable, *, batch_axis=0, max_batch_size=32,
                 pad_value=None, timeout=30.0, max_queue=None):
        """Args:
          executable: a batch-polymorphic
            :class:`~repro.function.Executable` (either backend, or a
            loaded artifact).
          batch_axis: the axis requests stack along.
          max_batch_size: the most requests one execution takes; the
            rest of the queue waits for the next one.
          pad_value: ``None`` (default) rejects batches whose examples
            disagree on non-batch dimensions; a number opts into padding
            ragged examples up to the max with that fill value — only
            sound when the model treats the fill as neutral.
          timeout: seconds a submitter waits for its result before
            raising ``TimeoutError`` (guards against a wedged worker).
          max_queue: bound on *queued* (not yet executing) requests;
            ``None`` (default) leaves the queue unbounded.  A submit
            arriving while the queue holds ``max_queue`` requests fails
            fast with :class:`QueueFullError`.
        """
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1 (or None for unbounded)")
        for spec in executable.signature:
            if not isinstance(spec, TensorSpec):
                raise ValueError(
                    f"MicroBatcher requires an all-tensor signature; "
                    f"{executable.name!r} takes {spec!r}"
                )
        self._executable = executable
        # Bind the dispatch path once: the executable's call_flat is the
        # runtime's slot-addressed fast path (positional execute_flat for
        # graph-backed executables), so the worker's per-batch cost is
        # stack + one bound call + split — no feed dicts, no cache keys.
        self._call_flat = executable.call_flat
        self._n_args = len(executable.signature)
        self._batch_axis = batch_axis
        self._max_batch_size = max_batch_size
        self._pad_value = pad_value
        self._timeout = timeout
        self._max_queue = max_queue

        self._cond = threading.Condition()
        self._pending = collections.deque()
        # The high lane: drained ahead of _pending, shed after it.
        self._priority_pending = collections.deque()
        self._closed = False
        self._n_requests = 0
        self._n_batches = 0
        self._max_seen = 0
        self._n_rejected = 0
        self._n_high = 0
        self._worker = threading.Thread(
            target=self._loop, name="repro-microbatcher", daemon=True)
        self._worker.start()

    # -- client side -------------------------------------------------------

    @property
    def executable(self):
        return self._executable

    def __call__(self, *flat_inputs):
        return self.submit(list(flat_inputs))

    def queue_depth(self):
        """Waiting (not yet executing) requests across both lanes."""
        with self._cond:
            return len(self._pending) + len(self._priority_pending)

    def submit(self, flat_inputs, priority="normal"):
        """Enqueue one example; blocks until its slice of a batch result.

        ``flat_inputs`` holds one value per signature entry, shaped
        *without* the batch axis (the batcher adds it by stacking).

        ``priority="high"`` puts the request on the high lane: the
        worker drains it ahead of the normal lane, and under load
        shedding (``max_queue``) the normal lane is shed first — high
        requests are still admitted into a 50% headroom above
        ``max_queue`` before they too are rejected.
        """
        if priority not in ("normal", "high"):
            raise ValueError(
                f"priority must be 'normal' or 'high', got {priority!r}"
            )
        if len(flat_inputs) != self._n_args:
            raise ValueError(
                f"{self._executable.name!r} takes {self._n_args} "
                f"arguments, got {len(flat_inputs)}"
            )
        request = _Request([np.asarray(v) for v in flat_inputs])
        with self._cond:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            if self._max_queue is not None:
                depth = len(self._pending) + len(self._priority_pending)
                bound = self._max_queue
                if priority == "high":
                    bound += max(1, self._max_queue // 2)
                if depth >= bound:
                    self._n_rejected += 1
                    raise QueueFullError(
                        f"{self._executable.name!r} batch queue is full "
                        f"({depth} requests waiting, {priority} lane sheds "
                        f"at {bound}); retry later or raise max_queue"
                    )
            if priority == "high":
                self._priority_pending.append(request)
                self._n_high += 1
            else:
                self._pending.append(request)
            self._cond.notify_all()
        if not request.event.wait(self._timeout):
            raise TimeoutError(
                f"MicroBatcher request did not complete within "
                f"{self._timeout}s"
            )
        if request.error is not None:
            raise request.error
        return request.result

    @property
    def stats(self):
        with self._cond:
            return BatchStats(self._n_requests, self._n_batches,
                              self._max_seen, self._n_rejected,
                              self._n_high)

    @property
    def average_batch_size(self):
        stats = self.stats
        return stats.requests / stats.batches if stats.batches else 0.0

    def close(self):
        """Stop the worker after draining already-queued requests."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._worker.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- worker side -------------------------------------------------------

    def _loop(self):
        while True:
            batch = self._gather()
            if not batch:
                return
            self._execute(batch)

    def _gather(self):
        """Block until something is queued, then take all of it (high
        lane first, up to ``max_batch_size``) — never wait for more."""
        with self._cond:
            while not (self._pending or self._priority_pending):
                if self._closed:
                    return []
                self._cond.wait()
            batch = []
            while len(batch) < self._max_batch_size:
                lane = self._priority_pending or self._pending
                if not lane:
                    break
                batch.append(lane.popleft())
            return batch

    def _stack(self, values):
        shapes = {v.shape for v in values}
        if len(shapes) > 1:
            ranks = {len(s) for s in shapes}
            if len(ranks) > 1:
                raise ValueError(
                    f"Cannot batch examples of different ranks: "
                    f"{sorted(shapes)}"
                )
            if self._pad_value is None:
                raise ValueError(
                    f"Cannot batch examples of different shapes "
                    f"{sorted(shapes)}: zero-padding would change the "
                    "model's math depending on which requests co-batch. "
                    "Pass pad_value=<fill> to MicroBatcher (or "
                    "register(batcher={'pad_value': ...})) if padding is "
                    "neutral for this model."
                )
            target = tuple(max(dims) for dims in zip(*shapes))
            values = [
                np.pad(v, [(0, t - s) for s, t in zip(v.shape, target)],
                       constant_values=self._pad_value)
                if v.shape != target else v
                for v in values
            ]
        return np.stack(values, axis=self._batch_axis)

    def _split(self, result, index):
        """The per-request slice of a structured batch result."""
        flat = nest.flatten(result)
        leaves = []
        for leaf in flat:
            if isinstance(leaf, EagerTensor):
                arr = leaf.numpy()
                if arr.ndim <= self._batch_axis:
                    raise ValueError(
                        f"Output of {self._executable.name!r} has no batch "
                        f"axis {self._batch_axis} to split (shape "
                        f"{arr.shape}); batched signatures must return "
                        "per-example outputs"
                    )
                leaves.append(EagerTensor(
                    np.take(arr, index, axis=self._batch_axis)))
            else:
                leaves.append(leaf)
        return nest.pack_sequence_as(result, leaves)

    def _execute(self, batch):
        rec = _REC
        # The oldest request's time in the queue: what the batcher itself
        # added to this batch's latency (zero-ish on an idle worker).
        queue_wait_us = int(
            (perf_counter() - min(r.queued_at for r in batch)) * 1e6)
        t0 = rec.begin() if rec.enabled else 0.0
        try:
            stacked = [
                self._stack([r.inputs[i] for r in batch])
                for i in range(self._n_args)
            ]
            result = self._call_flat(stacked)
            for index, request in enumerate(batch):
                request.result = self._split(result, index)
        except Exception as e:  # noqa: BLE001 - delivered to submitters
            for request in batch:
                request.error = e
        finally:
            with self._cond:
                self._n_requests += len(batch)
                self._n_batches += 1
                self._max_seen = max(self._max_seen, len(batch))
            rec.counter("serving.batches")
            rec.counter("serving.batched_requests", len(batch))
            rec.counter("serving.batch_queue_wait_us", queue_wait_us)
            if rec.enabled:
                rec.end("batch_execute", "batch", t0, {
                    "model": self._executable.name,
                    "coalesced": len(batch),
                    "queue_wait_us": queue_wait_us,
                })
                if len(batch) > 1:
                    rec.instant("batch_coalesce", "batch",
                                {"coalesced": len(batch)})
            for request in batch:
                request.event.set()
