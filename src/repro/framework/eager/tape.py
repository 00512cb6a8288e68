"""Define-by-run automatic differentiation: ``GradientTape``.

The tape records every differentiable op executed while it is active and
replays the registered gradient functions in reverse on request.  Because
gradient functions are written against the public dispatching ops, replay
itself executes eagerly.

This is the comparator for the paper's eager-mode training rows (Table 2)
and the "PyTorch" define-by-run comparator in Table 3: a fresh tape is
built on every training step, which is precisely the per-step overhead the
staged backends avoid.
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import FrameworkError, StagingError
from .tensor import EagerTensor

__all__ = ["GradientTape", "OpRecord", "record_operation"]


class OpRecord:
    """A lightweight record of an executed op, for tape replay.

    Exposes the same surface gradient functions need from a graph
    ``Operation``: ``inputs``, ``outputs``, ``attrs`` and ``get_attr``.
    """

    __slots__ = ("op_def", "inputs", "outputs", "attrs")

    def __init__(self, op_def, inputs, outputs, attrs):
        self.op_def = op_def
        self.inputs = inputs
        self.outputs = outputs
        self.attrs = attrs

    @property
    def type(self):
        return self.op_def.name

    def get_attr(self, name, default=None):
        return self.attrs.get(name, default)


class _ActiveTapes(threading.local):
    """The active tapes, innermost last, kept per thread: two threads
    each running their own ``with GradientTape()`` block (per-shard
    gradients in :mod:`repro.blocks.data_parallel`, concurrent server
    handlers) neither see nor record onto each other's tapes."""

    def __init__(self):
        self.stack = []


ACTIVE = _ActiveTapes()


def record_operation(op_def, inputs, outputs, attrs):
    """Record one executed op on every active tape that tracks one of
    its inputs — also an op with no ``grad_fn``, so that a gradient
    reaching it raises instead of silently stopping there."""
    record = None
    for tape in ACTIVE.stack:
        if tape._should_record(inputs):
            if record is None:
                record = OpRecord(op_def, tuple(inputs), tuple(outputs), dict(attrs))
            tape._record(record)


class GradientTape:
    """Records ops for reverse-mode differentiation.

    Example:
      >>> with GradientTape() as tape:
      ...     tape.watch(x)
      ...     y = x * x
      >>> dx = tape.gradient(y, x)
    """

    def __init__(self, persistent=False):
        self._persistent = persistent
        self._records = []
        self._watched = set()
        # ids of tensors known to be on a path from a watched tensor.
        self._tracked = set()
        self._used = False

    # -- context management ----------------------------------------------

    def __enter__(self):
        ACTIVE.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        ACTIVE.stack.remove(self)
        return False

    # -- recording ---------------------------------------------------------

    def watch(self, tensor):
        """Mark ``tensor`` (or a Variable) as differentiable input."""
        from ..graph.variables import Variable

        if isinstance(tensor, Variable):
            tensor = tensor.value()
        if not isinstance(tensor, EagerTensor):
            raise TypeError(f"Can only watch eager tensors, got {type(tensor).__name__}")
        self._watched.add(tensor.id)
        self._tracked.add(tensor.id)

    def _should_record(self, inputs):
        for value in inputs:
            if isinstance(value, EagerTensor) and value.id in self._tracked:
                return True
        return False

    def _record(self, record):
        self._records.append(record)
        for out in record.outputs:
            if isinstance(out, EagerTensor):
                self._tracked.add(out.id)

    # -- differentiation ---------------------------------------------------

    def gradient(self, target, sources, output_gradients=None):
        """Compute d(target)/d(sources) by reverse replay.

        Args:
          target: an EagerTensor (scalar or not; non-scalars are seeded with
            ones, matching ``tf.GradientTape``).
          sources: a tensor/Variable or (possibly nested) list of them.
          output_gradients: optional seed gradient for ``target``.

        Returns:
          A structure of gradients matching ``sources``; ``None`` entries
          for sources the target does not depend on.
        """
        from ..graph.variables import Variable

        if self._used and not self._persistent:
            raise FrameworkError(
                "A non-persistent GradientTape can only be used once"
            )
        self._used = True

        single = not isinstance(sources, (list, tuple))
        source_list = [sources] if single else list(sources)
        source_tensors = []
        for s in source_list:
            if isinstance(s, Variable):
                s = s.value()
            if not isinstance(s, EagerTensor):
                raise TypeError(f"Invalid gradient source: {type(s).__name__}")
            source_tensors.append(s)

        if not isinstance(target, EagerTensor):
            raise TypeError("gradient target must be an EagerTensor")

        # Reverse accumulation over the recorded ops.
        grads = {}
        if output_gradients is None:
            seed = EagerTensor(np.ones_like(target.numpy()))
        else:
            seed = output_gradients
        grads[target.id] = seed

        reaching = None
        for record in reversed(self._records):
            out_grads = [
                grads.get(out.id) if isinstance(out, EagerTensor) else None
                for out in record.outputs
            ]
            if all(g is None for g in out_grads):
                continue
            if record.op_def.grad_fn is None:
                # As ``gradients()``: an op with no gradient on a path
                # from a source to the target is an error, not a zero.
                if reaching is None:
                    reaching = _reaching(self._records, source_tensors)
                if any(isinstance(inp, EagerTensor) and inp.id in reaching
                       for inp in record.inputs):
                    raise StagingError(
                        f"GradientTape.gradient: op of type {record.type!r} "
                        "on the differentiation path has no registered "
                        "gradient"
                    )
                continue
            filled = []
            for g, out in zip(out_grads, record.outputs):
                if g is None and isinstance(out, EagerTensor):
                    g = EagerTensor(np.zeros_like(out.numpy()))
                filled.append(g)
            input_grads = record.op_def.grad_fn(record, *filled)
            if not isinstance(input_grads, (list, tuple)):
                input_grads = [input_grads]
            for inp, g in zip(record.inputs, input_grads):
                if g is None or not isinstance(inp, EagerTensor):
                    continue
                if inp.id in grads:
                    grads[inp.id] = EagerTensor(grads[inp.id].numpy() + g.numpy())
                else:
                    grads[inp.id] = g

        results = [grads.get(s.id) for s in source_tensors]
        if not self._persistent:
            self._records = []
            self._tracked = set(self._watched)
        return results[0] if single else results


def _reaching(records, sources):
    """Ids of the tensors the recorded ops compute from ``sources``."""
    reaching = {s.id for s in sources}
    for record in records:
        if any(isinstance(inp, EagerTensor) and inp.id in reaching
               for inp in record.inputs):
            reaching.update(out.id for out in record.outputs
                            if isinstance(out, EagerTensor))
    return reaching
