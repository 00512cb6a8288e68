"""Define-by-run automatic differentiation: ``GradientTape``.

The tape records every op executed on a tracked value while it is
active.  ``gradient`` hands the records to the one reverse-mode walk,
:func:`~repro.framework.graph.gradients.backprop`, which graph-mode
``gradients()`` drives too.  The walk builds gradients with the public
dispatching ops, so here it runs eagerly, and an outer tape records it:
a gradient of a gradient is a second derivative.

This is the comparator for the paper's eager-mode training rows (Table 2)
and the "PyTorch" define-by-run comparator in Table 3: a fresh tape is
built on every training step, which is precisely the per-step overhead the
staged backends avoid.
"""

from __future__ import annotations

import threading

from ..errors import FrameworkError
from .tensor import EagerTensor

__all__ = ["GradientTape", "OpRecord", "record_operation"]


class OpRecord:
    """A lightweight record of an executed op, for tape replay.

    Exposes the surface the walk and the gradient functions need from a
    graph ``Operation``: ``op_def``, ``type``, ``name`` (the op type),
    ``inputs``, ``outputs``, ``attrs`` and ``get_attr``.
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

    name = type

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
        """Compute d(target)/d(sources) by a reverse walk of the records.

        Args:
          target: an EagerTensor (scalar or not; non-scalars are seeded with
            ones, matching ``tf.GradientTape``).
          sources: a tensor/Variable or (possibly nested) list of them.
          output_gradients: optional seed gradient for ``target``.

        Returns:
          A structure of gradients matching ``sources``; ``None`` entries
          for sources the target does not depend on.
        """
        from ..graph.gradients import backprop
        from ..graph.variables import Variable
        from ..ops import array_ops

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

        seed = (array_ops.ones_like(target) if output_gradients is None
                else output_gradients)
        grads = backprop(self._records, source_tensors, {id(target): seed},
                         where="GradientTape.gradient")
        results = [grads.get(id(s)) for s in source_tensors]
        if not self._persistent:
            self._records = []
            self._tracked = set(self._watched)
        return results[0] if single else results

