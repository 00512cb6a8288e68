"""Eager op execution: dispatch, validation, kernel call, tape recording.

This module is the define-by-run interpreter.  Its per-op costs (argument
conversion, dtype metadata, output wrapping, tape bookkeeping) model the
interpretive overhead of systems like TF Eager and PyTorch that the paper
measures against.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidArgumentError
from ..registry import get_op_def
from .tensor import EagerTensor, convert_to_eager_tensor

__all__ = ["execute_op", "OpRecord"]


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


def _unwrap(value):
    if isinstance(value, EagerTensor):
        return value.numpy()
    return value


def _is_array_like(value):
    return isinstance(value, (np.ndarray, np.generic, int, float, bool))


def execute_op(op_name, inputs, attrs=None, name=None):
    """Execute ``op_name`` eagerly and return EagerTensor output(s)."""
    op_def = get_op_def(op_name)
    attrs = attrs or {}

    converted = []
    for value in inputs:
        if isinstance(value, EagerTensor):
            converted.append(value)
        elif _is_array_like(value) or isinstance(value, (list, tuple)):
            converted.append(convert_to_eager_tensor(value))
        else:
            # Opaque runtime objects (TensorArray state, variable handles)
            # pass through untouched.
            converted.append(value)

    raw_inputs = [_unwrap(v) for v in converted]
    try:
        result = op_def.kernel(*raw_inputs, **attrs)
    except (TypeError, ValueError) as e:
        raise InvalidArgumentError(f"{op_name}: {e}", op_name=name or op_name) from e

    single = op_def.output_count(raw_inputs, attrs) == 1
    raw_outputs = (result,) if single else tuple(result)

    outputs = tuple(
        EagerTensor(r) if _is_array_like(r) else r for r in raw_outputs
    )

    if op_def.grad_fn is not None:
        from .tape import record_operation

        record_operation(op_def, converted, outputs, attrs)

    return outputs[0] if single else outputs
