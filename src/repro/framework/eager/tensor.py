"""Eager tensors: immediate values with per-op dispatch overhead.

``EagerTensor`` wraps a NumPy array plus framework dtype metadata.  Each
operation on eager tensors goes through the full public-API dispatch path
(validation, conversion, kernel call, re-wrapping) — the interpretive
overhead that define-by-run systems pay on every op of every step, and
that staging into a graph amortises away.
"""

from __future__ import annotations

import numpy as np

from .. import dtypes
from ..errors import InvalidArgumentError
from ..shapes import TensorShape
from ..tensor_mixin import TensorOpsMixin

__all__ = ["EagerTensor", "convert_to_eager_tensor"]


class EagerTensor(TensorOpsMixin):
    """A concrete tensor value."""

    __slots__ = ("_value", "_dtype", "_id")

    _next_id = 0

    def __init__(self, value, dtype=None):
        if isinstance(value, EagerTensor):
            value = value._value
        if dtype is not None:
            dtype = dtypes.as_dtype(dtype)
            value = np.asarray(value, dtype=dtype.np_dtype)
        else:
            value = np.asarray(value)
            dtype = dtypes.from_numpy(value.dtype)
        self._value = value
        self._dtype = dtype
        self._id = EagerTensor._next_id
        EagerTensor._next_id += 1

    # -- metadata --------------------------------------------------------

    @property
    def dtype(self):
        return self._dtype

    @property
    def shape(self):
        return TensorShape(self._value.shape)

    @property
    def ndim(self):
        return self._value.ndim

    @property
    def id(self):
        return self._id

    def numpy(self):
        """The underlying NumPy array (no copy)."""
        return self._value

    # -- conversions -----------------------------------------------------

    def __array__(self, dtype=None):
        return self._value if dtype is None else self._value.astype(dtype)

    def __float__(self):
        return float(self._value)

    def __int__(self):
        return int(self._value)

    def __bool__(self):
        # Unlike symbolic tensors, eager tensors *can* be used as Python
        # booleans — this is what lets dynamic dispatch fall back to plain
        # Python control flow in eager mode.
        if self._value.size != 1:
            raise InvalidArgumentError(
                "The truth value of a non-scalar tensor is ambiguous"
            )
        return bool(self._value)

    def __index__(self):
        if self._value.ndim != 0 or self._dtype.is_floating:
            raise TypeError("Only integer scalar tensors can be used as an index")
        return int(self._value)

    def __len__(self):
        if self._value.ndim == 0:
            raise TypeError("len() of a 0-d tensor")
        return self._value.shape[0]

    def __iter__(self):
        if self._value.ndim == 0:
            raise TypeError("Cannot iterate over a 0-d tensor")
        return iter([EagerTensor(self._value[i])
                     for i in range(self._value.shape[0])])

    def __hash__(self):
        return id(self)

    def __eq__(self, other):
        # Identity equality, matching symbolic tensors (see TensorOpsMixin
        # docstring); value equality is spelled ops.equal / ag__.eq.
        return self is other

    def __ne__(self, other):
        return self is not other

    def __repr__(self):
        return (
            f"<EagerTensor shape={tuple(self._value.shape)} dtype={self._dtype.name} "
            f"value={np.array2string(self._value, threshold=8)}>"
        )


def convert_to_eager_tensor(value, dtype=None):
    """Coerce ``value`` to an EagerTensor, with an optional target dtype."""
    if isinstance(value, EagerTensor):
        if dtype is not None and value.dtype != dtypes.as_dtype(dtype):
            return EagerTensor(value.numpy(), dtype=dtype)
        return value
    if dtype is None and isinstance(value, float):
        # Python floats default to float32, like TF.
        return EagerTensor(np.asarray(value, dtype=np.float32))
    if dtype is None and isinstance(value, bool):
        return EagerTensor(np.asarray(value))
    if dtype is None and isinstance(value, int):
        # Python ints default to int32, like TF.
        return EagerTensor(np.asarray(value, dtype=np.int32))
    if dtype is None and isinstance(value, (list, tuple)) and value and all(
        isinstance(v, float) for v in value
    ):
        return EagerTensor(np.asarray(value, dtype=np.float32))
    return EagerTensor(dtypes.held_as_labelled(value), dtype=dtype)
