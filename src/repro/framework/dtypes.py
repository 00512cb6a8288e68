"""Data types for the framework.

Mirrors the role of ``tf.DType``: a small registry of element types with
NumPy interop, NumPy's own promotion and classification predicates.  Both the
eager and the graph execution modes share these objects, so tensors carry
identical type metadata regardless of how they are executed.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "DType",
    "float32",
    "float64",
    "int32",
    "int64",
    "bool_",
    "string",
    "variant",
    "as_dtype",
    "from_numpy",
    "numpy_result_dtype",
    "numpy_dtype_fn",
]


class DType:
    """An element type.

    Attributes:
      name: canonical string name, e.g. ``"float32"``.
      np_dtype: the corresponding NumPy dtype, or None for ``variant``.
      is_floating / is_integer / is_bool / is_string: classification flags.
    """

    __slots__ = ("name", "np_dtype", "is_floating", "is_integer", "is_bool", "is_string")

    def __init__(self, name, np_dtype, *, floating=False, integer=False, boolean=False, string=False):
        self.name = name
        self.np_dtype = np.dtype(np_dtype) if np_dtype is not None else None
        self.is_floating = floating
        self.is_integer = integer
        self.is_bool = boolean
        self.is_string = string

    @property
    def is_numeric(self):
        return self.is_floating or self.is_integer

    def __repr__(self):
        return f"<dtype: {self.name!r}>"

    def __str__(self):
        return self.name

    def __eq__(self, other):
        if isinstance(other, DType):
            return self.name == other.name
        if isinstance(other, str):
            return self.name == other
        return NotImplemented

    def __hash__(self):
        return hash(self.name)


float32 = DType("float32", np.float32, floating=True)
float64 = DType("float64", np.float64, floating=True)
int32 = DType("int32", np.int32, integer=True)
int64 = DType("int64", np.int64, integer=True)
bool_ = DType("bool", np.bool_, boolean=True)
string = DType("string", None, string=True)
# `variant` carries opaque runtime values (TensorArray state, staged lists).
variant = DType("variant", None)

_BY_NAME = {
    d.name: d for d in (float32, float64, int32, int64, bool_, string, variant)
}
_BY_NP = {
    np.dtype(np.float32): float32,
    np.dtype(np.float64): float64,
    np.dtype(np.int32): int32,
    np.dtype(np.int64): int64,
    np.dtype(np.bool_): bool_,
    # Common widths normalized onto the supported set.
    np.dtype(np.int16): int32,
    np.dtype(np.int8): int32,
    np.dtype(np.uint8): int32,
    np.dtype(np.float16): float32,
}


def as_dtype(value):
    """Coerce ``value`` (DType, str, np.dtype, python type) to a DType."""
    if isinstance(value, DType):
        return value
    if isinstance(value, str):
        try:
            return _BY_NAME[value]
        except KeyError:
            raise TypeError(f"Unknown dtype name: {value!r}") from None
    if value is float:
        return float32
    if value is int:
        return int32
    if value is bool:
        return bool_
    if value is str:
        return string
    try:
        np_dt = np.dtype(value)
    except TypeError:
        raise TypeError(f"Cannot convert {value!r} to a DType") from None
    return from_numpy(np_dt)


def from_numpy(np_dtype):
    """Map a NumPy dtype onto a framework DType."""
    np_dtype = np.dtype(np_dtype)
    try:
        return _BY_NP[np_dtype]
    except KeyError:
        if np_dtype.kind in ("U", "S", "O"):
            return string
        raise TypeError(f"Unsupported NumPy dtype: {np_dtype}") from None


@functools.lru_cache(maxsize=None)
def numpy_result_dtype(fn, np_dtypes):
    """The NumPy dtype ``fn`` really returns for operands of ``np_dtypes``.

    The one result-dtype rule: ``fn`` — a ufunc, or a kernel built on
    NumPy calls — is run once per dtype tuple on one-element rank-2
    arrays of zeros (a valid matmul operand, index and label alike), so
    what the graph builder declares and what the fusion pass proves is
    NumPy's own promotion, never a model of it.  ``None`` when an operand
    dtype is ``None`` (untyped) or NumPy refuses the mix.
    """
    if any(dt is None for dt in np_dtypes):
        return None
    try:
        with np.errstate(all="ignore"):
            out = fn(*(np.zeros((1, 1), dt) for dt in np_dtypes))
    except (TypeError, ValueError):
        return None
    return np.asarray(out).dtype


def numpy_dtype_fn(fn):
    """An ``OpDef.dtype_fn`` declaring what ``fn`` returns
    (:func:`numpy_result_dtype`), normalized by :func:`from_numpy`;
    ``variant`` — decided at run time — where NumPy names no dtype or
    one the framework has no name for (``exp(bool)`` is float16)."""

    def dtype_fn(input_dtypes, attrs):
        out = numpy_result_dtype(fn, tuple(dt.np_dtype for dt in input_dtypes))
        if out is None or out == np.float16:
            return [variant]
        return [from_numpy(out)]

    return dtype_fn
