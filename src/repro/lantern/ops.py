"""User-facing Lantern math functions.

Dual-mode like the framework ops: on staged values they emit IR
instructions; on NumPy values they compute immediately (used by tests to
check staged-vs-eager equivalence, and by the define-by-run comparator).
"""

from __future__ import annotations

import functools

from .compiler import RUNTIME
from .ir import OPS, Param, StagedValue, reduction_op

__all__ = ["tanh", "sigmoid", "relu", "exp", "log", "sqrt", "square",
           "abs_", "transpose", "maximum", "matmul", "concat0", "concat1",
           "sum_", "mean", "xent", "numpy_kernel"]


@functools.lru_cache(maxsize=None)
def numpy_kernel(op_name):
    """The immediate form of IR op ``op_name``: its forward expression
    (``ir.OPS``) as a function of the operands."""
    params = [f"a{i}" for i in range(OPS[op_name].arity)]
    return eval(  # the table's own source, in the generated code's namespace
        f"lambda {', '.join(params)}: {OPS[op_name].forward.format(*params)}",
        dict(RUNTIME))


def _unwrap(value):
    if isinstance(value, Param):
        return value.value
    return value


def _dispatch(op, *args):
    staged = next((a for a in args if isinstance(a, StagedValue)), None)
    if staged is not None:
        return staged.builder.emit(op, *args)
    return numpy_kernel(op)(*[_unwrap(a) for a in args])


def tanh(x):
    """Elementwise tanh (staged or immediate)."""
    return _dispatch("tanh", x)


def sigmoid(x):
    """Elementwise logistic (staged or immediate)."""
    return _dispatch("sigmoid", x)


def relu(x):
    """Elementwise relu (staged or immediate)."""
    return _dispatch("relu", x)


def exp(x):
    return _dispatch("exp", x)


def log(x):
    return _dispatch("log", x)


def sqrt(x):
    return _dispatch("sqrt", x)


def square(x):
    return _dispatch("square", x)


def abs_(x):
    return _dispatch("abs", x)


def transpose(x):
    """Matrix transpose."""
    return _dispatch("transpose", x)


def maximum(a, b):
    """Elementwise maximum."""
    return _dispatch("maximum", a, b)


def _reduce(fn, x, axis, keepdims):
    if axis not in (None, 0, 1):
        raise ValueError(f"lantern {fn} supports axis None/0/1, got {axis!r}")
    return _dispatch(reduction_op(fn, axis, keepdims), x)


def mean(x, axis=None, keepdims=False):
    """Mean over all elements (``axis=None``) or along axis 0/1."""
    return _reduce("mean", x, axis, keepdims)


def matmul(a, b):
    """Matrix (or row-vector) product."""
    return _dispatch("matmul", a, b)


def concat1(a, b):
    """Concatenate two row vectors along axis 1."""
    return _dispatch("concat1", a, b)


def concat0(a, b):
    """Concatenate along axis 0 (stack rows)."""
    return _dispatch("concat0", a, b)


def sum_(a, axis=None, keepdims=False):
    """Sum over all elements (``axis=None``) or along axis 0/1."""
    return _reduce("sum", a, axis, keepdims)


def xent(logits, label):
    """Sparse softmax cross-entropy of a [1, C] logits row vs int label."""
    return _dispatch("xent", logits, label)
