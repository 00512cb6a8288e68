"""User-facing Lantern math functions.

Dual-mode like the framework ops: on staged values they emit IR
instructions; on NumPy values they compute immediately (used by tests to
check staged-vs-eager equivalence, and by the define-by-run comparator).
"""

from __future__ import annotations

import numpy as np

from .ir import Param, StagedValue

__all__ = ["tanh", "sigmoid", "relu", "exp", "log", "sqrt", "square",
           "abs_", "transpose", "maximum", "matmul", "concat0", "concat1",
           "sum_", "mean", "xent", "numpy_kernels"]


def _np_sigmoid(x):
    out = np.empty_like(x, dtype=np.float32)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _np_xent(logits, label):
    logits = np.asarray(logits)
    shifted = logits - logits.max()
    log_probs = shifted - np.log(np.exp(shifted).sum())
    return -float(log_probs.reshape(-1)[int(label)])


numpy_kernels = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "neg": lambda a: -a,
    "tanh": np.tanh,
    "sigmoid": lambda a: _np_sigmoid(np.asarray(a, dtype=np.float32)),
    "relu": lambda a: np.maximum(a, 0.0),
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "square": np.square,
    "abs": np.abs,
    "transpose": np.transpose,
    "maximum": lambda a, b: np.maximum(a, b),
    "matmul": lambda a, b: a @ b,
    "concat0": lambda a, b: np.concatenate((a, b), axis=0),
    "concat1": lambda a, b: np.concatenate((a, b), axis=1),
    "sum": lambda a: np.sum(a),
    "sum0": lambda a: np.sum(a, axis=0),
    "sum1": lambda a: np.sum(a, axis=1),
    "sumk": lambda a: np.sum(a, keepdims=True),
    "sum0k": lambda a: np.sum(a, axis=0, keepdims=True),
    "sum1k": lambda a: np.sum(a, axis=1, keepdims=True),
    "mean": lambda a: np.mean(a),
    "mean0": lambda a: np.mean(a, axis=0),
    "mean1": lambda a: np.mean(a, axis=1),
    "meank": lambda a: np.mean(a, keepdims=True),
    "mean0k": lambda a: np.mean(a, axis=0, keepdims=True),
    "mean1k": lambda a: np.mean(a, axis=1, keepdims=True),
    "xent": _np_xent,
}

_AXIS_SUFFIX = {None: "", 0: "0", 1: "1"}


def _unwrap(value):
    if isinstance(value, Param):
        return value.value
    return value


def _dispatch(op, *args):
    staged = next((a for a in args if isinstance(a, StagedValue)), None)
    if staged is not None:
        return staged.builder.emit(op, *args)
    return numpy_kernels[op](*[_unwrap(a) for a in args])


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


def mean(x, axis=None, keepdims=False):
    """Mean over all elements (``axis=None``) or along axis 0/1."""
    if axis not in _AXIS_SUFFIX:
        raise ValueError(f"lantern mean supports axis None/0/1, got {axis!r}")
    suffix = _AXIS_SUFFIX[axis] + ("k" if keepdims else "")
    return _dispatch(f"mean{suffix}", x)


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
    if axis not in _AXIS_SUFFIX:
        raise ValueError(f"lantern sum supports axis None/0/1, got {axis!r}")
    suffix = _AXIS_SUFFIX[axis] + ("k" if keepdims else "")
    return _dispatch(f"sum{suffix}", a)


def xent(logits, label):
    """Sparse softmax cross-entropy of a [1, C] logits row vs int label."""
    return _dispatch("xent", logits, label)
