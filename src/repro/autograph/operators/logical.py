"""Logical and comparison operator overloads (paper §7.2).

Python cannot overload ``and``/``or``/``not`` (they are lazy), and the
framework's tensors deliberately do not overload ``==`` (see
``TensorOpsMixin``).  The logical_expressions converter therefore rewrites
these into the functions below, which dispatch on runtime types.

Lazy semantics are preserved when staging: ``a and b`` is the ternary
``b if a else a``, so it stages as whatever the backend claiming ``a``
makes of an ``if`` — ``cond(a, lambda: b, lambda: a)`` on the graph IR
(paper Appendix E, footnote h) — and is Python's own ``and`` otherwise.
"""

from __future__ import annotations

from repro.framework import ops
from repro.framework.eager.tensor import EagerTensor
from repro.framework.ops.dispatch import backend_for

from .control_flow import if_exp

__all__ = ["and_", "or_", "not_", "eq", "not_eq", "gt_", "gt_e", "lt_", "lt_e"]


def and_(a_fn, b_fn):
    """Lazy ``a and b``, which is ``b if a else a``; operands are passed
    as thunks to preserve laziness."""
    a = a_fn()
    return if_exp(a, b_fn, lambda: a)


def or_(a_fn, b_fn):
    """Lazy ``a or b``, which is ``a if a else b``."""
    a = a_fn()
    return if_exp(a, lambda: a, b_fn)


def not_(a):
    """``not a``: the backend's negation, elementwise on an eager tensor."""
    backend = backend_for(a)
    if backend is not None:
        return backend.not_(a)
    if isinstance(a, EagerTensor):
        return ops.logical_not(a)
    return not a


def _is_tensor(value):
    return isinstance(value, EagerTensor) or backend_for(value) is not None


def _comparison(op_fn, py_fn, name):
    def compare(a, b):
        if _is_tensor(a) or _is_tensor(b):
            return op_fn(a, b)
        return py_fn(a, b)

    compare.__name__ = name
    compare.__doc__ = f"Dispatched ``{name}`` comparison."
    return compare


eq = _comparison(ops.equal, lambda a, b: a == b, "eq")
not_eq = _comparison(ops.not_equal, lambda a, b: a != b, "not_eq")
gt_ = _comparison(ops.greater, lambda a, b: a > b, "gt_")
gt_e = _comparison(ops.greater_equal, lambda a, b: a >= b, "gt_e")
lt_ = _comparison(ops.less, lambda a, b: a < b, "lt_")
lt_e = _comparison(ops.less_equal, lambda a, b: a <= b, "lt_e")
