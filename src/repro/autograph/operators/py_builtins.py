"""Overloads of Python builtins (paper §6 and Appendix E Table 5).

``converted_call`` replaces select builtins with these dispatched
versions: ``print`` logs at graph run time instead of trace time,
``len``/``range``/``int``/``float`` stage when their arguments are
tensors.
"""

from __future__ import annotations

import builtins

from repro.framework import EagerTensor, TensorArray, ops
from repro.framework import Tensor as SymbolicTensor

__all__ = ["overload_of", "print_", "len_", "range_", "int_", "float_", "abs_"]


def _any_symbolic(values):
    return builtins.any(isinstance(v, SymbolicTensor) for v in values)


def print_(*args, **kwargs):
    """Overload of ``print``.

    With symbolic arguments, stages a print op that logs when the graph
    executes (and registers it with the enclosing FunctionScope so it is
    not pruned).  Otherwise prints immediately, unwrapping eager tensors
    for readability.
    """
    if _any_symbolic(args):
        sep = kwargs.get("sep", " ")
        end = kwargs.get("end", "\n")
        out = ops.print_v2(*args, sep=sep, end=end)
        from .function_wrappers import register_side_effect

        register_side_effect(out)
        return None
    unwrapped = [a.numpy() if isinstance(a, EagerTensor) else a for a in args]
    return builtins.print(*unwrapped, **kwargs)


def len_(x):
    """Overload of ``len``: leading dimension for tensors."""
    if isinstance(x, TensorArray):
        return x.size()
    if isinstance(x, SymbolicTensor):
        if x.shape.dims is not None and x.shape.rank and x.shape.dims[0] is not None:
            return x.shape.dims[0]
        return ops.get_item(ops.shape(x), 0)
    if isinstance(x, EagerTensor):
        return len(x)
    return builtins.len(x)


def range_(start_or_stop, stop=None, step=None):
    """Overload of ``range``: stages when any bound is a tensor."""
    args = [a for a in (start_or_stop, stop, step) if a is not None]
    if builtins.any(
        isinstance(a, (SymbolicTensor, EagerTensor)) for a in args
    ):
        if stop is None:
            return ops.range(start_or_stop)
        if step is None:
            return ops.range(start_or_stop, stop)
        return ops.range(start_or_stop, stop, step)
    if stop is None:
        return builtins.range(start_or_stop)
    if step is None:
        return builtins.range(start_or_stop, stop)
    return builtins.range(start_or_stop, stop, step)


def int_(x=0, base=None):
    """Overload of ``int``: a cast for tensors."""
    if isinstance(x, (SymbolicTensor, EagerTensor)) and base is None:
        return ops.cast(x, dtype="int32")
    if base is not None:
        return builtins.int(x, base)
    return builtins.int(x)


def float_(x=0.0):
    """Overload of ``float``: a cast for tensors."""
    if isinstance(x, (SymbolicTensor, EagerTensor)):
        return ops.cast(x, dtype="float32")
    return builtins.float(x)


def abs_(x):
    """Overload of ``abs``."""
    if isinstance(x, (SymbolicTensor, EagerTensor)):
        return ops.abs(x)
    return builtins.abs(x)


_OVERLOADS = {
    builtins.print: print_,
    builtins.len: len_,
    builtins.range: range_,
    builtins.int: int_,
    builtins.float: float_,
    builtins.abs: abs_,
}


def overload_of(fn):
    """The dispatched overload for builtin ``fn``, or ``fn`` itself."""
    return _OVERLOADS.get(fn, fn)
