"""Slice operator overloads (paper §7.2, Slices).

Slice *writes* get value semantics: ``x[i] = y`` was rewritten to
``x = ag__.set_item(x, i, y)`` by the slices converter, because the
target IR requires functional updates.  Reads dispatch mechanically.
"""

from __future__ import annotations

from repro.framework import EagerTensor, TensorArray, ops
from repro.framework import Tensor as SymbolicTensor

__all__ = ["get_item", "set_item"]


def get_item(target, key):
    """Overload of ``target[key]``."""
    if isinstance(target, TensorArray):
        return target.read(key)
    if isinstance(target, (SymbolicTensor, EagerTensor)):
        return ops.get_item(target, key)
    if isinstance(key, (SymbolicTensor, EagerTensor)) and hasattr(target, "__getitem__"):
        # Python container indexed by a tensor: use its concrete value when
        # available (eager), otherwise this is a staging error surfaced by
        # the container itself.
        if isinstance(key, EagerTensor):
            return target[int(key)]
    return target[key]


def set_item(target, key, value):
    """Overload of ``target[key] = value`` with value semantics."""
    if isinstance(target, TensorArray):
        return target.write(key, value)
    if isinstance(target, (SymbolicTensor, EagerTensor)):
        return ops.set_item(target, key, value)
    # Native mutation; returning the target preserves the functional form
    # the converter generates.
    target[key] = value
    return target
