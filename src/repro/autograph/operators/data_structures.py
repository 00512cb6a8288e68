"""List operator overloads (paper §7.2, Lists).

Plain Python lists keep plain semantics.  When the user declares a staged
element type via the ``ag.set_element_type`` directive, the list becomes a
:class:`TensorArray` so that appends inside staged loops thread through
the IR; ``ag.stack`` materializes it (the extra idiom the paper adds for
array programming).
"""

from __future__ import annotations

import numpy as np

from repro.framework import TensorArray, dtypes, ops
from repro.framework import Tensor as SymbolicTensor
from repro.framework.errors import StagingError

__all__ = [
    "new_list",
    "new_list_of_type",
    "list_append",
    "list_pop",
    "list_stack",
]


def new_list(iterable=None):
    """Overload of list literals / ``list()``."""
    if iterable is None:
        return []
    return list(iterable)


def new_list_of_type(existing, element_dtype):
    """Applies an ``ag.set_element_type`` directive: convert ``existing``
    (which must be an empty or tensor-holding list) to a TensorArray."""
    element_dtype = dtypes.as_dtype(element_dtype)
    if isinstance(existing, TensorArray):
        return existing
    if not isinstance(existing, list):
        raise StagingError(
            f"set_element_type expects a Python list, got {type(existing).__name__}"
        )
    ta = TensorArray(element_dtype, size=0, dynamic_size=True)
    for i, value in enumerate(existing):
        ta = ta.write(i, value)
    return ta


def list_append(list_, x):
    """Overload of ``l.append(x)``: returns the updated list."""
    if isinstance(list_, TensorArray):
        return list_.write(list_.size(), x)
    if isinstance(list_, list):
        list_.append(x)
        return list_
    if hasattr(list_, "append"):
        # Arbitrary user objects with an append method keep native
        # semantics; the reassignment the converter generated is a no-op.
        list_.append(x)
        return list_
    raise StagingError(
        f"append called on unsupported staged value {type(list_).__name__}"
    )


def list_pop(list_, i=None):
    """Overload of ``x = l.pop()``: returns ``(new_list, popped_value)``."""
    if isinstance(list_, TensorArray):
        if i is not None:
            raise StagingError("staged list pop only supports popping the tail")
        return list_.pop()
    if isinstance(list_, list):
        value = list_.pop() if i is None else list_.pop(i)
        return list_, value
    if hasattr(list_, "pop"):
        value = list_.pop() if i is None else list_.pop(i)
        return list_, value
    raise StagingError(
        f"pop called on unsupported staged value {type(list_).__name__}"
    )


def list_stack(list_, strict=False):
    """Overload of ``ag.stack``: a tensor stacking the list elements."""
    if isinstance(list_, TensorArray):
        return list_.stack()
    if isinstance(list_, list):
        if list_ and all(
            isinstance(x, SymbolicTensor) or hasattr(x, "numpy") for x in list_
        ):
            return ops.stack(list_)
        if strict:
            raise StagingError("stack requires a list of tensors")
        return ops.constant(np.stack([np.asarray(x) for x in list_]))
    if isinstance(list_, (SymbolicTensor,)) or hasattr(list_, "numpy"):
        # Already a tensor.
        return list_
    raise StagingError(
        f"stack called on unsupported value {type(list_).__name__}"
    )
