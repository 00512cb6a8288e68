"""TensorArray: a staged, dynamically-sized list of tensors.

Mirrors ``tf.TensorArray`` with flow-through (value) semantics: ``write``
returns a *new* TensorArray.  In graph mode the state travels through the
graph as a variant-typed "flow" tensor, which lets TensorArrays be loop
variables of ``while_loop``; in eager mode the state is held directly.

This is the data structure behind the paper's list overloads
(``ag.list_append`` / ``ag.stack`` with ``ag.set_element_type``) and the
hand-written dynamic RNN in Appendix A.
"""

from __future__ import annotations

import numpy as np

from .. import dtypes
from ..errors import InvalidArgumentError
from ..registry import register_op
from ..shapes import TensorShape

__all__ = ["TensorArray", "TensorArrayValue"]


class TensorArrayValue:
    """Immutable runtime state: the first ``n`` elements of a list.

    Versions made by appending share one list: a write at the end of
    the *newest* version (``n`` is the list's length) appends in place
    and hands back a version one longer, so n appends cost O(n), not
    O(n**2).  Every older version still reads only its own ``n``
    elements, and a write anywhere else copies them first.
    """

    __slots__ = ("_store", "_n")

    def __init__(self, items=()):
        self._store = list(items)
        self._n = len(self._store)

    @classmethod
    def _view(cls, store, n):
        value = cls.__new__(cls)
        value._store, value._n = store, n
        return value

    @property
    def items(self):
        return tuple(self._store[:self._n])

    def write(self, index, value):
        index, n, store = int(index), self._n, self._store
        if index == n and len(store) == n:
            store.append(value)
            # Unless another version (another thread) appended to this
            # list first, which leaves it an older version's: copy.
            if store[n] is value:
                return TensorArrayValue._view(store, n + 1)
        items = store[:n]
        if index == n:
            items.append(value)
        elif 0 <= index < n:
            items[index] = value
        else:
            # Sparse writes grow with zero-size placeholders like TF grows
            # with unwritten elements; reading them is an error.
            items.extend([None] * (index - n))
            items.append(value)
        return TensorArrayValue._view(items, len(items))

    def read(self, index):
        index = int(index)
        if not (0 <= index < self._n) or self._store[index] is None:
            raise InvalidArgumentError(
                f"TensorArray: reading unwritten element {index}"
            )
        return self._store[index]

    def stack(self, dtype="float32", element_shape=None):
        """All elements along a new leading axis.  An empty array has
        nothing to read its element dtype and shape off, so they are the
        handle's (a dimension it does not know is 0)."""
        if not self._n:
            return np.zeros(
                (0,) + tuple(d or 0 for d in element_shape or ()),
                dtypes.as_dtype(dtype).np_dtype or np.float32)
        items = self._store[:self._n]
        if any(item is None for item in items):
            raise InvalidArgumentError("TensorArray: stacking with unwritten elements")
        return np.stack([np.asarray(i) for i in items], axis=0)

    def size(self):
        return np.asarray(self._n, dtype=np.int32)

    def pop(self):
        if not self._n:
            raise IndexError("pop from empty TensorArray")
        return (TensorArrayValue._view(self._store, self._n - 1),
                self._store[self._n - 1])

    def __len__(self):
        return self._n

    def __repr__(self):
        return f"TensorArrayValue(size={self._n})"


# -- kernels -----------------------------------------------------------------

register_op("TensorArrayNew", lambda size=0: TensorArrayValue([None] * int(size)),
            fresh_output=True, dtype_fn=lambda dts, attrs: [dtypes.variant])
register_op("TensorArrayWrite", lambda ta, i, v: ta.write(np.asarray(i), v),
            dtype_fn=lambda dts, attrs: [dtypes.variant])
register_op("TensorArrayRead", lambda ta, i: ta.read(np.asarray(i)))
register_op("TensorArrayStack", TensorArrayValue.stack, fresh_output=True,
            shape_fn=lambda ss, attrs: [TensorShape(
                None if attrs.get("element_shape") is None
                else (None, *attrs["element_shape"]))])
register_op("TensorArraySize", lambda ta: ta.size(), fresh_output=True,
            dtype_fn=lambda dts, attrs: [dtypes.int32])
register_op("TensorArrayPop", TensorArrayValue.pop, num_outputs=2,
            dtype_fn=lambda dts, attrs: [dtypes.variant, dtypes.variant])
register_op("TensorArrayFromTensor",
            lambda t: TensorArrayValue([np.asarray(t)[i] for i in range(np.asarray(t).shape[0])]),
            dtype_fn=lambda dts, attrs: [dtypes.variant])


def _run(op_type, inputs, attrs=None):
    """Dispatch a TensorArray op in the current mode."""
    from ..ops import dispatch

    return dispatch.run_op(op_type, inputs, attrs or {})


class TensorArray:
    """User-facing TensorArray with value semantics.

    Args:
      dtype: the element dtype — what an empty :meth:`stack` returns.
      size: initial number of (unwritten) elements, an int or a tensor.
      flow: wrap an existing flow value instead of creating an array.
      element_shape: the static shape of one element, ``None`` dimensions
        (or ``None`` altogether) where unknown.  When not given it is
        learned from the first ``write`` of a value with a known shape,
        and it travels with the handle through ``cond`` / ``while_loop``;
        an empty array stacks to ``zeros((0, *element_shape), dtype)``.
      dynamic_size, clear_after_read: accepted for ``tf.TensorArray``
        parity and have no effect — the array always grows on a write
        past its end and never forgets an element.
    """

    __slots__ = ("element_dtype", "element_shape", "flow")

    def __init__(self, dtype=dtypes.float32, size=0, dynamic_size=True, flow=None,
                 clear_after_read=False, element_shape=None):
        self.element_dtype = dtypes.as_dtype(dtype)
        self.element_shape = TensorShape(element_shape).dims
        if flow is not None:
            self.flow = flow
        elif isinstance(size, int):
            self.flow = _run("TensorArrayNew", [], {"size": size})
        else:
            # Tensor-valued size: stage through an op input instead.
            self.flow = _run("TensorArrayNewDynamic", [size])

    def write(self, index, value):
        """Write ``value`` at ``index``; returns a new TensorArray."""
        new_flow = _run("TensorArrayWrite", [self.flow, index, value])
        element_shape = self.element_shape
        if element_shape is None:
            shape = getattr(value, "shape", None)
            element_shape = (shape.dims if isinstance(shape, TensorShape)
                             else np.shape(value))
        return TensorArray(self.element_dtype, flow=new_flow,
                           element_shape=element_shape)

    def read(self, index):
        return _run("TensorArrayRead", [self.flow, index])

    def stack(self):
        """Stack all elements along a new leading axis."""
        return _run("TensorArrayStack", [self.flow],
                    {"dtype": self.element_dtype.name,
                     "element_shape": self.element_shape})

    def size(self):
        return _run("TensorArraySize", [self.flow])

    def pop(self):
        """Drop the last element; returns ``(shorter array, element)``."""
        flow, value = _run("TensorArrayPop", [self.flow])
        return TensorArray(self.element_dtype, flow=flow,
                           element_shape=self.element_shape), value

    @classmethod
    def unstack(cls, tensor, dtype=dtypes.float32):
        """Build a TensorArray from the rows of ``tensor``."""
        flow = _run("TensorArrayFromTensor", [tensor])
        return cls(dtype, flow=flow)

    def __repr__(self):
        return f"<TensorArray dtype={self.element_dtype.name}>"


def _ta_new_dynamic_kernel(size):
    return TensorArrayValue([None] * int(np.asarray(size)))


register_op("TensorArrayNewDynamic", _ta_new_dynamic_kernel, fresh_output=True,
            dtype_fn=lambda dts, attrs: [dtypes.variant])
