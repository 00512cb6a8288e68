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
    """Immutable runtime state: a tuple of element arrays."""

    __slots__ = ("items",)

    def __init__(self, items=()):
        self.items = tuple(items)

    def write(self, index, value):
        index = int(index)
        items = list(self.items)
        if index == len(items):
            items.append(value)
        elif 0 <= index < len(items):
            items[index] = value
        else:
            # Sparse writes grow with zero-size placeholders like TF grows
            # with unwritten elements; reading them is an error.
            while len(items) < index:
                items.append(None)
            items.append(value)
        return TensorArrayValue(items)

    def read(self, index):
        index = int(index)
        if not (0 <= index < len(self.items)) or self.items[index] is None:
            raise InvalidArgumentError(
                f"TensorArray: reading unwritten element {index}"
            )
        return self.items[index]

    def stack(self, dtype="float32", element_shape=None):
        """All elements along a new leading axis.  An empty array has
        nothing to read its element dtype and shape off, so they are the
        handle's (a dimension it does not know is 0)."""
        if not self.items:
            return np.zeros(
                (0,) + tuple(d or 0 for d in element_shape or ()),
                dtypes.as_dtype(dtype).np_dtype or np.float32)
        if any(item is None for item in self.items):
            raise InvalidArgumentError("TensorArray: stacking with unwritten elements")
        return np.stack([np.asarray(i) for i in self.items], axis=0)

    def size(self):
        return np.asarray(len(self.items), dtype=np.int32)

    def pop(self):
        if not self.items:
            raise IndexError("pop from empty TensorArray")
        return TensorArrayValue(self.items[:-1]), self.items[-1]

    def __len__(self):
        return len(self.items)

    def __repr__(self):
        return f"TensorArrayValue(size={len(self.items)})"


# -- kernels -----------------------------------------------------------------

register_op("TensorArrayNew", lambda size=0: TensorArrayValue([None] * int(size)),
            dtype_fn=lambda dts, attrs: [dtypes.variant])
register_op("TensorArrayWrite", lambda ta, i, v: ta.write(np.asarray(i), v),
            dtype_fn=lambda dts, attrs: [dtypes.variant])
register_op("TensorArrayRead", lambda ta, i: ta.read(np.asarray(i)))
register_op("TensorArrayStack", TensorArrayValue.stack,
            shape_fn=lambda ss, attrs: [TensorShape(
                None if attrs.get("element_shape") is None
                else (None, *attrs["element_shape"]))])
register_op("TensorArraySize", lambda ta: ta.size(),
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

    @classmethod
    def _from_flow(cls, dtype, flow, element_shape=None):
        return cls(dtype, flow=flow, element_shape=element_shape)

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


register_op("TensorArrayNewDynamic", _ta_new_dynamic_kernel,
            dtype_fn=lambda dts, attrs: [dtypes.variant])
