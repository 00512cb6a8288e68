"""Public array manipulation ops (mode-agnostic)."""

from __future__ import annotations

import numpy as np

from .. import dtypes as dtypes_mod
from ..eager.tensor import EagerTensor
from ..graph.graph import Tensor
from . import dispatch

__all__ = [
    "constant", "placeholder", "shape", "size", "rank", "reshape",
    "expand_dims", "squeeze", "transpose", "concat", "stack", "unstack",
    "tile", "gather", "boolean_mask", "fill", "zeros", "ones",
    "zeros_like", "ones_like", "range", "one_hot", "identity", "where",
    "get_item", "set_item", "eye",
]


def constant(value, dtype=None, name="Const"):
    """A constant tensor (graph Const node or EagerTensor)."""
    from .. import context

    if context.has_default_graph():
        g = context.get_default_graph()
        if isinstance(value, EagerTensor):
            value = value.numpy()
        if dtype is not None:
            value = np.asarray(value, dtype=dtypes_mod.as_dtype(dtype).np_dtype)
        return g.constant(dtypes_mod.held_as_labelled(value), name=name)
    return dispatch.convert_to_tensor(value, dtype=dtype)


def placeholder(dtype, shape=None, name="Placeholder"):
    """A graph input to be fed at ``Session.run`` time."""
    from .. import context

    return context.get_default_graph().placeholder(dtype, shape=shape, name=name)


def shape(x, name=None):
    """Dynamic shape of ``x`` as an int32 vector tensor."""
    return dispatch.run_op("Shape", [x], {}, name=name)


def size(x, name=None):
    """Total element count of ``x`` (int32 scalar)."""
    return dispatch.run_op("Size", [x], {}, name=name)


def rank(x, name=None):
    """Rank of ``x`` (int32 scalar)."""
    return dispatch.run_op("Rank", [x], {}, name=name)


def reshape(x, new_shape, name=None):
    """Reshape ``x``; ``new_shape`` may be a python sequence or a tensor."""
    if isinstance(new_shape, (list, tuple)):
        new_shape = np.asarray(new_shape, dtype=np.int32)
    return dispatch.run_op("Reshape", [x, new_shape], {}, name=name)


def expand_dims(x, axis, name=None):
    """Insert a length-1 dimension at ``axis``."""
    return dispatch.run_op("ExpandDims", [x], {"axis": axis}, name=name)


def squeeze(x, axis=None, name=None):
    """Remove length-1 dimensions (all, or the one at ``axis``)."""
    return dispatch.run_op("Squeeze", [x], {"axis": axis}, name=name)


def transpose(x, perm=None, name=None):
    """Permute dimensions (reverse if ``perm`` is None)."""
    return dispatch.run_op("Transpose", [x], {"perm": tuple(perm) if perm is not None else None},
                           name=name)


def concat(values, axis=0, name=None):
    """Concatenate a list of tensors along ``axis``."""
    return dispatch.run_op("Concat", list(values), {"axis": axis}, name=name)


def stack(values, axis=0, name=None):
    """Stack a list of tensors along a new ``axis``."""
    return dispatch.run_op("Pack", list(values), {"axis": axis}, name=name)


def unstack(x, num=None, axis=0, name=None):
    """Split ``x`` into a python list of tensors along ``axis``.

    ``num`` must be statically known (from the shape when omitted).
    """
    if num is None:
        s = x.shape if hasattr(x, "shape") else None
        if s is None or s.dims is None or s.dims[axis] is None:
            raise ValueError("unstack requires a statically-known dimension")
        num = s.dims[axis]
    return [get_item(x, _axis_index(axis, i)) for i in range(num)]


def _axis_index(axis, i):
    if axis == 0:
        return i
    return tuple([slice(None)] * axis + [i])


def tile(x, multiples, name=None):
    """Tile ``x`` by ``multiples`` per dimension."""
    if isinstance(multiples, (list, tuple)):
        multiples = np.asarray(multiples, dtype=np.int32)
    return dispatch.run_op("Tile", [x, multiples], {}, name=name)


def gather(params, indices, axis=0, name=None):
    """Gather rows (slices along ``axis``) of ``params`` by ``indices``."""
    return dispatch.run_op("Gather", [params, indices], {"axis": axis}, name=name)


def boolean_mask(x, mask, name=None):
    """Select the rows of ``x`` where ``mask`` is True."""
    return dispatch.run_op("BooleanMask", [x, mask], {}, name=name)


def fill(dims, value, name=None):
    """A tensor of shape ``dims`` filled with ``value``."""
    if isinstance(dims, (list, tuple)):
        dims = np.asarray(dims, dtype=np.int32)
    return dispatch.run_op("Fill", [dims, value], {}, name=name)


def zeros(shape_, dtype=dtypes_mod.float32, name=None):
    """A tensor of zeros."""
    return constant(np.zeros(tuple(shape_), dtype=dtypes_mod.as_dtype(dtype).np_dtype),
                    name=name or "zeros")


def ones(shape_, dtype=dtypes_mod.float32, name=None):
    """A tensor of ones."""
    return constant(np.ones(tuple(shape_), dtype=dtypes_mod.as_dtype(dtype).np_dtype),
                    name=name or "ones")


def eye(n, dtype=dtypes_mod.float32, name=None):
    """The n-by-n identity matrix."""
    return constant(np.eye(n, dtype=dtypes_mod.as_dtype(dtype).np_dtype),
                    name=name or "eye")


def zeros_like(x, name=None):
    """Zeros with the shape/dtype of ``x``."""
    return dispatch.run_op("ZerosLike", [x], {}, name=name)


def ones_like(x, name=None):
    """Ones with the shape/dtype of ``x``."""
    return dispatch.run_op("OnesLike", [x], {}, name=name)


def range(start, limit=None, delta=1, name=None):
    """A 1-D tensor of evenly spaced values (like ``tf.range``)."""
    if limit is None:
        start, limit = 0, start
    return dispatch.run_op("Range", [start, limit, delta], {}, name=name)


def one_hot(indices, depth, on_value=1.0, off_value=0.0, dtype=dtypes_mod.float32,
            name=None):
    """One-hot encode integer ``indices`` into ``depth`` classes."""
    return dispatch.run_op(
        "OneHot", [indices, depth],
        {"on_value": on_value, "off_value": off_value,
         "dtype": dtypes_mod.as_dtype(dtype).name},
        name=name,
    )


def identity(x, name=None):
    """Pass-through op (useful for naming / control dependencies)."""
    return dispatch.run_op("Identity", [x], {}, name=name)


def where(cond, x=None, y=None, name=None):
    """Elementwise (or row-wise for vector cond) select of x/y by cond."""
    if x is None or y is None:
        raise NotImplementedError("where requires both branches in this build")
    return dispatch.run_op("Select", [cond, x, y], {}, name=name)


# ---------------------------------------------------------------------------
# General indexing: x[key] and functional x[key] = v
# ---------------------------------------------------------------------------


def _is_tensor_index(k):
    return isinstance(k, (Tensor, EagerTensor))


def _build_index_spec(key):
    """Split an indexing key into a static spec + dynamic tensor inputs."""
    entries = []
    tensor_inputs = []
    key_tuple = key if isinstance(key, tuple) else (key,)
    for k in key_tuple:
        if _is_tensor_index(k):
            entries.append(("tensor",))
            tensor_inputs.append(k)
        elif isinstance(k, slice):
            parts = []
            for part in (k.start, k.stop, k.step):
                if part is None:
                    parts.append(None)
                elif _is_tensor_index(part):
                    parts.append("T")
                    tensor_inputs.append(part)
                else:
                    parts.append(int(part))
            entries.append(("dslice", parts[0], parts[1], parts[2]))
        elif k is Ellipsis:
            entries.append(("ellipsis",))
        elif k is None:
            entries.append(("newaxis",))
        elif isinstance(k, (int, np.integer)):
            entries.append(("idx", int(k)))
        elif isinstance(k, (list, np.ndarray)):
            entries.append(("tensor",))
            tensor_inputs.append(np.asarray(k))
        else:
            raise TypeError(f"Unsupported index component: {k!r}")
    return tuple(entries), tensor_inputs


def get_item(x, key, name=None):
    """``x[key]`` with tensor-valued indices supported."""
    spec, tensor_inputs = _build_index_spec(key)
    return dispatch.run_op("GetItem", [x] + tensor_inputs, {"spec": spec}, name=name)


def set_item(x, key, value, name=None):
    """Value-semantics slice write: returns a copy of ``x`` with
    ``x[key] = value`` applied (paper §7.2, Slices)."""
    spec, tensor_inputs = _build_index_spec(key)
    return dispatch.run_op("SetItem", [x, value] + tensor_inputs, {"spec": spec},
                           name=name)
