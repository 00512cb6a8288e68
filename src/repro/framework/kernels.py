"""NumPy kernels for every primitive op, plus their registrations.

The kernels operate on plain NumPy arrays (or opaque runtime objects for
variant-typed values such as TensorArray state).  They are shared verbatim
by the eager executor and the graph session's compiled plans, so the two
modes are numerically identical by construction — the *only* difference
between modes is where the per-op Python dispatch overhead is paid.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from . import dtypes, shapes
from .errors import ExecutionError, InvalidArgumentError
from .registry import register_op
from .shapes import TensorShape, constant_value, shape_of, shape_value

# ---------------------------------------------------------------------------
# Shape/dtype rules (unknown is always legal; see ``repro.framework.shapes``).
# ---------------------------------------------------------------------------


def _broadcast_shape_fn(inputs, attrs):
    try:
        return [functools.reduce(shapes.broadcast_shapes, map(shape_of, inputs))]
    except ValueError:
        return [shapes.unknown]


def _same_shape_fn(inputs, attrs):
    return [shape_of(inputs[0])]


def declared_shapes(inputs, attrs):
    """The shape rule of an op whose uses declare their output shapes
    (``Placeholder``, ``Cond``, ``While``).  The attr keeps its name
    from when it overrode inference, so older artifacts still load."""
    return attrs["_shape_override"]


def declared_dtypes(input_dtypes, attrs):
    """The dtype rule of an op whose uses declare their output dtypes."""
    return attrs["_dtype_override"]


def _first_dtype_fn(input_dtypes, attrs):
    # For kernels that only move or select the first input's elements.
    return [input_dtypes[0]]


def _ufunc_out(ufunc):
    """An ``out=``-accepting in-place variant for a NumPy ufunc kernel.

    Safe only for elementwise ufuncs: NumPy guarantees correct results
    when ``out`` aliases an input for these (same-shape, same-dtype use —
    the runtime planner enforces both before donating a buffer).
    ``casting="safe"`` makes NumPy *refuse* (``TypeError``, before
    writing) an ``out`` narrower than the dtype the operands really
    produce — an operand arrived at another dtype than declared — so the
    engine counts it (``runtime.inplace_refusals``) and falls back to
    the allocating kernel instead of rounding silently.
    """
    return functools.partial(ufunc, casting="safe")


def _elementwise(name, fn, arity=None):
    """Register an elementwise op from the one NumPy callable it is.

    Everything the planner and the block layer read is derived here, so
    no flag can drift from the kernel: the output broadcasts the inputs,
    is freshly allocated and has the dtype ``fn`` really returns; a
    ufunc is also the ``fusable`` primitive and its own ``out=`` variant.
    ``arity`` is only for composites that are not a single ufunc.
    """
    ufunc = fn if isinstance(fn, np.ufunc) else None
    register_op(
        name,
        fn,
        shape_fn=_broadcast_shape_fn,
        dtype_fn=dtypes.numpy_dtype_fn(fn),
        inplace_kernel=_ufunc_out(ufunc) if ufunc else None,
        fresh_output=True,
        fusable=ufunc,
        elementwise=ufunc.nin if ufunc else arity,
    )


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

_elementwise("Add", np.add)
_elementwise("Sub", np.subtract)
_elementwise("Mul", np.multiply)
_elementwise("Pow", np.power)
_elementwise("Maximum", np.maximum)
_elementwise("Minimum", np.minimum)
_elementwise("Div", np.true_divide)
_elementwise("FloorDiv", np.floor_divide)
_elementwise("Mod", np.mod)

_elementwise("Neg", np.negative)
_elementwise("Abs", np.absolute)
_elementwise("Exp", np.exp)
_elementwise("Log", np.log)
_elementwise("Tanh", np.tanh)
_elementwise("Sqrt", np.sqrt)
_elementwise("Square", np.square)
_elementwise("Sign", np.sign)
_elementwise("Floor", np.floor)


def _sigmoid(a):
    """Numerically stable logistic; non-float inputs compute in float32.

    ``1 / (1 + e)`` where ``a >= 0`` and ``e / (1 + e)`` elsewhere, with
    ``e = exp(-|a|)`` (never overflows), the quotient written into the
    ``where`` result: one pass per op and no boolean-mask indexing.  A
    0-d input gives a 0-d ndarray.  ``-|a|`` is written
    ``minimum(a, -a)``: negating ``|a|`` would flip a NaN's sign bit.
    Lantern's ``_sigmoid`` is this too.
    """
    a = np.asarray(a)
    if a.dtype.kind != "f":
        a = a.astype(np.float32)
    e = np.exp(np.minimum(a, -a))
    out = np.where(a >= 0, 1, e)
    return np.divide(out, 1 + e, out=out)


def _relu(a):
    return np.maximum(a, np.zeros((), dtype=np.asarray(a).dtype))


_elementwise("Sigmoid", _sigmoid, arity=1)
_elementwise("Relu", _relu, arity=1)

# ---------------------------------------------------------------------------
# Comparison / logical
# ---------------------------------------------------------------------------

_elementwise("Greater", np.greater)
_elementwise("GreaterEqual", np.greater_equal)
_elementwise("Less", np.less)
_elementwise("LessEqual", np.less_equal)
_elementwise("Equal", np.equal)
_elementwise("NotEqual", np.not_equal)
_elementwise("LogicalAnd", np.logical_and)
_elementwise("LogicalOr", np.logical_or)
_elementwise("LogicalNot", np.logical_not)

# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------


def _matmul_kernel(a, b, transpose_a=False, transpose_b=False, out=None):
    # With ``out`` BLAS writes directly into it (refusing an unsafe cast);
    # unlike the elementwise ufunc variants this is only correct when
    # ``out`` does not alias either operand, which the planner keeps: a
    # kernel that is not elementwise only gets a buffer dead before its
    # step runs.
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or b.ndim < 2:
        raise InvalidArgumentError(
            f"MatMul requires rank >= 2 operands, got {a.ndim} and {b.ndim}"
        )
    if transpose_a:
        a = np.swapaxes(a, -1, -2)
    if transpose_b:
        b = np.swapaxes(b, -1, -2)
    return np.matmul(a, b, out=out, casting="safe")


def _matmul_shape_fn(inputs, attrs):
    sa, sb = map(shape_of, inputs)
    if sa.dims is None or sb.dims is None or sa.rank != 2 or sb.rank != 2:
        return [shapes.unknown]
    m = sa[1] if attrs.get("transpose_a") else sa[0]
    n = sb[0] if attrs.get("transpose_b") else sb[1]
    return [TensorShape([m, n])]


register_op("MatMul", _matmul_kernel, shape_fn=_matmul_shape_fn,
            dtype_fn=dtypes.numpy_dtype_fn(_matmul_kernel),
            inplace_kernel=_matmul_kernel, fresh_output=True)


def _tensordot_shape_fn(inputs, attrs):
    """The operands' dimensions that ``axes`` does not contract, ``a``'s
    then ``b``'s."""
    sa, sb = map(shape_of, inputs)
    if sa.rank is None or sb.rank is None:
        return [shapes.unknown]
    axes = attrs.get("axes", 2)
    if np.ndim(axes) == 0:
        axes = int(axes)
        axes = (range(sa.rank - axes, sa.rank), range(axes))
    contracted = [{int(a) % s.rank for a in np.ravel(ax)}
                  for s, ax in zip((sa, sb), axes)]
    return [TensorShape([d for s, drop in zip((sa, sb), contracted)
                         for i, d in enumerate(s.dims) if i not in drop])]


# (``ops.tensordot`` always passes ``axes``; its default is 1, NumPy's 2.)
register_op("Tensordot", np.tensordot, shape_fn=_tensordot_shape_fn,
            dtype_fn=dtypes.numpy_dtype_fn(np.tensordot), fresh_output=True)

# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def _norm_axis(axis):
    if axis is None:
        return None
    if isinstance(axis, (list, tuple)):
        return tuple(int(a) for a in axis)
    return int(axis)


def _reduce_shape_fn(inputs, attrs):
    s = shape_of(inputs[0])
    axis = _norm_axis(attrs.get("axis"))
    keepdims = bool(attrs.get("keepdims", False))
    if s.dims is None:
        return [shapes.unknown]
    rank = s.rank
    if rank == 0:  # NumPy lets a 0-d axis be 0 or -1: nothing is reduced
        return [s]
    if axis is None:
        axes = tuple(range(rank))
    elif isinstance(axis, int):
        axes = (axis % rank,)
    else:
        axes = tuple(a % rank for a in axis)
    dims = []
    for i, d in enumerate(s.dims):
        if i in axes:
            if keepdims:
                dims.append(1)
        else:
            dims.append(d)
    return [TensorShape(dims)]


def _make_reduce(name, np_fn):
    def kernel(a, axis=None, keepdims=False):
        return np_fn(np.asarray(a), axis=_norm_axis(axis), keepdims=keepdims)

    register_op(name, kernel, shape_fn=_reduce_shape_fn,
                dtype_fn=dtypes.numpy_dtype_fn(np_fn), fresh_output=True)


_make_reduce("Sum", np.sum)
_make_reduce("Prod", np.prod)
_make_reduce("Max", np.max)
_make_reduce("Min", np.min)
_make_reduce("Mean", np.mean)  # a float mean keeps its dtype
_make_reduce("All", np.all)
_make_reduce("Any", np.any)


def _argmax_kernel(a, axis=0):
    return np.argmax(a, axis=int(axis)).astype(np.int64)


def _arg_shape_fn(inputs, attrs):
    """The operand's dimensions less ``axis`` (a 0-d operand's is 0-d)."""
    dims = shape_of(inputs[0]).dims
    if not dims:
        return [TensorShape(dims)]
    axis = int(attrs.get("axis", 0)) % len(dims)
    return [TensorShape(dims[:axis] + dims[axis + 1:])]


register_op("ArgMax", _argmax_kernel, fresh_output=True, shape_fn=_arg_shape_fn,
            dtype_fn=lambda dts, attrs: [dtypes.int64])


def _argmin_kernel(a, axis=0):
    return np.argmin(a, axis=int(axis)).astype(np.int64)


register_op("ArgMin", _argmin_kernel, fresh_output=True, shape_fn=_arg_shape_fn,
            dtype_fn=lambda dts, attrs: [dtypes.int64])


def _topk_kernel(a, k):
    a = np.asarray(a)
    k = int(k)
    if k > a.shape[-1]:
        raise InvalidArgumentError(f"k={k} larger than last dim {a.shape[-1]}")
    idx = np.argpartition(-a, k - 1, axis=-1)[..., :k]
    part = np.take_along_axis(a, idx, axis=-1)
    order = np.argsort(-part, axis=-1)
    idx = np.take_along_axis(idx, order, axis=-1)
    values = np.take_along_axis(a, idx, axis=-1)
    return values, idx.astype(np.int64)


def _topk_shape_fn(inputs, attrs):
    """The operand's shape with its last dimension ``k``, for both the
    values and the indices."""
    dims = shape_of(inputs[0]).dims
    if not dims:
        return [shapes.unknown] * 2
    k = constant_value(inputs[1])
    out = TensorShape(dims[:-1] + (None if k is None else int(k),))
    return [out, out]


register_op(
    "TopK",
    _topk_kernel,
    num_outputs=2,
    shape_fn=_topk_shape_fn,
    dtype_fn=lambda dts, attrs: [dts[0], dtypes.int64],
    fresh_output=True,
)

# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------


def _shape_kernel(a):
    return np.asarray(np.shape(a), dtype=np.int32)


register_op(
    "Shape",
    _shape_kernel,
    shape_fn=lambda ins, attrs: [TensorShape(
        None if shape_of(ins[0]).rank is None else [shape_of(ins[0]).rank])],
    dtype_fn=lambda dts, attrs: [dtypes.int32],
    fresh_output=True,
)
register_op("Size", lambda a: np.asarray(np.size(a), dtype=np.int32),
            dtype_fn=lambda dts, attrs: [dtypes.int32],
            shape_fn=lambda ins, attrs: [TensorShape([])],
            fresh_output=True)
register_op("Rank", lambda a: np.asarray(np.ndim(a), dtype=np.int32),
            dtype_fn=lambda dts, attrs: [dtypes.int32],
            shape_fn=lambda ins, attrs: [TensorShape([])],
            fresh_output=True)


def _reshape_kernel(a, new_shape):
    return np.reshape(np.asarray(a), tuple(int(d) for d in np.asarray(new_shape).ravel()))


def _reshape_shape_fn(inputs, attrs):
    """The target's dimensions, a ``-1`` solved where the operand's size
    and every other dimension are known."""
    dims = shape_value(inputs[1])
    if dims is None or -1 not in dims:
        return [TensorShape(dims)]
    at = dims.index(-1)
    rest = dims[:at] + dims[at + 1:]
    size = shape_of(inputs[0]).num_elements()
    known = None not in rest and size is not None and math.prod(rest)
    solved = size // known if known and not size % known else None
    return [TensorShape(dims[:at] + (solved,) + dims[at + 1:])]


register_op("Reshape", _reshape_kernel, dtype_fn=_first_dtype_fn,
            shape_fn=_reshape_shape_fn)


def _expand_dims_kernel(a, axis=0):
    return np.expand_dims(np.asarray(a), int(axis))


def _expand_dims_shape_fn(inputs, attrs):
    dims = shape_of(inputs[0]).dims
    if dims is None:
        return [shapes.unknown]
    axis = int(attrs.get("axis", 0))
    axis += len(dims) + 1 if axis < 0 else 0
    if not 0 <= axis <= len(dims):
        return [shapes.unknown]
    return [TensorShape(dims[:axis] + (1,) + dims[axis:])]


register_op("ExpandDims", _expand_dims_kernel, dtype_fn=_first_dtype_fn,
            shape_fn=_expand_dims_shape_fn)


def _squeeze_kernel(a, axis=None):
    return np.squeeze(np.asarray(a), axis=None if axis is None else int(axis))


def _squeeze_shape_fn(inputs, attrs):
    """The operand's dimensions less the squeezed one (with no ``axis``,
    every 1, which needs every dimension known)."""
    dims, axis = shape_of(inputs[0]).dims, attrs.get("axis")
    if dims is None or axis is None and None in dims:
        return [shapes.unknown]
    if axis is None:
        return [TensorShape([d for d in dims if d != 1])]
    axis = int(axis)
    axis += len(dims) if axis < 0 else 0
    if not 0 <= axis < len(dims) or dims[axis] not in (1, None):
        return [shapes.unknown]
    return [TensorShape(dims[:axis] + dims[axis + 1:])]


register_op("Squeeze", _squeeze_kernel, dtype_fn=_first_dtype_fn,
            shape_fn=_squeeze_shape_fn)


def _transpose_kernel(a, perm=None):
    return np.transpose(np.asarray(a), None if perm is None else tuple(int(p) for p in perm))


def _transpose_shape_fn(inputs, attrs):
    s = shape_of(inputs[0])
    perm = attrs.get("perm")
    if s.dims is None:
        return [shapes.unknown]
    if perm is None:
        return [TensorShape(tuple(reversed(s.dims)))]
    return [TensorShape(tuple(s.dims[int(p)] for p in perm))]


register_op("Transpose", _transpose_kernel, shape_fn=_transpose_shape_fn, dtype_fn=_first_dtype_fn)


def _concat_kernel(*args, axis=0):
    return np.concatenate(args, axis=int(axis))


def _concat_shape_fn(inputs, attrs):
    ss = [shape_of(x) for x in inputs]
    axis = int(attrs.get("axis", 0))
    dims = list(ss[0].as_tuple())
    along = [s.as_tuple()[axis] for s in ss]
    dims[axis] = None if None in along else sum(along)
    return [TensorShape(dims)]


register_op("Concat", _concat_kernel, shape_fn=_concat_shape_fn,
            dtype_fn=dtypes.numpy_dtype_fn(_concat_kernel), fresh_output=True)


def _pack_kernel(*args, axis=0):
    return np.stack([np.asarray(a) for a in args], axis=int(axis))


def _pack_shape_fn(inputs, attrs):
    """What every operand's shape agrees on, with the operand count
    inserted at ``axis``."""
    ss = [shape_of(x) for x in inputs]
    if not ss:
        return [shapes.unknown]
    try:
        merged = functools.reduce(shapes.TensorShape.merge_with, ss)
    except ValueError:
        return [shapes.unknown]
    if merged.dims is None:
        return [shapes.unknown]
    axis = int(attrs.get("axis", 0))
    axis += merged.rank + 1 if axis < 0 else 0
    if not 0 <= axis <= merged.rank:
        return [shapes.unknown]
    dims = merged.dims
    return [TensorShape(dims[:axis] + (len(ss),) + dims[axis:])]


register_op("Pack", _pack_kernel, dtype_fn=dtypes.numpy_dtype_fn(_pack_kernel),
            shape_fn=_pack_shape_fn, fresh_output=True)


def _tile_kernel(a, multiples):
    return np.tile(np.asarray(a), tuple(int(m) for m in np.asarray(multiples).ravel()))


def _tile_shape_fn(inputs, attrs):
    """Each dimension times its multiple, the shorter of the two padded
    with leading 1s (``np.tile``'s rule)."""
    dims, reps = shape_of(inputs[0]).dims, shape_value(inputs[1])
    if dims is None or reps is None:
        return [shapes.unknown]
    n = max(len(dims), len(reps))
    dims = (1,) * (n - len(dims)) + dims
    reps = (1,) * (n - len(reps)) + reps
    return [TensorShape([None if d is None or r is None else d * r
                         for d, r in zip(dims, reps)])]


register_op("Tile", _tile_kernel, dtype_fn=_first_dtype_fn, fresh_output=True,
            shape_fn=_tile_shape_fn)


def _gather_kernel(params, indices, axis=0):
    return np.take(np.asarray(params), np.asarray(indices), axis=int(axis))


def _gather_shape_fn(inputs, attrs):
    """``params``' dimensions with the one at ``axis`` replaced by the
    indices' shape."""
    params, indices = map(shape_of, inputs)
    if params.rank is None or indices.rank is None:
        return [shapes.unknown]
    axis = int(attrs.get("axis", 0)) % params.rank
    return [params[:axis].concatenate(indices).concatenate(params[axis + 1:])]


register_op("Gather", _gather_kernel, dtype_fn=_first_dtype_fn, fresh_output=True,
            shape_fn=_gather_shape_fn)


def _boolean_mask_kernel(a, mask):
    return np.asarray(a)[np.asarray(mask, dtype=bool)]


def _boolean_mask_shape_fn(inputs, attrs):
    """One unknown dimension (the count of true entries, a value) for
    the mask's, then the operand's dimensions past them."""
    a, mask = map(shape_of, inputs)
    if a.rank is None or mask.rank is None:
        return [shapes.unknown]
    return [TensorShape((None,) + a.dims[mask.rank:])]


register_op("BooleanMask", _boolean_mask_kernel, dtype_fn=_first_dtype_fn,
            fresh_output=True, shape_fn=_boolean_mask_shape_fn)

# -- General item access: x[spec], with tensor-valued indices spliced in. ----
#
# ``spec`` is a tuple of entries; each entry is one of
#   ("idx", python_int) | ("slice", start, stop, step) | ("tensor",) |
#   ("ellipsis",) | ("newaxis",)
# Tensor-valued indices are passed as additional inputs, consumed in order.


def _materialize_spec(spec, extra):
    extra = list(extra)
    out = []
    for entry in spec:
        kind = entry[0]
        if kind == "idx":
            out.append(entry[1])
        elif kind == "slice":
            out.append(slice(entry[1], entry[2], entry[3]))
        elif kind == "tensor":
            value = np.asarray(extra.pop(0))
            if value.ndim == 0:
                value = int(value)
            out.append(value)
        elif kind == "dslice":
            parts = []
            for part in entry[1:]:
                if part == "T":
                    p = np.asarray(extra.pop(0))
                    parts.append(int(p))
                else:
                    parts.append(part)
            out.append(slice(parts[0], parts[1], parts[2]))
        elif kind == "ellipsis":
            out.append(Ellipsis)
        elif kind == "newaxis":
            out.append(None)
        else:  # pragma: no cover - defensive
            raise InvalidArgumentError(f"Bad index spec entry: {entry!r}")
    if len(out) == 1:
        return out[0]
    return tuple(out)


_ONE_TENSOR = (("tensor",),)


def _getitem_kernel(a, *index_inputs, spec=()):
    if spec == _ONE_TENSOR:
        # ``x[i]`` at a scalar tensor ``i`` (a loop turn's input row):
        # the index ``_materialize_spec`` would build, directly.
        i = np.asarray(index_inputs[0])
        if i.ndim == 0:
            return np.asarray(a)[int(i)]
    return np.asarray(a)[_materialize_spec(spec, index_inputs)]


def _getitem_shape_fn(inputs, attrs):
    """NumPy's own answer, indexing a zero-stride stand-in of the static
    shape with 0 for each scalar tensor index; an index array, a dynamic
    slice bound or an unknown rank leaves the result unknown.

    An unknown dimension is tried at every size up to twice a size past
    all constant bounds and steps: beyond that, how many entries a slice
    keeps is constant or grows with the size.  A result dimension that
    differs between the trials depends on it and stays unknown (a trial
    that raises is a size the index rules out)."""
    spec = attrs["spec"]
    ss = [shape_of(x) for x in inputs]
    if (ss[0].rank is None or any(s.rank != 0 for s in ss[1:])
            or any("T" in e for e in spec)):
        return [shapes.unknown]
    index = _materialize_spec(spec, [0] * (len(ss) - 1))
    bounds = [abs(b) for e in spec for b in e[1:] if isinstance(b, int)]
    past = 2 + 2 * max(bounds, default=0)
    if past > 64 and not ss[0].is_fully_defined:
        return [shapes.unknown]
    dims = [past if d is None else d for d in ss[0].dims]

    def result(sizes):
        return np.broadcast_to(np.int8(0), sizes)[index].shape

    out = list(result(dims))
    for axis, d in enumerate(ss[0].dims):
        for n in range(2 * past) if d is None else ():
            try:
                trial = result(dims[:axis] + [n] + dims[axis + 1:])
            except IndexError:
                continue
            out = [a if a == b else None for a, b in zip(out, trial)]
    return [TensorShape(out)]


register_op("GetItem", _getitem_kernel, shape_fn=_getitem_shape_fn,
            dtype_fn=_first_dtype_fn)


def _setitem_kernel(a, value, *index_inputs, spec=()):
    out = np.array(a, copy=True)
    out[_materialize_spec(spec, index_inputs)] = value
    return out


register_op("SetItem", _setitem_kernel, dtype_fn=_first_dtype_fn, shape_fn=_same_shape_fn,
            fresh_output=True)

# ---------------------------------------------------------------------------
# Creation / casting
# ---------------------------------------------------------------------------


def _const_kernel(value=None):
    return value


register_op(
    "Const",
    _const_kernel,
    shape_fn=lambda ins, attrs: [TensorShape(np.shape(attrs.get("value")))],
    dtype_fn=lambda dts, attrs: [dtypes.from_numpy(np.asarray(attrs.get("value")).dtype)],
)


def _placeholder_kernel(**attrs):  # pragma: no cover - never executed
    raise ExecutionError("Placeholder value was not fed")


register_op("Placeholder", _placeholder_kernel, shape_fn=declared_shapes,
            dtype_fn=declared_dtypes)


def _fill_kernel(dims, value):
    return np.full(tuple(int(d) for d in np.asarray(dims).ravel()), value)


def _dims_shape_fn(inputs, attrs):
    """The dimensions the first operand spells (``fill``'s and the
    random ops' ``shape``)."""
    return [TensorShape(shape_value(inputs[0]))]


register_op("Fill", _fill_kernel, dtype_fn=lambda dts, attrs: [dts[1]],
            shape_fn=_dims_shape_fn, fresh_output=True)


def _zeros_like_kernel(a):
    return np.zeros_like(np.asarray(a))


register_op("ZerosLike", _zeros_like_kernel, shape_fn=_same_shape_fn, dtype_fn=_first_dtype_fn,
            fresh_output=True)
register_op("OnesLike", lambda a: np.ones_like(np.asarray(a)), shape_fn=_same_shape_fn,
            dtype_fn=_first_dtype_fn, fresh_output=True)


def _range_kernel(start, limit, delta):
    out = np.arange(np.asarray(start).item(), np.asarray(limit).item(), np.asarray(delta).item())
    if out.dtype.kind == "i":
        out = out.astype(np.int32)
    return out


def _range_dtype_fn(input_dtypes, attrs):
    # np.arange sees Python scalars: any float makes the result float64.
    if any(dt.np_dtype is None for dt in input_dtypes):
        return [dtypes.variant]
    floating = any(dt.is_floating for dt in input_dtypes)
    return [dtypes.float64 if floating else dtypes.int32]


def _range_shape_fn(inputs, attrs):
    """``np.arange``'s length where all three bounds are known."""
    bounds = [constant_value(x) for x in inputs]
    if any(b is None for b in bounds):
        return [TensorShape([None])]
    start, limit, delta = (np.asarray(b).item() for b in bounds)
    if all(isinstance(b, int) for b in (start, limit, delta)):
        return [TensorShape([len(range(start, limit, delta))])]
    n = (limit - start) / delta
    if n == 0 and limit != start:  # NumPy's underflow case
        return [TensorShape([0 if math.copysign(1, n) < 0 else 1])]
    return [TensorShape([max(0, math.ceil(n))])]


register_op("Range", _range_kernel, dtype_fn=_range_dtype_fn,
            shape_fn=_range_shape_fn, fresh_output=True)


def _one_hot_kernel(indices, depth, on_value=1.0, off_value=0.0, dtype="float32"):
    indices = np.asarray(indices)
    depth = int(np.asarray(depth))
    np_dt = dtypes.as_dtype(dtype).np_dtype
    out = np.full(indices.shape + (depth,), off_value, dtype=np_dt)
    valid = (indices >= 0) & (indices < depth)
    flat = out.reshape(-1, depth)
    flat_idx = indices.reshape(-1)
    rows = np.nonzero(valid.reshape(-1))[0]
    flat[rows, flat_idx[rows]] = on_value
    return out


def _one_hot_shape_fn(inputs, attrs):
    """The indices' shape and then ``depth``."""
    depth = constant_value(inputs[1])
    return [shape_of(inputs[0]).concatenate(
        [None if depth is None else int(depth)])]


register_op("OneHot", _one_hot_kernel, fresh_output=True, shape_fn=_one_hot_shape_fn,
            dtype_fn=lambda dts, attrs: [dtypes.as_dtype(attrs.get("dtype", "float32"))])


def _cast_kernel(a, dtype="float32"):
    return np.asarray(a).astype(dtypes.as_dtype(dtype).np_dtype)


register_op("Cast", _cast_kernel, shape_fn=_same_shape_fn, fresh_output=True,
            dtype_fn=lambda dts, attrs: [dtypes.as_dtype(attrs.get("dtype", "float32"))])

register_op("Identity", lambda a: a, shape_fn=_same_shape_fn, dtype_fn=_first_dtype_fn)


def _select_kernel(cond, x, y):
    cond = np.asarray(cond)
    x = np.asarray(x)
    y = np.asarray(y)
    # Legacy tf.where semantics: a rank-1 condition over rank-N operands
    # selects along the leading (batch) dimension.
    if cond.ndim > 0 and cond.ndim < x.ndim:
        cond = cond.reshape(cond.shape + (1,) * (x.ndim - cond.ndim))
    return np.where(cond, x, y)


def _select_shape_fn(inputs, attrs):
    cond, x, y = map(shape_of, inputs)
    if cond.rank and x.rank is not None and cond.rank < x.rank:
        cond = cond.concatenate([1] * (x.rank - cond.rank))
    try:
        return [shapes.broadcast_shapes(shapes.broadcast_shapes(cond, x), y)]
    except ValueError:
        return [shapes.unknown]


register_op("Select", _select_kernel,
            dtype_fn=dtypes.numpy_dtype_fn(_select_kernel),
            shape_fn=_select_shape_fn, fresh_output=True)

# ---------------------------------------------------------------------------
# Neural network ops
# ---------------------------------------------------------------------------


def _softmax_kernel(a, axis=-1):
    a = np.asarray(a)
    shifted = a - np.max(a, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


register_op("Softmax", _softmax_kernel, shape_fn=_same_shape_fn,
            dtype_fn=dtypes.numpy_dtype_fn(_softmax_kernel), fresh_output=True)


def _log_softmax_kernel(a, axis=-1):
    a = np.asarray(a)
    shifted = a - np.max(a, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


register_op("LogSoftmax", _log_softmax_kernel, shape_fn=_same_shape_fn,
            dtype_fn=dtypes.numpy_dtype_fn(_log_softmax_kernel), fresh_output=True)


def _softmax_xent_kernel(labels, logits):
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    log_probs = _log_softmax_kernel(logits, axis=-1)
    return -np.sum(labels * log_probs, axis=-1)


register_op(
    "SoftmaxCrossEntropyWithLogits",
    _softmax_xent_kernel,
    dtype_fn=dtypes.numpy_dtype_fn(_softmax_xent_kernel),
    shape_fn=lambda ins, attrs: [TensorShape(
        None if shape_of(ins[1]).rank is None else shape_of(ins[1]).dims[:-1])],
    fresh_output=True,
)


def _sparse_softmax_xent_kernel(labels, logits):
    logits = np.asarray(logits)
    labels = np.asarray(labels).astype(np.int64)
    log_probs = _log_softmax_kernel(logits, axis=-1)
    rows = np.arange(labels.shape[0])
    return -log_probs[rows, labels]


def _sparse_softmax_xent_shape_fn(inputs, attrs):
    """One loss per label, for rank-1 labels over rank-2 logits."""
    labels, logits = map(shape_of, inputs)
    if labels.rank != 1 or logits.rank != 2:
        return [shapes.unknown]
    return [labels]


register_op("SparseSoftmaxCrossEntropyWithLogits", _sparse_softmax_xent_kernel,
            dtype_fn=dtypes.numpy_dtype_fn(_sparse_softmax_xent_kernel),
            shape_fn=_sparse_softmax_xent_shape_fn, fresh_output=True)

# ---------------------------------------------------------------------------
# Random ops (stateful; deterministic under repro.framework.random.set_seed)
# ---------------------------------------------------------------------------

_GLOBAL_RNG = np.random.default_rng(0)


def set_global_seed(seed):
    """Reset the stateful-kernel RNG (used by random ops in both modes)."""
    global _GLOBAL_RNG
    _GLOBAL_RNG = np.random.default_rng(seed)


def get_global_rng():
    return _GLOBAL_RNG


def _random_normal_kernel(shape, mean=0.0, stddev=1.0, dtype="float32"):
    dims = tuple(int(d) for d in np.asarray(shape).ravel())
    out = _GLOBAL_RNG.normal(mean, stddev, size=dims)
    return out.astype(dtypes.as_dtype(dtype).np_dtype)


register_op("RandomNormal", _random_normal_kernel, stateful=True, fresh_output=True,
            shape_fn=_dims_shape_fn,
            dtype_fn=lambda dts, attrs: [dtypes.as_dtype(attrs.get("dtype", "float32"))])


def _random_uniform_kernel(shape, minval=0.0, maxval=1.0, dtype="float32"):
    dims = tuple(int(d) for d in np.asarray(shape).ravel())
    dt = dtypes.as_dtype(dtype)
    if dt.is_integer:
        out = _GLOBAL_RNG.integers(int(minval), int(maxval), size=dims)
    else:
        out = _GLOBAL_RNG.uniform(minval, maxval, size=dims)
    return out.astype(dt.np_dtype)


register_op("RandomUniform", _random_uniform_kernel, stateful=True, fresh_output=True,
            shape_fn=_dims_shape_fn,
            dtype_fn=lambda dts, attrs: [dtypes.as_dtype(attrs.get("dtype", "float32"))])

# ---------------------------------------------------------------------------
# Side effects
# ---------------------------------------------------------------------------


def _format_print_value(v):
    if isinstance(v, np.ndarray):
        return np.array2string(v, threshold=16, edgeitems=3)
    return str(v)


def _print_kernel(*args, sep=" ", end="\n", stream=None):
    text = sep.join(_format_print_value(a) for a in args) + end
    (stream or sys.stdout).write(text)
    return np.asarray(0, dtype=np.int32)


register_op("PrintV2", _print_kernel, stateful=True, fresh_output=True,
            dtype_fn=lambda dts, attrs: [dtypes.int32],
            shape_fn=lambda ins, attrs: [TensorShape([])])


def _assert_kernel(cond, *data, message="Assertion failed"):
    if not bool(np.all(cond)):
        detail = ", ".join(_format_print_value(np.asarray(d)) for d in data)
        raise ExecutionError(f"{message}" + (f" [{detail}]" if detail else ""))
    return np.asarray(True)


register_op("Assert", _assert_kernel, stateful=True, fresh_output=True,
            dtype_fn=lambda dts, attrs: [dtypes.bool_])


def _no_op_kernel(*args):
    return np.asarray(0, dtype=np.int32)


register_op("Group", _no_op_kernel, stateful=True, fresh_output=True,
            dtype_fn=lambda dts, attrs: [dtypes.int32])
