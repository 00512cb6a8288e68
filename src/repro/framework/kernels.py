"""NumPy kernels for every primitive op, plus their registrations.

The kernels operate on plain NumPy arrays (or opaque runtime objects for
variant-typed values such as TensorArray state).  They are shared verbatim
by the eager executor and the graph session's compiled plans, so the two
modes are numerically identical by construction — the *only* difference
between modes is where the per-op Python dispatch overhead is paid.
"""

from __future__ import annotations

import functools
import sys

import numpy as np

from . import dtypes, shapes
from .errors import ExecutionError, InvalidArgumentError
from .registry import register_op

# ---------------------------------------------------------------------------
# Shape/dtype inference helpers (best-effort; unknown is always legal).
# ---------------------------------------------------------------------------


def _broadcast_shape_fn(input_shapes, attrs):
    try:
        return [functools.reduce(shapes.broadcast_shapes, input_shapes)]
    except ValueError:
        return [shapes.unknown]


def _same_shape_fn(input_shapes, attrs):
    return [input_shapes[0]]


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
    # Numerically stable logistic; non-float inputs compute in float32.
    a = np.asarray(a)
    if a.dtype.kind != "f":
        a = a.astype(np.float32)
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ea = np.exp(a[~pos])
    out[~pos] = ea / (1.0 + ea)
    return out


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
    # ``out`` does not alias either operand — hence inplace_no_alias
    # below: the planner donates only buffers that are fully dead before
    # this step runs.
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


def _matmul_shape_fn(input_shapes, attrs):
    sa, sb = input_shapes
    if sa.dims is None or sb.dims is None or sa.rank != 2 or sb.rank != 2:
        return [shapes.unknown]
    m = sa[1] if attrs.get("transpose_a") else sa[0]
    n = sb[0] if attrs.get("transpose_b") else sb[1]
    return [shapes.TensorShape([m, n])]


register_op("MatMul", _matmul_kernel, shape_fn=_matmul_shape_fn,
            dtype_fn=dtypes.numpy_dtype_fn(_matmul_kernel),
            inplace_kernel=_matmul_kernel, inplace_no_alias=True,
            fresh_output=True)

# (``ops.tensordot`` always passes ``axes``; its default is 1, NumPy's 2.)
register_op("Tensordot", np.tensordot,
            dtype_fn=dtypes.numpy_dtype_fn(np.tensordot))

# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def _norm_axis(axis):
    if axis is None:
        return None
    if isinstance(axis, (list, tuple)):
        return tuple(int(a) for a in axis)
    return int(axis)


def _reduce_shape_fn(input_shapes, attrs):
    s = input_shapes[0]
    axis = _norm_axis(attrs.get("axis"))
    keepdims = bool(attrs.get("keepdims", False))
    if s.dims is None:
        return [shapes.unknown]
    rank = s.rank
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
    return [shapes.TensorShape(dims)]


def _make_reduce(name, np_fn):
    def kernel(a, axis=None, keepdims=False):
        return np_fn(np.asarray(a), axis=_norm_axis(axis), keepdims=keepdims)

    register_op(name, kernel, shape_fn=_reduce_shape_fn,
                dtype_fn=dtypes.numpy_dtype_fn(np_fn))


_make_reduce("Sum", np.sum)
_make_reduce("Prod", np.prod)
_make_reduce("Max", np.max)
_make_reduce("Min", np.min)
_make_reduce("Mean", np.mean)  # a float mean keeps its dtype
_make_reduce("All", np.all)
_make_reduce("Any", np.any)


def _argmax_kernel(a, axis=0):
    return np.argmax(a, axis=int(axis)).astype(np.int64)


register_op("ArgMax", _argmax_kernel, dtype_fn=lambda dts, attrs: [dtypes.int64])


def _argmin_kernel(a, axis=0):
    return np.argmin(a, axis=int(axis)).astype(np.int64)


register_op("ArgMin", _argmin_kernel, dtype_fn=lambda dts, attrs: [dtypes.int64])


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


register_op(
    "TopK",
    _topk_kernel,
    num_outputs=2,
    dtype_fn=lambda dts, attrs: [dts[0], dtypes.int64],
)

# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------


def _shape_kernel(a):
    return np.asarray(np.shape(a), dtype=np.int32)


register_op(
    "Shape",
    _shape_kernel,
    shape_fn=lambda ss, attrs: [
        shapes.TensorShape([ss[0].rank]) if ss[0].dims is not None else shapes.unknown
    ],
    dtype_fn=lambda dts, attrs: [dtypes.int32],
)
register_op("Size", lambda a: np.asarray(np.size(a), dtype=np.int32),
            dtype_fn=lambda dts, attrs: [dtypes.int32],
            shape_fn=lambda ss, attrs: [shapes.TensorShape([])])
register_op("Rank", lambda a: np.asarray(np.ndim(a), dtype=np.int32),
            dtype_fn=lambda dts, attrs: [dtypes.int32],
            shape_fn=lambda ss, attrs: [shapes.TensorShape([])])


def _reshape_kernel(a, new_shape):
    return np.reshape(np.asarray(a), tuple(int(d) for d in np.asarray(new_shape).ravel()))


register_op("Reshape", _reshape_kernel, dtype_fn=_first_dtype_fn)


def _expand_dims_kernel(a, axis=0):
    return np.expand_dims(np.asarray(a), int(axis))


register_op("ExpandDims", _expand_dims_kernel, dtype_fn=_first_dtype_fn)


def _squeeze_kernel(a, axis=None):
    return np.squeeze(np.asarray(a), axis=None if axis is None else int(axis))


register_op("Squeeze", _squeeze_kernel, dtype_fn=_first_dtype_fn)


def _transpose_kernel(a, perm=None):
    return np.transpose(np.asarray(a), None if perm is None else tuple(int(p) for p in perm))


def _transpose_shape_fn(input_shapes, attrs):
    s = input_shapes[0]
    perm = attrs.get("perm")
    if s.dims is None:
        return [shapes.unknown]
    if perm is None:
        return [shapes.TensorShape(tuple(reversed(s.dims)))]
    return [shapes.TensorShape(tuple(s.dims[int(p)] for p in perm))]


register_op("Transpose", _transpose_kernel, shape_fn=_transpose_shape_fn, dtype_fn=_first_dtype_fn)


def _concat_kernel(*args, axis=0):
    return np.concatenate([np.asarray(a) for a in args], axis=int(axis))


def _concat_shape_fn(ss, attrs):
    axis = int(attrs.get("axis", 0))
    dims = list(ss[0].as_tuple())
    along = [s.as_tuple()[axis] for s in ss]
    dims[axis] = None if None in along else sum(along)
    return [shapes.TensorShape(dims)]


register_op("Concat", _concat_kernel, shape_fn=_concat_shape_fn,
            dtype_fn=dtypes.numpy_dtype_fn(_concat_kernel))


def _pack_kernel(*args, axis=0):
    return np.stack([np.asarray(a) for a in args], axis=int(axis))


register_op("Pack", _pack_kernel, dtype_fn=dtypes.numpy_dtype_fn(_pack_kernel))


def _tile_kernel(a, multiples):
    return np.tile(np.asarray(a), tuple(int(m) for m in np.asarray(multiples).ravel()))


register_op("Tile", _tile_kernel, dtype_fn=_first_dtype_fn)


def _gather_kernel(params, indices, axis=0):
    return np.take(np.asarray(params), np.asarray(indices), axis=int(axis))


register_op("Gather", _gather_kernel, dtype_fn=_first_dtype_fn)


def _boolean_mask_kernel(a, mask):
    return np.asarray(a)[np.asarray(mask, dtype=bool)]


register_op("BooleanMask", _boolean_mask_kernel, dtype_fn=_first_dtype_fn)

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


def _getitem_kernel(a, *index_inputs, spec=()):
    return np.asarray(a)[_materialize_spec(spec, index_inputs)]


def _getitem_shape_fn(ss, attrs):
    """NumPy's own answer, indexing a zero-stride stand-in of the static
    shape with 0 for each scalar tensor index; an index array, a dynamic
    slice bound or a partial shape leaves the result unknown."""
    spec = attrs["spec"]
    if any(s.rank != 0 for s in ss[1:]) or any("T" in e for e in spec):
        return [shapes.unknown]
    stand_in = np.broadcast_to(np.int8(0), ss[0].as_tuple())
    return [shapes.TensorShape(
        stand_in[_materialize_spec(spec, [0] * (len(ss) - 1))].shape)]


register_op("GetItem", _getitem_kernel, shape_fn=_getitem_shape_fn,
            dtype_fn=_first_dtype_fn)


def _setitem_kernel(a, value, *index_inputs, spec=()):
    out = np.array(a, copy=True)
    out[_materialize_spec(spec, index_inputs)] = value
    return out


register_op("SetItem", _setitem_kernel, dtype_fn=_first_dtype_fn, shape_fn=_same_shape_fn)

# ---------------------------------------------------------------------------
# Creation / casting
# ---------------------------------------------------------------------------


def _const_kernel(value=None):
    return value


register_op(
    "Const",
    _const_kernel,
    shape_fn=lambda ss, attrs: [shapes.TensorShape(np.shape(attrs.get("value")))],
    dtype_fn=lambda dts, attrs: [dtypes.from_numpy(np.asarray(attrs.get("value")).dtype)],
)


def _placeholder_kernel(**attrs):  # pragma: no cover - never executed
    raise ExecutionError("Placeholder value was not fed")


register_op("Placeholder", _placeholder_kernel)


def _fill_kernel(dims, value):
    return np.full(tuple(int(d) for d in np.asarray(dims).ravel()), value)


register_op("Fill", _fill_kernel, dtype_fn=lambda dts, attrs: [dts[1]])


def _zeros_like_kernel(a):
    return np.zeros_like(np.asarray(a))


register_op("ZerosLike", _zeros_like_kernel, shape_fn=_same_shape_fn, dtype_fn=_first_dtype_fn)
register_op("OnesLike", lambda a: np.ones_like(np.asarray(a)), shape_fn=_same_shape_fn, dtype_fn=_first_dtype_fn)


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


register_op("Range", _range_kernel, dtype_fn=_range_dtype_fn)


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


register_op("OneHot", _one_hot_kernel,
            dtype_fn=lambda dts, attrs: [dtypes.as_dtype(attrs.get("dtype", "float32"))])


def _cast_kernel(a, dtype="float32"):
    return np.asarray(a).astype(dtypes.as_dtype(dtype).np_dtype)


register_op("Cast", _cast_kernel, shape_fn=_same_shape_fn,
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


def _select_shape_fn(input_shapes, attrs):
    cond, x, y = input_shapes
    if cond.rank and x.rank is not None and cond.rank < x.rank:
        cond = cond.concatenate([1] * (x.rank - cond.rank))
    try:
        return [shapes.broadcast_shapes(shapes.broadcast_shapes(cond, x), y)]
    except ValueError:
        return [shapes.unknown]


register_op("Select", _select_kernel,
            dtype_fn=dtypes.numpy_dtype_fn(_select_kernel),
            shape_fn=_select_shape_fn)

# ---------------------------------------------------------------------------
# Neural network ops
# ---------------------------------------------------------------------------


def _softmax_kernel(a, axis=-1):
    a = np.asarray(a)
    shifted = a - np.max(a, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


register_op("Softmax", _softmax_kernel, shape_fn=_same_shape_fn,
            dtype_fn=dtypes.numpy_dtype_fn(_softmax_kernel))


def _log_softmax_kernel(a, axis=-1):
    a = np.asarray(a)
    shifted = a - np.max(a, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


register_op("LogSoftmax", _log_softmax_kernel, shape_fn=_same_shape_fn,
            dtype_fn=dtypes.numpy_dtype_fn(_log_softmax_kernel))


def _softmax_xent_kernel(labels, logits):
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    log_probs = _log_softmax_kernel(logits, axis=-1)
    return -np.sum(labels * log_probs, axis=-1)


register_op(
    "SoftmaxCrossEntropyWithLogits",
    _softmax_xent_kernel,
    dtype_fn=dtypes.numpy_dtype_fn(_softmax_xent_kernel),
    shape_fn=lambda ss, attrs: [
        shapes.TensorShape(ss[1].dims[:-1]) if ss[1].dims is not None else shapes.unknown
    ],
)


def _sparse_softmax_xent_kernel(labels, logits):
    logits = np.asarray(logits)
    labels = np.asarray(labels).astype(np.int64)
    log_probs = _log_softmax_kernel(logits, axis=-1)
    rows = np.arange(labels.shape[0])
    return -log_probs[rows, labels]


register_op("SparseSoftmaxCrossEntropyWithLogits", _sparse_softmax_xent_kernel,
            dtype_fn=dtypes.numpy_dtype_fn(_sparse_softmax_xent_kernel))

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


register_op("RandomNormal", _random_normal_kernel, stateful=True,
            dtype_fn=lambda dts, attrs: [dtypes.as_dtype(attrs.get("dtype", "float32"))])


def _random_uniform_kernel(shape, minval=0.0, maxval=1.0, dtype="float32"):
    dims = tuple(int(d) for d in np.asarray(shape).ravel())
    dt = dtypes.as_dtype(dtype)
    if dt.is_integer:
        out = _GLOBAL_RNG.integers(int(minval), int(maxval), size=dims)
    else:
        out = _GLOBAL_RNG.uniform(minval, maxval, size=dims)
    return out.astype(dt.np_dtype)


register_op("RandomUniform", _random_uniform_kernel, stateful=True,
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


register_op("PrintV2", _print_kernel, stateful=True,
            dtype_fn=lambda dts, attrs: [dtypes.int32],
            shape_fn=lambda ss, attrs: [shapes.TensorShape([])])


def _assert_kernel(cond, *data, message="Assertion failed"):
    if not bool(np.all(cond)):
        detail = ", ".join(_format_print_value(np.asarray(d)) for d in data)
        raise ExecutionError(f"{message}" + (f" [{detail}]" if detail else ""))
    return np.asarray(True)


register_op("Assert", _assert_kernel, stateful=True,
            dtype_fn=lambda dts, attrs: [dtypes.bool_])


def _no_op_kernel(*args):
    return np.asarray(0, dtype=np.int32)


register_op("Group", _no_op_kernel, stateful=True,
            dtype_fn=lambda dts, attrs: [dtypes.int32])
