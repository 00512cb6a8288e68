"""Gradient definitions for the primitive ops.

Each gradient function is written against the *public dispatching ops*,
so the exact same definitions serve:

- graph-mode ``gradients()`` (building new graph nodes), and
- the eager ``GradientTape`` (replaying eagerly).

A handful of dedicated grad-helper primitives (``SumGrad`` etc.) keep the
generated graphs small; their kernels live here next to their use.
"""

from __future__ import annotations

import functools

import numpy as np

from ..dtypes import numpy_dtype_fn
from ..registry import register_gradient, register_op
from . import array_ops, dispatch, math_ops

# ---------------------------------------------------------------------------
# Grad-helper primitives
# ---------------------------------------------------------------------------


def _unbroadcast_kernel(grad, target):
    g = np.asarray(grad)
    t = np.asarray(target)
    # Fixed before anything is summed: an integer sum widens, and the
    # result's dtype must not depend on whether anything was broadcast.
    dtype = t.dtype if t.dtype.kind == "f" else g.dtype
    while g.ndim > t.ndim:
        g = g.sum(axis=0)
    for i, (gd, td) in enumerate(zip(g.shape, t.shape)):
        if td == 1 and gd != 1:
            g = g.sum(axis=i, keepdims=True)
    return g.astype(dtype, copy=False)


register_op("UnbroadcastTo", _unbroadcast_kernel,
            dtype_fn=numpy_dtype_fn(_unbroadcast_kernel),
            shape_fn=lambda ss, attrs: [ss[1]])


def _unbroadcast(grad, like):
    return dispatch.run_op("UnbroadcastTo", [grad, like], {})


def _reduce_grad_kernel(grad, x, axis=None, keepdims=False, mean=False):
    g = np.asarray(grad)
    x = np.asarray(x)
    if axis is None or x.ndim == 0:  # NumPy lets a 0-d axis be 0 or -1
        expanded = np.broadcast_to(g, x.shape)
        count = x.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        axes = tuple(a % x.ndim for a in axes)
        if not keepdims:
            for a in sorted(axes):
                g = np.expand_dims(g, a)
        expanded = np.broadcast_to(g, x.shape)
        count = 1
        for a in axes:
            count *= x.shape[a]
    if mean:
        expanded = expanded / count
    return expanded.astype(x.dtype, copy=False) if x.dtype.kind == "f" else expanded


# ``mean`` divides, which changes what an integer gradient comes back as.
_mean_grad_kernel = functools.partial(_reduce_grad_kernel, mean=True)

register_op("SumGrad", _reduce_grad_kernel,
            dtype_fn=lambda dts, attrs: numpy_dtype_fn(
                _mean_grad_kernel if attrs.get("mean") else _reduce_grad_kernel
            )(dts, attrs),
            shape_fn=lambda ss, attrs: [ss[1]])


def _max_grad_kernel(grad, x, out, axis=None, keepdims=False):
    x = np.asarray(x)
    g = np.asarray(grad)
    o = np.asarray(out)
    if x.ndim == 0:  # NumPy lets a 0-d axis be 0 or -1
        axis = None
    if axis is None:
        mask = (x == o)
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        axes = tuple(a % x.ndim for a in axes)
        ge = g
        oe = o
        if not keepdims:
            for a in sorted(axes):
                ge = np.expand_dims(ge, a)
                oe = np.expand_dims(oe, a)
        mask = (x == oe)
        g = ge
    out_grad = np.where(mask, np.broadcast_to(g, x.shape), 0.0)
    return out_grad.astype(x.dtype, copy=False)


register_op("MaxGrad", _max_grad_kernel, fresh_output=True,
            dtype_fn=lambda dts, attrs: [dts[1]],
            shape_fn=lambda ss, attrs: [ss[1]])


def _select_grad_kernel(cond, grad):
    c = np.asarray(cond)
    g = np.asarray(grad)
    if c.ndim > 0 and c.ndim < g.ndim:
        c = c.reshape(c.shape + (1,) * (g.ndim - c.ndim))
    zeros = np.zeros_like(g)
    return np.where(c, g, zeros), np.where(c, zeros, g)


register_op("SelectGrad", _select_grad_kernel, num_outputs=2, fresh_output=True,
            dtype_fn=lambda dts, attrs: [dts[1], dts[1]])


def _reshape_like_kernel(grad, like):
    return np.reshape(np.asarray(grad), np.asarray(like).shape)


register_op("ReshapeLike", _reshape_like_kernel,
            dtype_fn=lambda dts, attrs: [dts[0]],
            shape_fn=lambda ss, attrs: [ss[1]])


def _gather_grad_kernel(grad, indices, params, axis=0):
    params = np.asarray(params)
    out = np.zeros_like(params, dtype=np.asarray(grad).dtype)
    idx = np.asarray(indices)
    if axis != 0:
        raise NotImplementedError("Gather gradient only supports axis=0")
    np.add.at(out, idx, np.asarray(grad))
    return out.astype(params.dtype, copy=False)


register_op("GatherGrad", _gather_grad_kernel, fresh_output=True,
            dtype_fn=lambda dts, attrs: [dts[2]],
            shape_fn=lambda ss, attrs: [ss[2]])


def _getitem_grad_kernel(grad, x, *index_inputs, spec=()):
    from ..kernels import _materialize_spec

    x = np.asarray(x)
    out = np.zeros_like(x)
    np.add.at(out, _materialize_spec(spec, index_inputs), np.asarray(grad))
    return out


register_op("GetItemGrad", _getitem_grad_kernel, fresh_output=True,
            dtype_fn=lambda dts, attrs: [dts[1]],
            shape_fn=lambda ss, attrs: [ss[1]])


def _xent_grad_kernel(grad, labels, logits):
    from ..kernels import _softmax_kernel

    g = np.asarray(grad)[..., None]
    return (_softmax_kernel(np.asarray(logits), axis=-1) - np.asarray(labels)) * g


register_op("SoftmaxXentGrad", _xent_grad_kernel, fresh_output=True,
            dtype_fn=numpy_dtype_fn(_xent_grad_kernel),
            shape_fn=lambda ss, attrs: [ss[2]])


def _sparse_xent_grad_kernel(grad, labels, logits):
    from ..kernels import _softmax_kernel

    logits = np.asarray(logits)
    labels = np.asarray(labels).astype(np.int64)
    g = np.asarray(grad)[..., None]
    soft = _softmax_kernel(logits, axis=-1)
    onehot = np.zeros_like(logits)
    onehot[np.arange(labels.shape[0]), labels] = 1.0
    return (soft - onehot) * g


register_op("SparseSoftmaxXentGrad", _sparse_xent_grad_kernel, fresh_output=True,
            dtype_fn=numpy_dtype_fn(_sparse_xent_grad_kernel),
            shape_fn=lambda ss, attrs: [ss[2]])


def _concat_grad_kernel(grad, *inputs, axis=0):
    sizes = [np.asarray(x).shape[axis] for x in inputs]
    parts = np.split(np.asarray(grad), np.cumsum(sizes)[:-1], axis=axis)
    return tuple(parts) if len(parts) != 1 else parts[0]


register_op("ConcatGrad", _concat_grad_kernel,
            num_outputs=lambda inputs, attrs: len(inputs) - 1,
            dtype_fn=lambda dts, attrs: [dts[0]] * (len(dts) - 1))


def _pack_grad_kernel(grad, axis=0, num=1):
    parts = np.split(np.asarray(grad), num, axis=axis)
    out = tuple(np.squeeze(p, axis=axis) for p in parts)
    return out if num != 1 else out[0]


register_op("PackGrad", _pack_grad_kernel,
            num_outputs=lambda inputs, attrs: attrs["num"],
            dtype_fn=lambda dts, attrs: [dts[0]] * attrs["num"])


# ---------------------------------------------------------------------------
# Gradient functions
# ---------------------------------------------------------------------------


@register_gradient("Add")
def _add_grad(op, g):
    x, y = op.inputs
    return [_unbroadcast(g, x), _unbroadcast(g, y)]


@register_gradient("Sub")
def _sub_grad(op, g):
    x, y = op.inputs
    return [_unbroadcast(g, x), _unbroadcast(math_ops.negative(g), y)]


@register_gradient("Mul")
def _mul_grad(op, g):
    x, y = op.inputs
    return [
        _unbroadcast(math_ops.multiply(g, y), x),
        _unbroadcast(math_ops.multiply(g, x), y),
    ]


@register_gradient("Div")
def _div_grad(op, g):
    x, y = op.inputs
    gx = math_ops.divide(g, y)
    gy = math_ops.negative(math_ops.divide(math_ops.multiply(g, x),
                                           math_ops.multiply(y, y)))
    return [_unbroadcast(gx, x), _unbroadcast(gy, y)]


@register_gradient("Pow")
def _pow_grad(op, g):
    x, y = op.inputs
    gx = math_ops.multiply(
        g, math_ops.multiply(y, math_ops.pow(x, math_ops.subtract(y, 1.0)))
    )
    # d(x**y)/dy = x**y log x, where x > 0; 0 elsewhere (x**y is not a
    # real function of y there), without taking the log of x <= 0.
    positive = math_ops.greater(x, 0.0)
    log_x = array_ops.where(
        positive, math_ops.log(array_ops.where(positive, x, 1.0)), 0.0)
    gy = math_ops.multiply(g, math_ops.multiply(op.outputs[0], log_x))
    return [_unbroadcast(gx, x), _unbroadcast(gy, y)]


@register_gradient("Maximum")
def _maximum_grad(op, g):
    x, y = op.inputs
    mask = math_ops.cast(math_ops.greater_equal(x, y), dtype="float32")
    inv = math_ops.subtract(1.0, mask)
    return [
        _unbroadcast(math_ops.multiply(g, mask), x),
        _unbroadcast(math_ops.multiply(g, inv), y),
    ]


@register_gradient("Minimum")
def _minimum_grad(op, g):
    x, y = op.inputs
    mask = math_ops.cast(math_ops.less_equal(x, y), dtype="float32")
    inv = math_ops.subtract(1.0, mask)
    return [
        _unbroadcast(math_ops.multiply(g, mask), x),
        _unbroadcast(math_ops.multiply(g, inv), y),
    ]


@register_gradient("Neg")
def _neg_grad(op, g):
    return [math_ops.negative(g)]


@register_gradient("Abs")
def _abs_grad(op, g):
    return [math_ops.multiply(g, math_ops.sign(op.inputs[0]))]


@register_gradient("Exp")
def _exp_grad(op, g):
    return [math_ops.multiply(g, op.outputs[0])]


@register_gradient("Log")
def _log_grad(op, g):
    return [math_ops.divide(g, op.inputs[0])]


@register_gradient("Tanh")
def _tanh_grad(op, g):
    out = op.outputs[0]
    return [math_ops.multiply(g, math_ops.subtract(1.0, math_ops.multiply(out, out)))]


@register_gradient("Sigmoid")
def _sigmoid_grad(op, g):
    out = op.outputs[0]
    return [math_ops.multiply(g, math_ops.multiply(out, math_ops.subtract(1.0, out)))]


@register_gradient("Relu")
def _relu_grad(op, g):
    mask = math_ops.cast(math_ops.greater(op.inputs[0], 0.0), dtype="float32")
    return [math_ops.multiply(g, mask)]


@register_gradient("Sqrt")
def _sqrt_grad(op, g):
    return [math_ops.divide(math_ops.multiply(g, 0.5), op.outputs[0])]


@register_gradient("Square")
def _square_grad(op, g):
    return [math_ops.multiply(g, math_ops.multiply(op.inputs[0], 2.0))]


@register_gradient("MatMul")
def _matmul_grad(op, g):
    x, y = op.inputs
    ta = op.get_attr("transpose_a", False)
    tb = op.get_attr("transpose_b", False)
    if not ta and not tb:
        gx = math_ops.matmul(g, y, transpose_b=True)
        gy = math_ops.matmul(x, g, transpose_a=True)
    elif ta and not tb:
        gx = math_ops.matmul(y, g, transpose_b=True)
        gy = math_ops.matmul(x, g)
    elif not ta and tb:
        gx = math_ops.matmul(g, y)
        gy = math_ops.matmul(g, x, transpose_a=True)
    else:
        gx = math_ops.matmul(y, g, transpose_a=True, transpose_b=True)
        gy = math_ops.matmul(g, x, transpose_a=True, transpose_b=True)
    return [gx, gy]


@register_gradient("Sum")
def _sum_grad(op, g):
    x = op.inputs[0]
    return [dispatch.run_op("SumGrad", [g, x],
                            {"axis": op.get_attr("axis"),
                             "keepdims": op.get_attr("keepdims", False),
                             "mean": False})]


@register_gradient("Mean")
def _mean_grad(op, g):
    x = op.inputs[0]
    return [dispatch.run_op("SumGrad", [g, x],
                            {"axis": op.get_attr("axis"),
                             "keepdims": op.get_attr("keepdims", False),
                             "mean": True})]


@register_gradient("Max")
@register_gradient("Min")
def _max_grad(op, g):
    x = op.inputs[0]
    return [dispatch.run_op("MaxGrad", [g, x, op.outputs[0]],
                            {"axis": op.get_attr("axis"),
                             "keepdims": op.get_attr("keepdims", False)})]


@register_gradient("Select")
def _select_grad(op, g):
    cond = op.inputs[0]
    gx, gy = dispatch.run_op("SelectGrad", [cond, g], {})
    return [None, gx, gy]


@register_gradient("Identity")
def _identity_grad(op, g):
    return [g]


@register_gradient("ZerosLike")
@register_gradient("OnesLike")
@register_gradient("Sign")
@register_gradient("Floor")
@register_gradient("Greater")
@register_gradient("GreaterEqual")
@register_gradient("Less")
@register_gradient("LessEqual")
@register_gradient("Equal")
@register_gradient("NotEqual")
@register_gradient("LogicalAnd")
@register_gradient("LogicalOr")
@register_gradient("LogicalNot")
@register_gradient("All")
@register_gradient("Any")
@register_gradient("ArgMax")
@register_gradient("ArgMin")
@register_gradient("OneHot")
@register_gradient("Shape")
@register_gradient("Size")
@register_gradient("Rank")
@register_gradient("Range")
def _no_gradient(op, g):
    # An integer- or bool-valued result, or one that does not depend on
    # the operands' values (or is flat wherever it has a derivative),
    # carries no gradient to any operand.
    return [None] * len(op.inputs)


@register_gradient("Cast")
def _cast_grad(op, g):
    src = op.inputs[0].dtype
    if not (src.is_floating and g.dtype.is_floating):
        return [None]
    return [math_ops.cast(g, dtype=src.name)]


@register_gradient("Reshape")
def _reshape_grad(op, g):
    return [dispatch.run_op("ReshapeLike", [g, op.inputs[0]], {}), None]


@register_gradient("ExpandDims")
def _expand_dims_grad(op, g):
    return [dispatch.run_op("ReshapeLike", [g, op.inputs[0]], {})]


@register_gradient("Squeeze")
def _squeeze_grad(op, g):
    return [dispatch.run_op("ReshapeLike", [g, op.inputs[0]], {})]


@register_gradient("Transpose")
def _transpose_grad(op, g):
    perm = op.get_attr("perm")
    if perm is None:
        return [array_ops.transpose(g)]
    inverse = [0] * len(perm)
    for i, p in enumerate(perm):
        inverse[p] = i
    return [array_ops.transpose(g, perm=inverse)]


@register_gradient("Gather")
def _gather_grad(op, g):
    params, indices = op.inputs
    return [
        dispatch.run_op("GatherGrad", [g, indices, params],
                        {"axis": op.get_attr("axis", 0)}),
        None,
    ]


@register_gradient("GetItem")
def _getitem_grad(op, g):
    x = op.inputs[0]
    index_inputs = list(op.inputs[1:])
    grad = dispatch.run_op("GetItemGrad", [g, x] + index_inputs,
                           {"spec": op.get_attr("spec")})
    return [grad] + [None] * len(index_inputs)


@register_gradient("Concat")
def _concat_grad(op, g):
    grads = dispatch.run_op("ConcatGrad", [g, *op.inputs],
                            {"axis": op.get_attr("axis", 0)})
    return [grads] if len(op.inputs) == 1 else list(grads)


@register_gradient("Pack")
def _pack_grad(op, g):
    n = len(op.inputs)
    grads = dispatch.run_op("PackGrad", [g],
                            {"axis": op.get_attr("axis", 0), "num": n})
    return [grads] if n == 1 else list(grads)


@register_gradient("SoftmaxCrossEntropyWithLogits")
def _softmax_xent_grad(op, g):
    labels, logits = op.inputs
    return [None, dispatch.run_op("SoftmaxXentGrad", [g, labels, logits], {})]


@register_gradient("SparseSoftmaxCrossEntropyWithLogits")
def _sparse_xent_grad(op, g):
    labels, logits = op.inputs
    return [None, dispatch.run_op("SparseSoftmaxXentGrad", [g, labels, logits], {})]


@register_gradient("Softmax")
def _softmax_grad(op, g):
    out = op.outputs[0]
    axis = op.get_attr("axis", -1)
    gs = math_ops.multiply(g, out)
    summed = math_ops.reduce_sum(gs, axis=axis, keepdims=True)
    return [math_ops.multiply(out, math_ops.subtract(g, summed))]


@register_gradient("LogSoftmax")
def _log_softmax_grad(op, g):
    axis = op.get_attr("axis", -1)
    summed = math_ops.reduce_sum(g, axis=axis, keepdims=True)
    softmax = math_ops.exp(op.outputs[0])
    return [math_ops.subtract(g, math_ops.multiply(summed, softmax))]
