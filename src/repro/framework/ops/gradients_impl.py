"""Gradient definitions for the primitive ops.

Each gradient function is written against the *public dispatching ops*,
so the exact same definitions serve the one reverse-mode walk
(:func:`~repro.framework.graph.gradients.backprop`) in both modes:

- graph-mode ``gradients()`` (building new graph nodes), and
- the eager ``GradientTape`` (running eagerly, recorded by an outer tape).

A gradient is built from ordinary ops: a reduction's is a broadcasting
multiply, a reshape's a reshape, a concat's slices of the incoming
gradient, a cross-entropy's ``softmax`` minus the labels.  Every op a
gradient builds has a gradient itself, so a second derivative passes
through any of them.  Two primitives exist for gradients alone, each
with a gradient of its own: ``UnbroadcastTo`` sums a broadcast operand's
gradient back to its shape, and ``GetItemGrad`` is the one scatter-add,
behind both indexing and ``gather``.
"""

from __future__ import annotations

import numpy as np

from ..dtypes import numpy_dtype_fn
from ..graph.graph import Tensor
from ..registry import register_gradient, register_op
from . import array_ops, dispatch, math_ops, nn_ops

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


def _getitem_grad_kernel(grad, x, *index_inputs, spec=()):
    from ..kernels import _materialize_spec

    x = np.asarray(x)
    out = np.zeros_like(x)
    np.add.at(out, _materialize_spec(spec, index_inputs), np.asarray(grad))
    return out


register_op("GetItemGrad", _getitem_grad_kernel, fresh_output=True,
            dtype_fn=lambda dts, attrs: [dts[1]],
            shape_fn=lambda ss, attrs: [ss[1]])


# ---------------------------------------------------------------------------
# Building blocks: the shapes a gradient is sent back to
# ---------------------------------------------------------------------------


def _along(axis, index):
    """An indexing key applying ``index`` at ``axis`` (a negative one
    counts from the end) and keeping every other axis whole."""
    axis = int(axis)
    if axis < 0:
        return (Ellipsis, index) + (slice(None),) * (-axis - 1)
    return (slice(None),) * axis + (index,)


def _shaped_like(t, like):
    """``t``, declared (when staged) with ``like``'s static shape, which
    the ops that made it cannot tell: no shape rule reads the value a
    ``reshape`` or ``one_hot`` takes its shape from, and the sparse
    cross-entropy has none."""
    if isinstance(t, Tensor):
        t.set_shape(like.shape)
    return t


def _keep_reduced_dims(op, t):
    """``t``, shaped like the reduction ``op``'s result, with each axis
    ``op`` reduced put back as a 1 (``keepdims=True``'s shape), so that
    it broadcasts against the operand."""
    x = op.inputs[0]
    axis = op.get_attr("axis")
    rank = x.shape.rank
    # A 0-d operand reduces nothing (NumPy lets its axis be 0 or -1).
    if axis is None or op.get_attr("keepdims", False) or rank == 0:
        return t
    if rank is None:  # the shape the same reduction keeps, at run time
        kept = dispatch.run_op(op.type, [x], {"axis": axis, "keepdims": True})
        return array_ops.reshape(t, array_ops.shape(kept))
    axes = [axis] if np.ndim(axis) == 0 else axis
    kept = {int(a) % rank for a in axes}
    return array_ops.get_item(
        t, tuple(None if i in kept else slice(None) for i in range(rank)))


def _reduced_grad(op, g):
    """``g`` sent back to every operand element the reduction ``op``
    folded into each result."""
    return math_ops.multiply(_keep_reduced_dims(op, g),
                             array_ops.ones_like(op.inputs[0]))


def _reduced_count(op, dtype):
    """How many operand elements the reduction ``op`` folded into each
    result, as a ``dtype`` scalar."""
    x, out = op.inputs[0], op.outputs[0]
    if x.shape.is_fully_defined and out.shape.is_fully_defined:
        return array_ops.constant(
            x.shape.num_elements() // max(1, out.shape.num_elements()), dtype)
    return math_ops.divide(math_ops.cast(array_ops.size(x), dtype),
                           math_ops.cast(array_ops.size(out), dtype))


# ---------------------------------------------------------------------------
# Gradient functions
# ---------------------------------------------------------------------------


@register_gradient("UnbroadcastTo")
def _unbroadcast_grad(op, g):
    # The sum over broadcast axes sends each element's gradient back to
    # every element summed into it (a second derivative passes here).
    return [math_ops.multiply(g, array_ops.ones_like(op.inputs[0])), None]


@register_gradient("GetItemGrad")
def _getitem_grad_grad(op, g):
    # A scatter-add is linear in what it adds: its adjoint reads the
    # same places back.
    index_inputs = list(op.inputs[2:])
    grad = dispatch.run_op("GetItem", [g, *index_inputs],
                           {"spec": op.get_attr("spec")})
    return [grad, None] + [None] * len(index_inputs)


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
    return [_reduced_grad(op, g)]


@register_gradient("Mean")
def _mean_grad(op, g):
    return [_reduced_grad(op, math_ops.divide(g, _reduced_count(op, g.dtype)))]


@register_gradient("Max")
@register_gradient("Min")
def _max_grad(op, g):
    # Every element equal to the extreme gets the whole gradient.
    x = op.inputs[0]
    at_extreme = math_ops.equal(x, _keep_reduced_dims(op, op.outputs[0]))
    return [array_ops.where(at_extreme, _reduced_grad(op, g),
                            array_ops.zeros_like(x))]


@register_gradient("Select")
def _select_grad(op, g):
    # Each branch's share, summed back onto its own operand's shape (a
    # branch may broadcast against the condition or the other branch).
    cond, x, y = op.inputs
    zeros = array_ops.zeros_like(g)
    return [None, _unbroadcast(array_ops.where(cond, g, zeros), x),
            _unbroadcast(array_ops.where(cond, zeros, g), y)]


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
@register_gradient("ExpandDims")
@register_gradient("Squeeze")
def _reshape_grad(op, g):
    x = op.inputs[0]
    shape = (x.shape.as_tuple() if x.shape.is_fully_defined
             else array_ops.shape(x))
    grad = _shaped_like(array_ops.reshape(g, shape), x)
    # Reshape's second operand, the new shape, gets none.
    return [grad] + [None] * (len(op.inputs) - 1)


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
    # The scatter-add behind ``params[..., indices, ...]``'s gradient.
    spec, index_inputs = array_ops._build_index_spec(
        _along(op.get_attr("axis", 0), indices))
    grad = dispatch.run_op("GetItemGrad", [g, params, *index_inputs],
                           {"spec": spec})
    return [grad, None]


@register_gradient("GetItem")
def _getitem_grad(op, g):
    index_inputs = list(op.inputs[1:])
    grad = dispatch.run_op("GetItemGrad", [g, op.inputs[0], *index_inputs],
                           {"spec": op.get_attr("spec")})
    return [grad] + [None] * len(index_inputs)


@register_gradient("Concat")
def _concat_grad(op, g):
    # Each operand's slice of ``g``; a split point is a Python int while
    # the static widths before it are known, a tensor from there on.
    axis = op.get_attr("axis", 0)
    grads, start = [], 0
    for x in op.inputs:
        dims = x.shape.dims
        width = None if dims is None else dims[axis]
        if width is None:
            width = array_ops.get_item(array_ops.shape(x), axis)
        stop = start + width
        grads.append(array_ops.get_item(g, _along(axis, slice(start, stop))))
        start = stop
    return grads


@register_gradient("Pack")
def _pack_grad(op, g):
    axis = op.get_attr("axis", 0)
    return [array_ops.get_item(g, _along(axis, i))
            for i in range(len(op.inputs))]


def _xent_grad(g, logits, labels):
    # softmax(logits) - labels, each row scaled by its loss's gradient.
    return _shaped_like(math_ops.multiply(
        math_ops.subtract(nn_ops.softmax(logits), labels),
        array_ops.get_item(g, (Ellipsis, None))), logits)


@register_gradient("SoftmaxCrossEntropyWithLogits")
def _softmax_xent_grad(op, g):
    labels, logits = op.inputs
    return [None, _xent_grad(g, logits, labels)]


@register_gradient("SparseSoftmaxCrossEntropyWithLogits")
def _sparse_xent_grad(op, g):
    labels, logits = op.inputs
    depth = logits.shape.dims[-1] if logits.shape.rank else None
    if depth is None:
        depth = array_ops.get_item(array_ops.shape(logits), -1)
    # A negative label counts from the end, as the loss's indexing does.
    one_hot = array_ops.one_hot(math_ops.mod(labels, depth), depth,
                                dtype=logits.dtype)
    return [None, _xent_grad(g, logits, one_hot)]


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
