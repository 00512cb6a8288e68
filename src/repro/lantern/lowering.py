"""Framework ops on staged Lantern values (paper §8: one front-end, many
backends).

:func:`lower_op_call` is the :class:`~repro.lantern.staging.Stager`'s
per-op hook: a *framework* op (``ops.multiply`` …) called on staged
values emits the ``ir.OPS`` entry its attrs select, so the same user
code stages into either backend; the op's registry ``shape_fn`` gives
the result's static shape, which lets a later negative axis normalise.
An op with no Lantern form, or a boolean operand (Lantern computes in
float32), yields a :class:`~repro.lantern.ir.RefusedValue` carrying a
:class:`LanternLoweringError` (an ``ExecutionError`` naming the op).
"""

from __future__ import annotations

import numpy as np

from repro.framework.errors import ExecutionError
from repro.framework.registry import get_op_def
from repro.framework.shapes import TensorShape, unknown

from .ir import OPS, RefusedValue, StagedValue

__all__ = ["LanternLoweringError", "lower_op_call", "op_def_or_none"]


class LanternLoweringError(ExecutionError):
    """Something a function stages has no Lantern form.

    Attributes:
      reason: what kind of refusal — ``"unsupported op"``,
        ``"boolean"``, ``"stateful op"``, ``"creates variables"`` or
        ``"constant outputs"``.
    """

    def __init__(self, message, op_name=None, reason="unsupported op"):
        super().__init__(message, op_name=op_name)
        self.reason = reason


def op_def_or_none(op_type):
    """The registry's ``OpDef`` for ``op_type``, or None."""
    try:
        return get_op_def(op_type)
    except KeyError:
        return None


def _unsupported(op_type, detail=""):
    suffix = f" ({detail})" if detail else ""
    lowerable = sorted({op.graph[0] for op in OPS.values() if op.graph})
    return LanternLoweringError(
        f"Graph op {op_type!r} has no Lantern (S-expression backend) "
        f"equivalent{suffix}; supported ops: {lowerable}. "
        "Use backend='graph' for this function.",
        op_name=op_type,
    )


def _emit_simple(builder, op_type, args, attrs, rank=None):
    """Emit one translated op; ``args`` are staged values/convertibles.

    The graph op's attrs are normalised to the *attr form* ``ir.OPS``
    entries declare (defaults dropped, one non-negative reduction axis)
    and the entry lowering from ``(op_type, form)`` is emitted.  ``rank``
    is the first input's static rank when it is known — it is what lets
    negative axes normalise.
    """
    form = {k: v for k, v in (attrs or {}).items()
            if v is not None and v is not False}
    if op_type == "MatMul":
        # The IR's matmul takes no flags: a transposed operand is an op.
        args = [builder.emit("transpose", a) if form.pop(flag, False) else a
                for a, flag in zip(args, ("transpose_a", "transpose_b"))]
    axis = form.get("axis")
    if isinstance(axis, (list, tuple)) and len(axis) == 1:
        axis = form["axis"] = axis[0]
    if isinstance(axis, int) and axis < 0:
        if rank is None:
            raise _unsupported(
                op_type,
                f"axis={axis!r} without a statically known rank; "
                "negative axes normalize only when the input's rank "
                "is known at lowering time")
        form["axis"] = axis + rank
    if "keepdims" in form:
        form["keepdims"] = True
    lantern_op = next((name for name, op in OPS.items()
                       if op.graph == (op_type, form)), None)
    if lantern_op is None:
        raise _unsupported(op_type, f"attrs {form}" if form else "")
    arity = OPS[lantern_op].arity
    if len(args) < arity:
        raise _unsupported(
            op_type, f"{len(args)} inputs; {lantern_op!r} takes {arity}")
    # A graph op with more inputs than the primitive has operands
    # (N-way Concat) folds into a chain of it; the adjoints then split
    # the gradient at each fold boundary symmetrically.
    result = builder.emit(lantern_op, *args[:arity])
    for nxt in args[arity:]:
        result = builder.emit(lantern_op, result, nxt)
    return result


def _static_shape(value):
    if isinstance(value, StagedValue):
        return unknown if value.shape is None else TensorShape(value.shape)
    return TensorShape(np.shape(value))


def lower_op_call(builder, op_type, inputs, attrs):
    """Translate one framework-op call on staged values into the IR.

    Eager tensors and Variables among ``inputs`` are staged through the
    builder (the Stager makes them Param captures or constants); other
    concrete operands stay concrete, to be emitted as constants.  An op
    the IR cannot express yields a :class:`RefusedValue`.
    """
    op_def = op_def_or_none(op_type)
    refused = next((v for v in inputs if isinstance(v, RefusedValue)), None)
    if refused is None:
        try:
            result, shapes = _lower(builder, op_type, inputs, attrs)
        except LanternLoweringError as e:
            refused = RefusedValue(e, builder)
        else:
            if op_def is not None and op_def.shape_fn is not None:
                try:
                    result.shape = op_def.shape_fn(shapes, attrs)[0]
                except Exception:  # noqa: BLE001 - no rule for these operands
                    pass
            return result
    n = 1 if op_def is None else op_def.output_count(inputs, attrs)
    return refused if n == 1 else (refused,) * n


def _lower(builder, op_type, inputs, attrs):
    """``(result, input shapes)`` of one op, or a LanternLoweringError."""
    args = []
    for value in inputs:
        if not isinstance(value, StagedValue):
            if np.asarray(value).dtype == np.bool_:
                raise LanternLoweringError(
                    f"{op_type!r} takes a boolean operand; Lantern "
                    "computes in float32, which has no booleans",
                    op_name=op_type, reason="boolean")
            if not isinstance(value, (int, float, np.ndarray, np.generic)):
                value = builder.as_staged(value)
        args.append(value)
    shapes = [_static_shape(a) for a in args]
    if op_type == "Identity":
        return args[0], shapes
    return _emit_simple(builder, op_type, args, attrs,
                        rank=shapes[0].rank if shapes else None), shapes
