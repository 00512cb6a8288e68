"""Graph-IR → Lantern lowering (paper §8: one front-end, many backends).

Two public surfaces:

- :func:`lower_graph` — a Builder-level translator that walks a traced
  (usually optimized) :class:`~repro.framework.graph.graph.Graph` and
  re-emits it as one Lantern :class:`~repro.lantern.ir.FunctionDef`, so a
  ``@repro.function`` trace can compile to the S-expression backend with
  continuation-based gradients instead of a ``Session`` plan;
- :func:`lower_op_call` — a per-op translator used by the
  :class:`~repro.lantern.staging.Stager`'s framework dispatch hook, so
  *framework* ops (``ops.multiply`` …) called on staged Lantern values
  during direct staging emit IR instructions — the same user code stages
  into either backend.

Ops without a Lantern equivalent raise :class:`LanternLoweringError`, an
:class:`~repro.framework.errors.ExecutionError` naming the offending op.
"""

from __future__ import annotations

import re

import numpy as np

from repro.framework.errors import ExecutionError

from .ir import (
    OPS, Builder, FunctionDef, Param, Program, StagedTensor, StagedValue)

__all__ = ["GRAPH_TO_LANTERN", "LanternLoweringError", "lower_graph",
           "lower_op_call"]


class LanternLoweringError(ExecutionError):
    """A graph op has no Lantern equivalent (or unsupported attributes)."""


# Graph op type -> the Lantern primitive it lowers to with default attrs
# (read off ``ir.OPS``, which also holds the forms other attrs select:
# axis / keepdims reductions, concatenation).
GRAPH_TO_LANTERN = {
    op.graph[0]: name for name, op in OPS.items()
    if op.graph is not None and not op.graph[1]
}


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
    is the first input's static rank when the caller knows it (graph
    lowering reads it off the tensor; the staged route passes it for
    concrete inputs) — it is what lets negative axes normalise.
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


def lower_op_call(builder, op_type, inputs, attrs):
    """Translate one framework-op call on staged values into the IR.

    This is the dispatch-hook path: the Stager routes framework ops whose
    inputs are staged Lantern values here, unwrapping eager tensors and
    Params so mixed-mode arguments stage as constants/parameters.
    """
    from repro.framework.eager.tensor import EagerTensor

    args = []
    for value in inputs:
        if isinstance(value, EagerTensor):
            value = value.numpy()
        args.append(value)
    rank = None
    if args and not isinstance(args[0], StagedValue):
        rank = np.ndim(args[0])
    return _emit_simple(builder, op_type, args, attrs, rank=rank)


def lower_graph(graph, inputs, outputs, *, name="main", program=None,
                builder=None, captures=None):
    """Translate a traced graph into a Lantern function, via a Builder.

    Args:
      graph: the (optimized) Graph/FuncGraph to translate.
      inputs: placeholder tensors that become the function's parameters.
      outputs: graph tensors that become the function's results.
      name: IR function name.
      program/builder: optional existing Program/Builder to lower into.
      captures: optional ``[(placeholder, name, initial_value), ...]`` —
        external-capture placeholders that lower to lantern ``Param``
        references instead of function parameters, so the compiled
        program shares mutable storage with the capture's source.

    Returns:
      ``(program, fdef, capture_params)`` — the Program, the new
      FunctionDef, and ``{capture name: Param}`` for the lowered
      captures.

    Raises:
      LanternLoweringError: an op in the graph has no Lantern equivalent.
    """
    if not outputs:
        raise LanternLoweringError(
            f"Cannot lower {name!r}: a Lantern function needs at least one "
            "output tensor"
        )
    program = program if program is not None else Program()
    builder = builder if builder is not None else Builder(program)

    param_syms = [builder.fresh(f"a_{name}_") for _ in inputs]
    fdef = FunctionDef(name, param_syms, ["tensor"] * len(inputs),
                       len(outputs))
    program.functions[name] = fdef
    capture_params = {}
    capture_plan = {}
    for ph, cap_name, value in captures or ():
        ir_name = re.sub(r"\W", "_", cap_name) or "capture"
        taken = set(program.params) | {p.name for p, _ in
                                       capture_plan.values()}
        unique, i = ir_name, 1
        while unique in taken:
            unique = f"{ir_name}_{i}"
            i += 1
        capture_plan[id(ph)] = (Param(unique, value), cap_name)
    builder.push_block(fdef.block)
    try:
        env = {}
        for ph, sym in zip(inputs, param_syms):
            env[id(ph)] = sym

        def staged_in(tensor):
            sym = env.get(id(tensor))
            if sym is None:
                raise LanternLoweringError(
                    f"Tensor {tensor.name!r} reached lowering before its "
                    "producer; the op list is not topologically ordered"
                )
            return StagedTensor(sym, builder)

        for op in graph.ops:
            if op.type == "Placeholder":
                planned = capture_plan.get(id(op.outputs[0]))
                if planned is not None:
                    param, cap_name = planned
                    staged = builder.emit_param(param)
                    env[id(op.outputs[0])] = staged.sym
                    capture_params[cap_name] = param
                    continue
                if id(op.outputs[0]) not in env:
                    raise _unsupported(
                        "Placeholder",
                        f"placeholder {op.name!r} is not a declared input")
                continue
            if op.type == "Const":
                value = np.asarray(op.attrs["value"])
                staged = builder.emit_const(
                    float(value) if value.ndim == 0 else value)
                env[id(op.outputs[0])] = staged.sym
                continue
            if op.type == "Identity":
                env[id(op.outputs[0])] = env[id(op.inputs[0])]
                continue
            args = [staged_in(t) for t in op.inputs]
            rank = op.inputs[0].shape.rank if op.inputs else None
            staged = _emit_simple(builder, op.type, args, op.attrs,
                                  rank=rank)
            env[id(op.outputs[0])] = staged.sym

        missing = [t.name for t in outputs if id(t) not in env]
        if missing:
            raise LanternLoweringError(
                f"Outputs {missing} were not produced by the lowered graph")
        fdef.block.result_syms = tuple(env[id(t)] for t in outputs)
    finally:
        builder.pop_block()
    return program, fdef, capture_params
