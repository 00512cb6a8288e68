"""Whole-graph optimizations: the payoff of staging.

The paper's premise is that a lowered IR "can be readily optimized".
This module implements three classic rewrites over our graph IR:

- **dead-node elimination** relative to a set of fetches,
- **constant folding** of stateless ops with all-constant inputs,
- **common-subexpression elimination** of identical stateless ops,

plus one peephole: the masking idiom ``Select(c, x, ZerosLike(x))``
selects against a ``0`` of ``x``'s dtype, which broadcasts to the same
bytes, so the ``ZerosLike`` goes when nothing else reads it.

They operate by building a *new* graph and returning a tensor mapping, so
callers re-point their fetch handles.  Every ``repro.function`` trace
runs them once, at trace time (forward graph and, on the first tape
replay, the backward graph), and every ``Cond`` / ``While`` branch and
body runs them before its plan is compiled
(:func:`~repro.framework.graph.func_graph.bound_func_graph`), so each
call and each loop turn executes an optimized graph.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, Tensor

__all__ = ["optimize_graph", "count_ops", "has_opaque_attrs"]

# Attrs that reference subgraphs; ops carrying these are never folded or
# deduplicated (the sub-graphs themselves are optimized, each on its own,
# when their plans are compiled).
_OPAQUE_ATTRS = ("true_graph", "false_graph", "cond_graph", "body_graph")


def count_ops(graph, op_type=None):
    """Number of ops (optionally of one type) in ``graph``."""
    if op_type is None:
        return len(graph.ops)
    return sum(1 for op in graph.ops if op.type == op_type)


def _attr_key(attrs):
    try:
        return tuple(sorted((k, _freeze(v)) for k, v in attrs.items()))
    except TypeError:
        return None


def _freeze(value):
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    hash(value)
    return value


def optimize_graph(graph, fetches, fold_constants=True, cse=True):
    """Optimize ``graph`` for ``fetches``.

    Args:
      graph: the source graph (not modified).
      fetches: list of tensors that must remain computable.
      fold_constants: evaluate stateless all-constant ops at optimization
        time and replace them with Const nodes.
      cse: merge structurally identical stateless ops.

    Returns:
      ``(new_graph, tensor_map)`` where ``tensor_map`` maps old fetch
      tensors to their replacements in ``new_graph``.
    """
    fetches = list(fetches)
    for f in fetches:
        if not isinstance(f, Tensor) or f.graph is not graph:
            raise ValueError(f"Fetch {f!r} is not a tensor of the given graph")

    # 1. Dead-node elimination: reverse reachability.  A masking
    # ``Select`` reads no ``ZerosLike``: it selects against a constant.
    masks = {id(op): op.inputs[1].dtype.np_dtype for op in graph.ops
             if _is_zero_mask(op)}
    needed = set()
    stack = [f.op for f in fetches]
    while stack:
        op = stack.pop()
        if id(op) in needed:
            continue
        needed.add(id(op))
        inputs = op.inputs[:2] if id(op) in masks else op.inputs
        for t in inputs:
            stack.append(t.op)
        for c in op.control_inputs:
            stack.append(c)

    new_graph = Graph(name=f"{graph.name}_opt")
    tensor_map = {}
    op_map = {}
    # CSE table: (type, input ids, attr key) -> new op.
    cse_table = {}
    # Constant values available at fold time: new tensor id -> ndarray.
    const_values = {}

    for op in graph.ops:
        if id(op) not in needed:
            continue
        if id(op) in masks:
            new_inputs = [tensor_map[id(t)] for t in op.inputs[:2]]
            new_inputs.append(new_graph.constant(
                np.zeros((), masks[id(op)]), name="zero"))
            const_values[id(new_inputs[-1])] = new_inputs[-1].op.attrs[
                "value"]
        else:
            new_inputs = [tensor_map[id(t)] for t in op.inputs]
        new_controls = [op_map[id(c)] for c in op.control_inputs if id(c) in op_map]
        attr_key = None if has_opaque_attrs(op) else _attr_key(op.attrs)
        # Placeholders are never pure: two inputs with identical dtype and
        # shape are still distinct inputs and must not be CSE-merged.
        is_pure = (
            not op.op_def.stateful
            and attr_key is not None
            and op.type != "Placeholder"
        )

        # Constant folding.
        if (
            fold_constants
            and is_pure
            and new_inputs
            and all(id(t) in const_values for t in new_inputs)
        ):
            try:
                values = [const_values[id(t)] for t in new_inputs]
                result = op.op_def.kernel(*values, **op.attrs)
            except Exception:
                result = None
            if result is not None and len(op.outputs) == 1 and isinstance(
                result, (np.ndarray, np.generic, int, float, bool)
            ):
                folded = new_graph.constant(np.asarray(result), name=f"{op.name}_folded")
                const_values[id(folded)] = np.asarray(result)
                tensor_map[id(op.outputs[0])] = folded
                op_map[id(op)] = folded.op
                continue

        # CSE.
        if cse and is_pure:
            key = (op.type, tuple(id(t) for t in new_inputs), attr_key)
            hit = cse_table.get(key)
            if hit is not None:
                op_map[id(op)] = hit
                for old_out, new_out in zip(op.outputs, hit.outputs):
                    tensor_map[id(old_out)] = new_out
                continue

        # Inputs with the source's dtypes and shapes (the same objects,
        # copied along) give the source's outputs without inferring
        # again: the rules would say what they said of the source (and
        # a variable read, which has no inputs, keeps its shape).
        same = all(a._dtype is b._dtype and a._shape is b._shape
                   for a, b in zip(new_inputs, op.inputs))
        new_op = new_graph.create_op(
            op.type, new_inputs, dict(op.attrs), name=op.name,
            control_inputs=new_controls,
            metadata=([t.dtype for t in op.outputs],
                      [t.shape for t in op.outputs]) if same else None,
        )
        op_map[id(op)] = new_op
        for old_out, new_out in zip(op.outputs, new_op.outputs):
            tensor_map[id(old_out)] = new_out
        if op.type == "Const":
            const_values[id(new_op.outputs[0])] = op.attrs["value"]
        if cse and is_pure:
            cse_table[(op.type, tuple(id(t) for t in new_inputs), attr_key)] = new_op

    return new_graph, {f: tensor_map[id(f)] for f in fetches}


def _is_zero_mask(op):
    """``op`` is ``Select(c, x, ZerosLike(x))`` over a known dtype."""
    if op.type != "Select":
        return False
    x, zeros = op.inputs[1:]
    return (zeros.op.type == "ZerosLike" and zeros.op.inputs[0] is x
            and not zeros.op.control_inputs
            and x.dtype.np_dtype is not None)


def has_opaque_attrs(op):
    """True if ``op`` carries subgraph/runtime-state attrs.

    Such ops (Cond, While, functional bodies) are opaque to value-level
    rewrites: neither :func:`optimize_graph` nor the runtime planner's
    constant pre-evaluation may fold or deduplicate them.
    """
    return any(k in op.attrs for k in _OPAQUE_ATTRS)
