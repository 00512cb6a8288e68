"""Graph-mode reverse automatic differentiation.

``gradients(ys, xs)`` walks the graph backwards from ``ys`` and emits new
gradient ops into the same graph.  Combined with ``while_loop`` this is
what makes the paper's *in-graph training loop* (Table 2) possible: the
gradient ops are built once at staging time, inside the loop body's
FuncGraph, and then executed repeatedly without touching Python.
"""

from __future__ import annotations

from ..errors import StagingError
from .graph import Graph, Tensor

__all__ = ["gradients"]


def _reads_in_subgraph(op, states):
    """Whether a ``Cond`` / ``While`` sub-graph of ``op``, at any depth,
    reads one of the variables ``states``: a dependence on them that no
    input of ``op`` shows."""
    return any(
        isinstance(attr, Graph) and any(
            (sub.type == "ReadVariable" and sub.attrs["state"] in states)
            or _reads_in_subgraph(sub, states)
            for sub in attr.ops)
        for attr in op.attrs.values())


def gradients(ys, xs, grad_ys=None, name="gradients"):
    """Symbolic derivatives of ``sum(ys)`` with respect to ``xs``.

    Args:
      ys: tensor or list of tensors to differentiate.
      xs: tensor / Variable or list thereof to differentiate against.
      grad_ys: optional seed gradients, parallel to ``ys``.

    Returns:
      A list of gradient tensors parallel to ``xs`` (or a single tensor if
      ``xs`` was a single tensor); entries are None where there is no path.
    """
    from ..graph.variables import Variable
    from ..ops import array_ops, math_ops

    single_y = isinstance(ys, Tensor)
    ys = [ys] if single_y else list(ys)
    single_x = not isinstance(xs, (list, tuple))
    xs = [xs] if single_x else list(xs)

    graph = ys[0].graph
    for y in ys:
        if y.graph is not graph:
            raise StagingError("gradients: all ys must be in the same graph")

    x_tensors = []
    for x in xs:
        if isinstance(x, Variable):
            with graph.as_default():
                x = x.value()
        if not isinstance(x, Tensor):
            raise StagingError(f"gradients: invalid differentiation target {x!r}")
        x_tensors.append(x)

    # The variables among xs: given as such, read by an op, or (in a
    # top-level trace) standing behind a capture placeholder.
    reaches_x = set(id(t) for t in x_tensors)
    x_states = {x._state for x in xs if isinstance(x, Variable)}
    x_states.update(t.op.attrs["state"] for t in x_tensors
                    if t.op.type == "ReadVariable")
    x_states.update(c.source._state
                    for c in getattr(graph, "external_captures", ())
                    if c.kind == "variable" and id(c.placeholder) in reaches_x)

    # Forward reachability from xs, through data and through state.
    reads_x = set()
    for op in graph.ops:
        if x_states and _reads_in_subgraph(op, x_states):
            reads_x.add(id(op))
        if id(op) in reads_x or any(id(t) in reaches_x for t in op.inputs):
            for out in op.outputs:
                reaches_x.add(id(out))

    # Backward reachability from ys, restricted to the x-reaching region.
    needed_ops = []
    seen = set()
    stack = [y.op for y in ys]
    while stack:
        op = stack.pop()
        if id(op) in seen:
            continue
        seen.add(id(op))
        if not any(id(out) in reaches_x for out in op.outputs):
            continue
        needed_ops.append(op)
        for t in op.inputs:
            if id(t.op) not in seen:
                stack.append(t.op)

    order = {id(op): i for i, op in enumerate(graph.ops)}
    needed_ops.sort(key=lambda op: order[id(op)])

    grads = {}
    with graph.as_default(), graph.name_scope(name):
        if grad_ys is None:
            for y in ys:
                grads[id(y)] = array_ops.ones_like(y)
        else:
            grad_ys_list = [grad_ys] if isinstance(grad_ys, Tensor) else list(grad_ys)
            for y, gy in zip(ys, grad_ys_list):
                grads[id(y)] = gy

        for op in reversed(needed_ops):
            out_grads = [grads.get(id(out)) for out in op.outputs]
            if all(g is None for g in out_grads):
                continue
            if op.op_def.grad_fn is None:
                if id(op) in reads_x or any(
                        id(t) in reaches_x for t in op.inputs):
                    raise StagingError(
                        f"gradients: op {op.name!r} of type {op.type!r} on the "
                        "differentiation path has no registered gradient"
                    )
                continue
            filled = [
                g if g is not None else array_ops.zeros_like(out)
                for g, out in zip(out_grads, op.outputs)
            ]
            input_grads = op.op_def.grad_fn(op, *filled)
            if not isinstance(input_grads, (list, tuple)):
                input_grads = [input_grads]
            for inp, g in zip(op.inputs, input_grads):
                if g is None:
                    continue
                if id(inp) not in reaches_x:
                    continue
                existing = grads.get(id(inp))
                grads[id(inp)] = g if existing is None else math_ops.add(existing, g)

    results = [grads.get(id(x)) for x in x_tensors]
    return results[0] if single_x else results
