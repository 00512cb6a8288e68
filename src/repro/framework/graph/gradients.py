"""Reverse-mode automatic differentiation: the one walk, and ``gradients()``.

:func:`backprop` is the reverse-mode walk, written once.  It drives the
registry's ``grad_fn``\\ s over a list of ops in the order they ran —
a graph's ``Operation``\\ s or a ``GradientTape``'s ``OpRecord``\\ s —
and builds every gradient, zero-fill and fan-in sum with the public
dispatching ops.  So the same walk stages gradient ops into a graph
and runs them eagerly under a tape, and an outer tape records an inner
tape's walk (second order).

``gradients(ys, xs)`` is its graph front-end: it emits the gradient ops
into the graph of ``ys``.  Combined with ``while_loop`` this is what
makes the paper's *in-graph training loop* (Table 2) possible: the
gradient ops are built once at staging time, inside the loop body's
FuncGraph, and then executed repeatedly without touching Python.
"""

from __future__ import annotations

from ..errors import StagingError
from ..tensor_mixin import TensorOpsMixin
from .graph import Graph, Tensor

__all__ = ["backprop", "gradients"]


def backprop(ops, sources, grads, reads=(), where="gradients"):
    """Accumulate, into ``grads``, the gradients the seeds already in it
    send back through ``ops`` to the tensors computed from ``sources``.

    Args:
      ops: the ops that ran, in the order they ran; each has ``inputs``,
        ``outputs``, ``name``, ``type`` and ``op_def``.
      sources: the tensors to differentiate against.
      grads: ``{id(tensor): gradient}`` holding the seeds; updated in
        place.
      reads: ids of ops that depend on a source through state that no
        input shows.
      where: the entry point, named in errors.

    An op is on the path if one of its inputs is computed from a source
    or its id is in ``reads``.  The on-path ops are walked in reverse;
    one that no gradient reached is skipped, and one that a gradient
    reached but has no ``grad_fn`` raises.
    """
    from ..ops import array_ops, math_ops

    reaching = {id(s) for s in sources}
    path = []
    for op in ops:
        if id(op) in reads or any(id(t) in reaching for t in op.inputs):
            path.append(op)
            reaching.update(id(t) for t in op.outputs)

    for op in reversed(path):
        out_grads = [grads.get(id(t)) for t in op.outputs]
        if all(g is None for g in out_grads):
            continue
        if op.op_def.grad_fn is None:
            raise StagingError(
                f"{where}: op {op.name!r} of type {op.type!r} on the "
                "differentiation path has no registered gradient")
        # An opaque output (TensorArray state on a tape) gets no zeros.
        filled = [array_ops.zeros_like(t)
                  if g is None and isinstance(t, TensorOpsMixin) else g
                  for g, t in zip(out_grads, op.outputs)]
        in_grads = op.op_def.grad_fn(op, *filled)
        if not isinstance(in_grads, (list, tuple)):
            in_grads = [in_grads]
        for t, g in zip(op.inputs, in_grads):
            if g is not None and id(t) in reaching:
                prev = grads.get(id(t))
                grads[id(t)] = g if prev is None else math_ops.add(prev, g)
    return grads


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
    from ..ops import array_ops

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
    # top-level trace) standing behind a capture placeholder; the ops
    # whose sub-graphs read one depend on xs through state.
    x_ids = {id(t) for t in x_tensors}
    x_states = {x._state for x in xs if isinstance(x, Variable)}
    x_states.update(t.op.attrs["state"] for t in x_tensors
                    if t.op.type == "ReadVariable")
    x_states.update(c.source._state
                    for c in getattr(graph, "external_captures", ())
                    if c.kind == "variable" and id(c.placeholder) in x_ids)
    reads = {id(op) for op in graph.ops
             if _reads_in_subgraph(op, x_states)} if x_states else ()

    with graph.as_default(), graph.name_scope(name):
        if grad_ys is None:
            grads = {id(y): array_ops.ones_like(y) for y in ys}
        else:
            grad_ys = [grad_ys] if isinstance(grad_ys, Tensor) else grad_ys
            grads = {id(y): gy for y, gy in zip(ys, grad_ys)}
        backprop(graph.ops, x_tensors, grads, reads)

    results = [grads.get(id(x)) for x in x_tensors]
    return results[0] if single_x else results
