"""Mode dispatch for the public ops API.

Every public op (``ops.add``, ``ops.matmul``, …) funnels through
:func:`run_op`, which decides *where* the computation happens:

- if a graph is currently being built (``Graph.as_default()``), the op is
  recorded as a node in that graph, capturing outer tensors as needed;
- otherwise the op executes eagerly, immediately, on NumPy values.

This is the same build-vs-run duality AutoGraph's dynamic dispatch rides
on: the *user's converted code* calls one API and the types/context decide
whether computation is staged.
"""

from __future__ import annotations

import numpy as np

from .. import context, dtypes
from ..eager.execute import execute_op
from ..eager.tensor import EagerTensor
from ..errors import GraphError
from ..graph.func_graph import FuncGraph
from ..graph.graph import Tensor

__all__ = ["run_op", "is_symbolic", "is_tensor", "as_graph_tensor",
           "convert_to_tensor", "register_staging_hook",
           "unregister_staging_hook", "NOT_HANDLED"]

# ---------------------------------------------------------------------------
# Alternate-backend staging hooks (paper §8).
#
# A hook is ``hook(op_type, inputs, attrs) -> result | NOT_HANDLED``.  An
# active alternate backend (the Lantern Stager) registers one so that
# *framework* ops called on its staged values emit backend IR instead of
# graph nodes / eager kernels — the op API stays backend-agnostic.
# ---------------------------------------------------------------------------

NOT_HANDLED = object()
_STAGING_HOOKS = []


def register_staging_hook(hook):
    """Register an op-level staging hook (consulted before any mode)."""
    if hook not in _STAGING_HOOKS:
        _STAGING_HOOKS.append(hook)


def unregister_staging_hook(hook):
    if hook in _STAGING_HOOKS:
        _STAGING_HOOKS.remove(hook)


def is_symbolic(value):
    """True for graph tensors."""
    return isinstance(value, Tensor)


def is_tensor(value):
    """True for any framework tensor (symbolic or eager) or Variable.

    This is the predicate the paper's Listing 2 dispatches on.
    """
    from ..graph.variables import Variable

    return isinstance(value, (Tensor, EagerTensor, Variable))


def as_graph_tensor(value, graph):
    """Coerce ``value`` to a tensor belonging to ``graph``.

    Symbolic tensors of ancestor graphs are captured (when ``graph`` is a
    FuncGraph); eager tensors become *external captures* (runtime inputs)
    in capture-enabled trace graphs and Const nodes everywhere else;
    other concrete values become Const nodes.
    """
    from ..graph.variables import Variable

    if isinstance(value, Tensor):
        if value.graph is graph:
            return value
        if isinstance(graph, FuncGraph):
            return graph.capture(value)
        raise GraphError(
            f"Tensor {value.name!r} belongs to a different graph and cannot be "
            "used here"
        )
    if isinstance(value, Variable):
        with graph.as_default():
            return value.value()
    if isinstance(value, EagerTensor):
        if graph.capture_external:
            return graph.capture_eager(value)
        return graph.constant(value.numpy())
    return graph.constant(value)


def convert_to_tensor(value, dtype=None):
    """Mode-aware tensor conversion (Const node or EagerTensor)."""
    from ..graph.variables import Variable

    if context.has_default_graph():
        g = context.get_default_graph()
        if isinstance(value, Tensor):
            return as_graph_tensor(value, g)
        if isinstance(value, Variable):
            return value.value()
        if dtype is not None and not isinstance(value, Tensor):
            if isinstance(value, EagerTensor):
                value = value.numpy()
            return g.constant(np.asarray(value, dtype=dtypes.as_dtype(dtype).np_dtype))
        return as_graph_tensor(value, g)
    if isinstance(value, Variable):
        return value.value()
    if isinstance(value, Tensor):
        raise GraphError(
            f"Symbolic tensor {value.name!r} used outside any graph context"
        )
    from ..eager.tensor import convert_to_eager_tensor

    return convert_to_eager_tensor(value, dtype=dtype)


def _is_convertible(value):
    return isinstance(value, (int, float, bool, np.ndarray, np.generic, list, tuple))


def run_op(op_type, inputs, attrs=None, name=None):
    """Build or execute ``op_type`` depending on the current mode."""
    attrs = attrs or {}
    if _STAGING_HOOKS:
        for hook in _STAGING_HOOKS:
            result = hook(op_type, inputs, attrs)
            if result is not NOT_HANDLED:
                return result

    if context.has_default_graph():
        graph = context.get_default_graph()
        converted = []
        for v in inputs:
            if isinstance(v, Tensor) and v.graph is graph:
                converted.append(v)
            else:
                converted.append(as_graph_tensor(_deref(v), graph))
        op = graph.create_op(op_type, converted, attrs, name=name)
        return op.outputs[0] if len(op.outputs) == 1 else op.outputs

    # Eager path.  Symbolic tensors leaking into eager execution is a
    # programming error (value not available).
    for v in inputs:
        if isinstance(v, Tensor):
            raise GraphError(
                f"Symbolic tensor {v.name!r} passed to eager execution of "
                f"{op_type!r}; wrap the call in `with graph.as_default():` or "
                "use Session.run"
            )
    inputs = [_deref(v) for v in inputs]
    return execute_op(op_type, inputs, attrs, name=name)


def _deref(value):
    from ..graph.variables import Variable

    if isinstance(value, Variable):
        return value.value()
    return value
