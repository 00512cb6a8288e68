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

import threading

import numpy as np

from .. import context, dtypes
from ..eager.execute import execute_op
from ..eager.tensor import EagerTensor
from ..errors import GraphError, UnstagedConstructError
from ..graph.func_graph import FuncGraph
from ..graph.graph import Tensor

__all__ = ["run_op", "as_graph_tensor",
           "convert_to_tensor", "StagingBackend", "register_backend",
           "unregister_backend", "backend_for", "NOT_HANDLED"]

# ---------------------------------------------------------------------------
# Staging backends (paper §8): the one seam through which a value decides
# where its computation is staged.  AutoGraph's operators ask
# ``backend_for`` about control flow, ``converted_call`` offers calls, and
# ``run_op`` below offers ops, so neither layer names a particular IR.
# ---------------------------------------------------------------------------

NOT_HANDLED = object()


class StagingBackend:
    """What a staging target implements; every method but ``matches`` is
    optional.  A construct the backend leaves out raises an
    :class:`UnstagedConstructError` naming the construct and the
    backend."""

    name = "staging"

    def _unsupported(self, construct):
        return UnstagedConstructError(construct, self.name)

    def matches(self, value):
        """True when ``value`` is one of this backend's staged values."""
        raise NotImplementedError

    def if_stmt(self, cond, body, orelse, symbol_names):
        """Stage ``if cond``; ``and`` / ``or`` / ternaries arrive here too."""
        raise self._unsupported("if")

    def while_stmt(self, test, body, init_state, symbol_names, opts):
        raise self._unsupported("while")

    def for_stmt(self, iter_, extra_test, body, init_state, symbol_names,
                 opts):
        raise self._unsupported("for")

    def not_(self, value):
        raise self._unsupported("not")

    def intercept_call(self, f, args, kwargs):
        """Stage the call ``f(*args, **kwargs)`` itself, or ``NOT_HANDLED``."""
        return NOT_HANDLED

    def run_op(self, op_type, inputs, attrs):
        """Stage a framework op on this backend's values, or ``NOT_HANDLED``."""
        return NOT_HANDLED


# Consulted in order; a registration goes in front, so the graph IR, which
# registers when AutoGraph's operators load, is asked last.
_BACKENDS = ()
# The registered backends that override ``run_op`` / ``intercept_call``:
# ``run_op`` and ``converted_call`` walk an empty tuple while the graph IR
# is the only registrant.
op_backends = ()
call_backends = ()
_registry_lock = threading.Lock()


def _set_backends(backends):
    global _BACKENDS, op_backends, call_backends

    def overriding(hook):
        default = getattr(StagingBackend, hook)
        return tuple(b for b in backends if getattr(type(b), hook) is not default)

    _BACKENDS = backends
    op_backends = overriding("run_op")
    call_backends = overriding("intercept_call")


def register_backend(backend):
    """Register a staging backend, ahead of those already registered."""
    with _registry_lock:
        if backend not in _BACKENDS:
            _set_backends((backend, *_BACKENDS))


def unregister_backend(backend):
    with _registry_lock:
        _set_backends(tuple(b for b in _BACKENDS if b is not backend))


def backend_for(*values):
    """The backend staging any of ``values``; None means plain Python."""
    for backend in _BACKENDS:
        for value in values:
            if backend.matches(value):
                return backend
    return None


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
    return graph.constant(dtypes.held_as_labelled(value))


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


def run_op(op_type, inputs, attrs=None, name=None):
    """Build or execute ``op_type`` depending on the current mode."""
    attrs = attrs or {}
    for backend in op_backends:
        result = backend.run_op(op_type, inputs, attrs)
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
