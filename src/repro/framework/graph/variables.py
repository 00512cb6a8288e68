"""Variables: mutable state shared across session runs and eager code.

A ``Variable`` owns a :class:`VariableState` cell.  Reads and writes are
four stateful op types (``ReadVariable``, ``AssignVariable``,
``AssignAddVariable``, ``AssignSubVariable``) that name the cell through
their ``state`` attr, so the same variable works in eager mode (immediate
reads/writes) and in graph mode (read/assign nodes executed by the
session), and a graph keeps alive exactly the cells its ops mention.

What a read yields is tracked per graph (``Graph.variable_values``) so
that ``gradients()`` can treat a variable as a single leaf tensor.  In a
trace (any ``FuncGraph``) it is also ordering-aware: after a staged
assign, a read is the assign's output; after an assign inside one of the
trace's ``Cond`` / ``While`` sub-graphs, it is a fresh ``ReadVariable``
op, which runs after that sub-graph's op because stateful ops keep
program order.
"""

from __future__ import annotations

import numpy as np

from .. import context, dtypes
from ..errors import UninitializedVariableError
from ..registry import register_op
from ..shapes import TensorShape
from ..tensor_mixin import TensorOpsMixin
from .func_graph import FuncGraph

__all__ = ["Variable", "global_variables_initializer", "VariableState"]

_VAR_COUNTER = [0]


class VariableState:
    """The mutable storage cell behind a Variable."""

    __slots__ = ("value", "name", "dtype")

    def __init__(self, name, dtype):
        self.value = None
        self.name = name
        self.dtype = dtype

    def read(self):
        if self.value is None:
            raise UninitializedVariableError(
                f"Variable {self.name!r} was read before being initialized"
            )
        return self.value

    def write(self, value):
        self.value = np.asarray(value)
        return self.value

    def add(self, delta):
        # np.asarray: 0-d arithmetic yields numpy *scalars*, whose
        # identity is unstable under re-wrapping — the eager value cache
        # (and with it tape gradients w.r.t. scalar variables) needs the
        # stored value to be the one ndarray object it hands out.
        self.value = np.asarray(self.read() + np.asarray(delta))
        return self.value

    def sub(self, delta):
        self.value = np.asarray(self.read() - np.asarray(delta))
        return self.value


def _state_dtype(input_dtypes, attrs):
    return [attrs["state"].dtype]


register_op("ReadVariable", lambda state: state.read(),
            stateful=True, dtype_fn=_state_dtype)
register_op("AssignVariable", lambda value, state: state.write(value),
            stateful=True, dtype_fn=_state_dtype)
register_op("AssignAddVariable", lambda delta, state: state.add(delta),
            stateful=True, dtype_fn=_state_dtype)
register_op("AssignSubVariable", lambda delta, state: state.sub(delta),
            stateful=True, dtype_fn=_state_dtype)

# What a trace's ``variable_values`` holds for a variable that one of its
# Cond/While sub-graphs assigns: the next read there must be a live op.
_ASSIGNED_BELOW = object()


class Variable(TensorOpsMixin):
    """A mutable tensor-valued parameter."""

    def __init__(self, initial_value, name=None, dtype=None, trainable=True):
        _VAR_COUNTER[0] += 1
        self._name = name or f"Variable_{_VAR_COUNTER[0]}"
        from ..eager.tensor import EagerTensor

        if isinstance(initial_value, EagerTensor):
            initial_value = initial_value.numpy()
        init = np.asarray(initial_value)
        if dtype is not None:
            init = init.astype(dtypes.as_dtype(dtype).np_dtype)
        elif init.dtype == np.float64:
            init = init.astype(np.float32)
        self._dtype = dtypes.from_numpy(init.dtype)
        self._shape = TensorShape(init.shape)
        self._state = VariableState(self._name, self._dtype)
        self._initial_value = init
        self.trainable = trainable
        self._graph_initializers = {}
        self._eager_value_cache = None

        if context.executing_eagerly():
            self._state.write(init)
        else:
            g = context.get_default_graph()
            g.add_to_collection("variables", self)

    # -- metadata -------------------------------------------------------------

    @property
    def name(self):
        return self._name

    @property
    def dtype(self):
        return self._dtype

    @property
    def shape(self):
        return self._shape

    def numpy(self):
        return self._state.read()

    def read_hook(self):
        """The runtime's read-before-run hook: a zero-arg callable
        returning this variable's current value.

        Bound execution plans (``repro.runtime``) capture variables as
        runtime inputs and call this hook immediately before every run,
        so assignments between calls are visible with no retrace — while
        the per-call path skips the Python ``Variable`` wrapper (cache
        checks, EagerTensor re-wrapping) entirely.
        """
        return self._state.read

    # -- reads ------------------------------------------------------------------

    def value(self):
        """Current value: an EagerTensor (eager) or, in a graph, the
        tensor a read yields at this point of its construction."""
        from ..eager.tensor import EagerTensor

        if context.executing_eagerly():
            if (
                self._eager_value_cache is None
                or self._eager_value_cache.numpy() is not self._state.value
            ):
                self._eager_value_cache = EagerTensor(self._state.read())
            return self._eager_value_cache
        g = context.get_default_graph()
        cached = g.variable_values.get(self._state)
        if cached is None or cached is _ASSIGNED_BELOW:
            cached = g.variable_values[self._state] = self._stage_read(
                g, live=cached is _ASSIGNED_BELOW)
        return cached

    read_value = value

    def _stage_read(self, g, live):
        # A frozen trace (freeze_captures=True) can only bake variables
        # that already hold a value; variables *created during* that
        # trace are uninitialized until tracing ends, so they keep a
        # live read op instead.
        frozen_uninitialized = (
            g.freeze_captures and self._state.value is None)
        if g.capture_external and not live and not frozen_uninitialized:
            # Top-level trace graph: the read is an external capture —
            # a runtime input re-resolved (re-read by the runtime's
            # read-before-run hook) on every call — so assignments
            # between calls are visible with no retrace, and export
            # can either freeze or checkpoint it.  Frozen traces bake
            # the current value as a Const instead.
            return g.capture_variable(self)
        root = g
        while root.outer_graph is not None:
            root = root.outer_graph
        if root is not g:
            # A sub-graph reads live, per run / per turn, so no input of
            # the trace stands for the variable; this is how the trace's
            # consumers (the tape bridge, ``variables``) still learn
            # that a call depends on it.
            root.add_to_collection("subgraph_variable_reads", self)
        op = g.create_op("ReadVariable", [], {"state": self._state},
                         name=f"{self._name}/read")
        op.outputs[0].set_shape(self._shape)
        return op.outputs[0]

    # Allow variables to appear directly as op inputs: the dispatch layer
    # calls this to obtain a tensor.
    def _as_tensor(self):
        return self.value()

    def __array__(self, dtype=None):
        v = self._state.read()
        return v if dtype is None else v.astype(dtype)

    # -- writes ------------------------------------------------------------------

    def _apply(self, op_type, delta):
        from ..ops import dispatch

        result = dispatch.run_op(op_type, [delta], {"state": self._state})
        self._eager_value_cache = None
        g = context.get_default_graph() if context.has_default_graph() else None
        if isinstance(g, FuncGraph):
            # Later reads in this trace observe the write; every trace
            # this one is a sub-graph of must re-read after its op.
            g.variable_values[self._state] = result
            while isinstance(g.outer_graph, FuncGraph):
                g = g.outer_graph
                g.variable_values[self._state] = _ASSIGNED_BELOW
            # No input of the trace stands for an assigned variable
            # either; ``variables`` learns of it the way it learns of
            # sub-graph reads.
            g.add_to_collection("variable_assigns", self)
        return result

    def assign(self, value):
        """Set the variable; returns the new value tensor."""
        return self._apply("AssignVariable", value)

    def assign_add(self, delta):
        return self._apply("AssignAddVariable", delta)

    def assign_sub(self, delta):
        return self._apply("AssignSubVariable", delta)

    # -- graph initialization ------------------------------------------------------

    def initializer(self, graph):
        """Assign-op output initializing this variable in ``graph``."""
        cached = self._graph_initializers.get(id(graph))
        if cached is None:
            with graph.as_default():
                init_t = graph.constant(self._initial_value)
                op = graph.create_op(
                    "AssignVariable", [init_t], {"state": self._state},
                    name=f"{self._name}/init")
            cached = op.outputs[0]
            self._graph_initializers[id(graph)] = cached
        return cached

    def initialize(self):
        """Eagerly (re)initialize from the stored initial value."""
        self._state.write(self._initial_value)
        self._eager_value_cache = None

    def __repr__(self):
        return f"<Variable {self._name!r} shape={self._shape} dtype={self._dtype.name}>"


def global_variables_initializer(graph=None):
    """A fetchable op initializing every variable registered in ``graph``."""
    graph = graph or context.get_default_graph()
    inits = [v.initializer(graph) for v in graph.get_collection("variables")]
    with graph.as_default():
        op = graph.create_op("Group", inits, {}, name="init")
    return op.outputs[0]
