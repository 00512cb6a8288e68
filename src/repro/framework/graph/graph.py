"""The dataflow graph IR: ``Graph``, ``Operation`` and symbolic ``Tensor``.

This is the reproduction's stand-in for the TensorFlow GraphDef/Session
substrate the paper stages into.  A graph is a DAG of ``Operation`` nodes;
each operation references an :class:`~repro.framework.registry.OpDef`
kernel that the session binds into a compiled execution plan.

Key semantic properties preserved from TensorFlow (these matter to
AutoGraph's dynamic dispatch):

- Symbolic tensors raise on ``__bool__``: data-dependent Python ``if``
  statements on graph tensors fail loudly, which is exactly the usability
  problem AutoGraph solves (paper Section 3).
- ``==`` on tensors is identity, not a staged op (paper Section 7.2,
  "Tensor does not support all operators for compatibility reasons").
"""

from __future__ import annotations

import contextlib

import numpy as np

from .. import context, dtypes
from ..errors import GraphError
from ..registry import get_op_def
from ..shapes import TensorShape, unknown
from ..tensor_mixin import TensorOpsMixin

__all__ = ["Graph", "Operation", "Tensor"]


class Tensor(TensorOpsMixin):
    """A symbolic handle to one output of an :class:`Operation`."""

    __slots__ = ("op", "value_index", "_dtype", "_shape")

    def __init__(self, op, value_index, dtype, shape):
        self.op = op
        self.value_index = value_index
        self._dtype = dtypes.as_dtype(dtype)
        self._shape = TensorShape(shape) if not isinstance(shape, TensorShape) else shape

    @property
    def graph(self):
        return self.op.graph

    @property
    def dtype(self):
        return self._dtype

    @property
    def shape(self):
        return self._shape

    @property
    def name(self):
        return f"{self.op.name}:{self.value_index}"

    def set_shape(self, shape):
        """Refine the static shape (merging with what is already known)."""
        self._shape = self._shape.merge_with(shape)

    def __bool__(self):
        raise TypeError(
            "Using a symbolic Tensor as a Python bool is not allowed. "
            "A graph tensor has no value until the graph runs; use "
            "AutoGraph (ag.convert) to stage data-dependent control flow, "
            "or Session.run to obtain a concrete value."
        )

    def __iter__(self):
        raise TypeError(
            "Iterating over a symbolic Tensor is not allowed; use AutoGraph "
            "to stage the loop into the graph."
        )

    def __hash__(self):
        return id(self)

    def __eq__(self, other):
        return self is other

    def __ne__(self, other):
        return self is not other

    def __repr__(self):
        return f"<Tensor {self.name!r} shape={self._shape} dtype={self._dtype.name}>"


class Operation:
    """A node in the graph: an op type, inputs, attrs and output tensors."""

    __slots__ = ("graph", "name", "op_def", "inputs", "attrs", "outputs", "control_inputs")

    def __init__(self, graph, op_def, inputs, attrs, name, control_inputs=()):
        self.graph = graph
        self.op_def = op_def
        self.name = name
        self.inputs = tuple(inputs)
        self.attrs = dict(attrs)
        self.control_inputs = list(control_inputs)

        # Arity is fixed here, once: a variadic type is asked how many
        # outputs *this* use has; ``len(op.outputs)`` is the answer after.
        n = op_def.output_count(self.inputs, self.attrs)
        out_dtypes, out_shapes = self._infer_metadata(n)
        self.outputs = tuple(
            Tensor(self, i, out_dtypes[i], out_shapes[i]) for i in range(n)
        )

    @property
    def type(self):
        return self.op_def.name

    def get_attr(self, name, default=None):
        return self.attrs.get(name, default)

    def add_control_input(self, op):
        if op.graph is not self.graph:
            raise GraphError("Control input from a different graph")
        if op is not self and op not in self.control_inputs:
            self.control_inputs.append(op)
            self.graph._bump_version()

    def _infer_metadata(self, n):
        input_dtypes = [t.dtype for t in self.inputs]
        input_shapes = [t.shape for t in self.inputs]
        if self.op_def.dtype_fn is not None:
            try:
                out_dtypes = self.op_def.dtype_fn(input_dtypes, self.attrs)
            except Exception:
                out_dtypes = [dtypes.variant] * n
        else:
            # No rule, no promise: whatever the kernel returns at run time.
            out_dtypes = [dtypes.variant] * n
        if self.op_def.shape_fn is not None:
            try:
                out_shapes = self.op_def.shape_fn(input_shapes, self.attrs)
            except Exception:
                out_shapes = [unknown] * n
        else:
            out_shapes = [unknown] * n
        # Explicit overrides used by placeholder/const/functional ops.
        if "_dtype_override" in self.attrs:
            out_dtypes = list(self.attrs["_dtype_override"])
        if "_shape_override" in self.attrs:
            out_shapes = [
                s if isinstance(s, TensorShape) else TensorShape(s)
                for s in self.attrs["_shape_override"]
            ]
        return out_dtypes, out_shapes

    def __repr__(self):
        return f"<Operation {self.name!r} type={self.type}>"


class Graph:
    """A mutable dataflow graph under construction."""

    # What only a traced ``FuncGraph`` has or turns on.
    outer_graph = None
    capture_external = False
    freeze_captures = False

    def __init__(self, name="graph"):
        self.name = name
        self.ops = []
        self._names = {}
        self._scope_stack = []
        self._version = 0
        self.collections = {}
        # Constant-dedup cache: scalar/py constants are extremely common in
        # generated code; reusing Const nodes keeps plans small.
        self._const_cache = {}
        # VariableState -> the tensor a read of that variable yields at
        # this point of construction (see ``Variable.value``).
        self.variable_values = {}

    # -- context -----------------------------------------------------------

    @contextlib.contextmanager
    def as_default(self):
        context.push_graph(self)
        try:
            yield self
        finally:
            context.pop_graph(self)

    @contextlib.contextmanager
    def name_scope(self, name):
        """Hierarchical op naming, for graph readability (paper §7.2)."""
        self._scope_stack.append(str(name))
        try:
            yield "/".join(self._scope_stack)
        finally:
            self._scope_stack.pop()

    # -- versioning (invalidates compiled session plans) ---------------------

    @property
    def version(self):
        return self._version

    def _bump_version(self):
        self._version += 1

    # -- construction --------------------------------------------------------

    def unique_name(self, base):
        if self._scope_stack:
            base = "/".join(self._scope_stack) + "/" + base
        count = self._names.get(base)
        if count is None:
            self._names[base] = 1
            return base
        self._names[base] = count + 1
        return f"{base}_{count}"

    def create_op(self, op_type, inputs, attrs=None, name=None, control_inputs=()):
        """Add an operation to this graph.

        All tensor inputs must already belong to this graph (the dispatch
        layer handles conversion and capture before calling this).
        """
        op_def = get_op_def(op_type)
        for t in inputs:
            if not isinstance(t, Tensor):
                raise GraphError(
                    f"create_op inputs must be symbolic Tensors, got {type(t).__name__}"
                )
            if t.graph is not self:
                raise GraphError(
                    f"Input {t.name!r} belongs to a different graph; it must be "
                    "captured first"
                )
        op = Operation(
            self,
            op_def,
            inputs,
            attrs or {},
            self.unique_name(name or op_type),
            control_inputs=control_inputs,
        )
        self.ops.append(op)
        self._bump_version()
        return op

    def constant(self, value, dtype=None, name="Const"):
        """Create (or reuse) a Const op for ``value``."""
        if dtype is not None:
            np_value = np.asarray(value, dtype=dtypes.as_dtype(dtype).np_dtype)
        else:
            np_value = np.asarray(value)
            # Python literals default to the framework's narrow types
            # (float32/int32), like TF.
            if np_value.dtype == np.float64 and isinstance(value, (float, list, tuple)):
                np_value = np_value.astype(np.float32)
            elif np_value.dtype == np.int64 and isinstance(value, (int, bool, list, tuple)):
                np_value = np_value.astype(np.int32)
        key = None
        if np_value.ndim == 0 and not self._scope_stack:
            key = (np_value.dtype.str, np_value.item())
            cached = self._const_cache.get(key)
            if cached is not None:
                return cached
        op = self.create_op("Const", [], {"value": np_value}, name=name)
        out = op.outputs[0]
        if key is not None:
            self._const_cache[key] = out
        return out

    def placeholder(self, dtype, shape=None, name="Placeholder"):
        op = self.create_op(
            "Placeholder",
            [],
            {
                "_dtype_override": [dtypes.as_dtype(dtype)],
                "_shape_override": [TensorShape(shape)],
            },
            name=name,
        )
        return op.outputs[0]

    # -- collections ----------------------------------------------------------

    def add_to_collection(self, key, value):
        self.collections.setdefault(key, []).append(value)

    def get_collection(self, key):
        return list(self.collections.get(key, ()))

    # -- introspection ----------------------------------------------------------

    def get_operation_by_name(self, name):
        for op in self.ops:
            if op.name == name:
                return op
        raise KeyError(f"No op named {name!r} in graph")

    def __repr__(self):
        return f"<Graph {self.name!r} with {len(self.ops)} ops>"
