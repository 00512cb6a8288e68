"""Tracing Python callables into subgraphs with outer-tensor capture.

``FuncGraph`` is how functional control-flow ops (``cond``, ``while_loop``)
obtain their branch/body subgraphs: the Python callable runs once with
symbolic placeholders, and any outer-graph tensor it touches is
transparently *captured* (replaced by a placeholder recorded in
``captures``), becoming an extra runtime input of the enclosing op.

Top-level trace graphs (``capture_external=True``, set by the
``repro.function`` tracer) additionally capture *concrete* outside state
— eager tensors and ``Variable`` reads — as **external captures**:
internal placeholders recorded in an ordered list, deduplicated by
source identity, whose runtime values are resolved fresh on every call.
This is what makes a weight-carrying closure mutable without retracing:
the weights are runtime inputs of the compiled plan, not baked ``Const``
nodes.

Sub-graphs run on :mod:`repro.runtime` like every other graph:
:func:`execute_func_graph` compiles a ``FuncGraph`` once with
``compile_plan`` (fetches = flat outputs + the stateful ops they do not
reach, feeds = declared inputs + capture placeholders) and every branch
run / loop turn is one ``BoundPlan.execute_flat``.
"""

from __future__ import annotations

import numpy as np

from ...runtime import BoundPlan, compile_plan
from ..errors import GraphError
from .graph import Graph, Tensor

__all__ = ["ExternalCapture", "FuncGraph", "trace_into_func_graph",
           "side_effect_fetches", "execute_func_graph"]


class ExternalCapture:
    """One concrete value captured from outside a trace.

    Attributes:
      placeholder: the internal placeholder standing for the value.
      kind: ``"variable"`` (re-read on every resolve) or ``"tensor"``
        (an eager tensor snapshot).
      source: the captured ``Variable`` or ``EagerTensor``.
      name: a stable, capture-list-unique label (the variable's name, or
        ``capture_<i>`` for anonymous tensors) used by non-frozen export
        and weight hot-swapping.
    """

    __slots__ = ("placeholder", "kind", "source", "name")

    def __init__(self, placeholder, kind, source, name):
        self.placeholder = placeholder
        self.kind = kind
        self.source = source
        self.name = name

    def resolve(self):
        """The capture's *current* runtime value (ndarray)."""
        if self.kind == "variable":
            return self.source._state.read()
        return self.source.numpy()

    def write(self, value):
        """Make ``value`` (an ndarray of the placeholder's dtype) what
        :meth:`resolve` returns from now on.  Variables are assigned;
        an eager tensor's buffer is rebound, never written into, so a
        run (or a caller holding ``.numpy()``) that already read the
        old array keeps a consistent tensor."""
        if self.kind == "variable":
            self.source._state.write(value)
            self.source._eager_value_cache = None
        else:
            self.source._value = value

    def reader(self):
        """A zero-arg callable the runtime invokes *before each run* to
        re-resolve this capture — the read-before-run hook, pre-bound so
        the per-call path skips kind dispatch and wrapper attribute
        lookups."""
        if self.kind == "variable":
            return self.source.read_hook()
        return self.source.numpy

    def __repr__(self):
        return (f"<ExternalCapture {self.name!r} kind={self.kind} "
                f"dtype={self.placeholder.dtype.name} "
                f"shape={self.placeholder.shape}>")


class FuncGraph(Graph):
    """A graph produced by tracing a Python function."""

    def __init__(self, name, outer_graph, capture_external=False,
                 freeze_captures=False):
        super().__init__(name=name)
        self.outer_graph = outer_graph
        # Parallel lists: captures[i] is the outer tensor whose runtime
        # value feeds capture_placeholders[i].
        self.captures = []
        self.capture_placeholders = []
        # Whether concrete outside values (eager tensors, Variable reads)
        # become ExternalCaptures instead of baked Const nodes.  True only
        # for top-level trace graphs.
        self.capture_external = capture_external
        # With freeze_captures, concrete outside values are resolved *at
        # trace time* and baked as Const nodes — no runtime inputs, no
        # hot-swapping, but constant folding sees right through the
        # weights.  For closures that really are constant.
        self.freeze_captures = freeze_captures
        # Ordered ExternalCapture entries, deduplicated by source identity.
        self.external_captures = []
        self._external_capture_index = {}
        self._frozen_capture_index = {}
        # Declared inputs (loop variables / branch parameters).
        self.inputs = []
        # Flat output tensors, set when tracing finishes.
        self.flat_outputs = []
        # Structured outputs (the traced function's return value, with
        # placeholders substituted), kept for structure checks.
        self.structured_outputs = None
        # ``(BoundPlan, n_outputs)``, published by ``execute_func_graph``
        # on the first run; stale once ``version`` passes the plan's.
        self._plan = None

    def add_input(self, dtype, shape=None, name="arg"):
        ph = self.placeholder(dtype, shape=shape, name=name)
        self.inputs.append(ph)
        return ph

    def capture(self, tensor):
        """Make ``tensor`` (from an outer graph) available inside this graph."""
        if isinstance(tensor, Tensor):
            if tensor.graph is self:
                return tensor
            for existing, ph in zip(self.captures, self.capture_placeholders):
                if existing is tensor:
                    return ph
            outer = tensor
            if tensor.graph is not self.outer_graph:
                # Capture transitively through intermediate func graphs.
                if isinstance(self.outer_graph, FuncGraph):
                    outer = self.outer_graph.capture(tensor)
                elif tensor.graph is not self.outer_graph:
                    # Tensor from an unrelated graph: structural error.
                    raise GraphError(
                        f"Cannot capture {tensor.name!r}: its graph is not an "
                        f"ancestor of {self.name!r}"
                    )
            ph = self.placeholder(tensor.dtype, shape=tensor.shape, name="capture")
            self.captures.append(outer)
            self.capture_placeholders.append(ph)
            return ph
        raise GraphError(f"Cannot capture non-Tensor {tensor!r}")

    # -- external (concrete-value) captures ---------------------------------

    def _capture_concrete(self, source, kind, dtype, shape, name):
        if self.freeze_captures:
            cached = self._frozen_capture_index.get(id(source))
            if cached is not None:
                return cached[1]
            value = (source._state.read() if kind == "variable"
                     else source.numpy())
            const = self.constant(
                np.asarray(value), name=name or "frozen_capture")
            # The entry pins `source`: the index is keyed by id(), and a
            # source garbage-collected mid-trace could otherwise recycle
            # its id into a *different* object, handing that object this
            # stale baked constant.
            self._frozen_capture_index[id(source)] = (source, const)
            return const
        entry = self._external_capture_index.get(id(source))
        if entry is not None:
            return entry.placeholder
        taken = {e.name for e in self.external_captures}
        if name is None or name in taken:
            base = name or "capture"
            i = len(self.external_captures)
            name = f"{base}_{i}"
            while name in taken:
                i += 1
                name = f"{base}_{i}"
        ph = self.placeholder(dtype, shape=shape, name=name)
        entry = ExternalCapture(ph, kind, source, name)
        self.external_captures.append(entry)
        self._external_capture_index[id(source)] = entry
        return ph

    def capture_eager(self, tensor):
        """Capture an eager tensor as a runtime input (placeholder).

        The placeholder is fed ``tensor``'s value on every call, so
        in-place updates of the underlying array stay visible without a
        retrace.  Deduplicated by tensor identity.
        """
        return self._capture_concrete(
            tensor, "tensor", tensor.dtype, tensor.shape, name=None)

    def capture_variable(self, var):
        """Capture a ``Variable`` read as a runtime input (placeholder).

        The variable is *re-read* on every call, so assignments between
        calls (optimizer steps, weight hot-swaps) are visible to the
        compiled plan with no retrace.  Deduplicated by variable identity.
        """
        return self._capture_concrete(
            var, "variable", var.dtype, var.shape, name=var.name)


def trace_into_func_graph(fn, arg_specs, name, outer_graph):
    """Run ``fn`` symbolically, returning the populated FuncGraph.

    Args:
      fn: a Python callable taking ``len(arg_specs)`` tensors.
      arg_specs: list of ``(dtype, shape)`` for the declared inputs.
      name: graph name.
      outer_graph: the graph the resulting functional op will live in.

    Returns:
      The FuncGraph; ``structured_outputs`` holds ``fn``'s return value.
    """
    fg = FuncGraph(name, outer_graph)
    with fg.as_default():
        args = [fg.add_input(dt, shape=sh, name=f"arg{i}")
                for i, (dt, sh) in enumerate(arg_specs)]
        result = fn(*args)
    fg.structured_outputs = result
    return fg


def side_effect_fetches(graph, outputs):
    """One tensor per *stateful* op of ``graph`` that ``outputs`` do not
    already reach.

    Fetching these next to ``outputs`` is what lets plan compilation
    prune dead code built during tracing (e.g. unused gradient branches)
    while side effects — staged ``print``, asserts, variable assigns —
    still run on every call / loop turn without explicit control
    dependencies.
    """
    reached = set()
    stack = [t.op for t in outputs]
    while stack:
        op = stack.pop()
        if op in reached:
            continue
        reached.add(op)
        stack.extend(t.op for t in op.inputs)
        stack.extend(op.control_inputs)
    return [op.outputs[0] for op in graph.ops
            if op.op_def.stateful and op.outputs and op not in reached]


def _bind_plan(fg):
    """Compile ``fg`` through the runtime engine and publish the result.

    ``fg._plan`` is ONE record written in ONE store: a thread that sees
    it sees a complete plan, and two threads racing the first call each
    compile an equivalent plan (the last store wins, neither is torn).
    """
    outputs = list(fg.flat_outputs)
    feeds = list(fg.inputs) + list(fg.capture_placeholders)
    plan = compile_plan(fg, outputs + side_effect_fetches(fg, outputs), feeds)
    record = (BoundPlan(plan, feeds), len(outputs))
    fg._plan = record
    return record


def execute_func_graph(fg, input_values, capture_values):
    """Execute a traced subgraph with concrete values.

    The subgraph is an ordinary :mod:`repro.runtime` plan — constant
    pre-evaluation, fusion and buffer reuse included — compiled on the
    first call and recompiled if the graph has grown since.

    Args:
      fg: the FuncGraph.
      input_values: values for ``fg.inputs`` in order.
      capture_values: values for ``fg.capture_placeholders`` in order.

    Returns:
      Tuple of concrete values for ``fg.flat_outputs``.
    """
    record = fg._plan
    if record is None or record[0].graph_version != fg.version:
        record = _bind_plan(fg)
    bound, n_outputs = record
    return tuple(
        bound.execute_flat([*input_values, *capture_values])[:n_outputs])
