"""``ConcreteFunction``: one traced, optimized, executable graph.

A concrete function is the unit the signature cache stores: the result of
running the user's Python through AutoGraph *once* against placeholder
inputs, then freezing the outcome:

1. **trace** — tensor leaves of the canonical signature become
   placeholders in a :class:`~repro.framework.graph.func_graph.FuncGraph`
   and the converted function runs symbolically, staging its control flow
   and side effects into graph ops;
2. **optimize** — :func:`~repro.framework.graph.optimize.optimize_graph`
   (DCE / constant folding / CSE) runs at trace time, so every later call
   executes the already-optimized graph;
3. **execute** — the optimized graph compiles into one
   :class:`~repro.runtime.ExecutionPlan` whose feed tensors are bound to
   positional slots *at construction* (:class:`~repro.runtime.BoundPlan`);
   every call is then a plain ``execute_flat`` over pre-ordered values —
   no feed dict, no cache key, no per-call flattening — which is what
   amortizes staging cost across calls (the paper's Table-2 effect,
   without hand-wiring) and keeps per-call dispatch overhead minimal.

Stateful ops staged during the trace (variable assigns, staged prints)
are added to the run fetches even when no returned tensor depends on
them, so a traced training step really updates its variables.

Closed-over state — eager tensors and ``Variable`` reads — is recorded
as **captures**: runtime inputs resolved fresh (Variables re-read) on
every call, not constants baked at trace time.  An optimizer stepping a
captured variable is therefore visible to the next call with
``trace_count`` staying at 1, and :meth:`~ConcreteFunction.
set_capture_values` hot-swaps the weights atomically with zero retraces.
"""

from __future__ import annotations

import numpy as np

from ..framework import context, nest
from ..framework.eager import tape as tape_module
from ..framework.eager.tensor import EagerTensor
from ..framework.errors import FetchError, StagingError
from ..framework.graph.func_graph import FuncGraph, side_effect_fetches
from ..framework.graph.graph import Tensor
from ..framework.graph.optimize import optimize_graph
from ..framework.graph.variables import Variable
from ..runtime import BoundPlan, compile_plan
from .executable import BackendBuilder, CompiledExecutable, ExportError, \
    Traced, register_backend_builder

__all__ = ["ConcreteFunction", "trace_func_graph", "classify_outputs"]


def _convert_for_trace(python_function, autograph):
    import inspect
    import warnings

    from .. import autograph as ag

    if autograph and (inspect.isfunction(python_function)
                      or inspect.ismethod(python_function)):
        try:
            return ag.to_graph(python_function)
        except ag.ConversionError as e:
            # Trace unconverted: op dispatch still stages, but Python
            # control flow on tensors will raise with a clear message.
            warnings.warn(
                f"repro.function could not convert "
                f"{getattr(python_function, '__name__', python_function)!r} "
                f"with AutoGraph and will trace it unconverted. Cause: {e}",
                stacklevel=2,
            )
    return python_function


def trace_func_graph(python_function, canonical, name, autograph=True,
                     freeze_captures=False):
    """Run one AutoGraph trace of ``python_function`` into a FuncGraph.

    The tensor leaves of the canonical signature become placeholders; the
    converted function runs symbolically against them.  Shared by the
    graph backend (below) and the Lantern graph-translate route
    (:mod:`repro.function.lowering`).

    ``freeze_captures=True`` bakes closed-over state (eager tensors,
    initialized ``Variable`` reads) into the trace as constants instead
    of runtime-input captures — restoring trace-time constant folding
    across the weights, for closures that really are constant.

    Returns:
      ``(func_graph, placeholders, result)`` — the traced graph, its
      input placeholders, and the function's structured return value.
    """
    fg = FuncGraph(f"{name}_graph", outer_graph=None, capture_external=True,
                   freeze_captures=freeze_captures)
    converted = _convert_for_trace(python_function, autograph)
    with fg.as_default():
        placeholders = [
            fg.add_input(spec.dtype, spec.shape,
                         name=spec.name or f"arg_{i}")
            for i, spec in enumerate(canonical.specs)
        ]
        flat = list(canonical.flat_leaves)
        for idx, ph in zip(canonical.tensor_indices, placeholders):
            flat[idx] = ph
        call_args, call_kwargs = nest.pack_sequence_as(
            canonical.structure, flat)
        result = converted(*call_args, **call_kwargs)

    # Variables created during the trace get their initial value now,
    # so the session kernels (which read live state) can run.
    for v in fg.get_collection("variables"):
        v.initialize()
    return fg, placeholders, result


def classify_outputs(fg, result, name):
    """Split a traced return value into tensor outputs and constants.

    Returns:
      ``(output_template, tensor_outs)`` — the template is a flat list of
      ``("t", index)`` / ``("c", value)`` leaves matching
      ``nest.flatten(result)``; tensor_outs are the graph tensors.
    """
    flat_out = nest.flatten(result)
    tensor_outs = []
    output_template = []
    for leaf in flat_out:
        if isinstance(leaf, Variable):
            with fg.as_default():
                leaf = leaf.value()
        if isinstance(leaf, Tensor):
            if leaf.graph is not fg:
                raise StagingError(
                    f"Traced function {name!r} returned tensor "
                    f"{leaf.name!r} from a foreign graph"
                )
            output_template.append(("t", len(tensor_outs)))
            tensor_outs.append(leaf)
        else:
            output_template.append(("c", leaf))
    return output_template, tensor_outs


class CompiledGraph(CompiledExecutable):
    """The graph backend's compiled half: an optimized graph bound once
    to a runtime plan.

    The feed tensors — declared inputs, then one per capture — get
    positional plan slots at construction, so every call is a plain
    ``execute_flat``: no feed dict, no cache key, no per-call
    ``nest.flatten`` (the Table-2 dispatch overhead, engineered out).
    ``load`` builds this class from a deserialized graph;
    :class:`ConcreteFunction` builds it from a trace.
    """

    backend = "graph"
    #: Block-partitioned inputs exist only on the traced half.
    _blocked = False

    def __init__(self, name, input_specs, output_template, output_structure,
                 captures, graph, feeds, outputs, state_fetches=()):
        super().__init__(name, input_specs, output_template,
                         output_structure, captures)
        self.optimized_graph = graph
        self._runtime_feeds = list(feeds)
        self._n_inputs = len(self._runtime_feeds) - len(self._captures)
        self._feeds = self._runtime_feeds[:self._n_inputs]
        self._capture_feeds = self._runtime_feeds[self._n_inputs:]
        self._output_fetches = list(outputs)
        # Side effects must survive plan pruning: the stateful ops the
        # outputs do not reach are fetched too.
        self._run_fetches = self._output_fetches + list(state_fetches)
        self._n_outputs = len(self._output_fetches)
        self._bound = self._bind_plan()

    def _bind_plan(self):
        return BoundPlan(
            compile_plan(self.optimized_graph, self._run_fetches,
                         self._runtime_feeds),
            self._runtime_feeds)

    def call_flat(self, tensor_values):
        """Run the bound plan on flat tensor-leaf values (fast path)."""
        return self._run(tensor_values, self._resolved_captures())[0]

    def _run(self, tensor_values, capture_values):
        # The one argument check is the engine's (dtype cast, rank and
        # static dimensions); only the count is checked here, because
        # the plan's own count includes the captures.
        if len(tensor_values) != self._n_inputs:
            raise FetchError(
                f"{self.name!r} takes {self._n_inputs} argument(s), "
                f"got {len(tensor_values)}"
            )
        if self._blocked:
            args = self._expand_block_args(tensor_values)
        else:
            args = list(tensor_values)
        if capture_values:
            args.extend(capture_values)
        fetched = self._bound.execute_flat(args)
        tensor_outputs = tuple(
            EagerTensor(v) for v in fetched[:self._n_outputs])
        return self._pack_outputs(tensor_outputs), tensor_outputs

    def use_scheduler(self, scheduler):
        self._bound.scheduler = scheduler

    def engine_stats(self):
        """Bound-plan info for serving observability (one dict, cheap)."""
        return {"bound_plan": self._bound.describe()}

    def plan_describe(self):
        """The compiled plan's human-readable dump (steps, levels, fused
        groups, buffer-reuse arms) — see :meth:`ExecutionPlan.describe
        <repro.runtime.plan.ExecutionPlan.describe>`."""
        return self._bound.plan.describe()

    def _export_payload(self, freeze):
        from ..framework.graph.serialize import (
            GraphSerializationError, graph_to_def)

        capture_values = self._resolved_captures()
        # graph_to_def walks for stateful ops itself and raises with the
        # message _check_exportable would, so no pre-flight scan here.
        captures = []
        arrays = {}
        try:
            if freeze:
                graph_def, arrays = graph_to_def(
                    self.optimized_graph, self._feeds, self._output_fetches,
                    freeze_placeholders=dict(
                        zip(self._capture_feeds, capture_values)))
            else:
                for i, (entry, value) in enumerate(
                        zip(self._captures, capture_values)):
                    key = f"capture_{i}"
                    arrays[key] = value
                    captures.append({"name": entry.name, "key": key})
                graph_def, arrays = graph_to_def(
                    self.optimized_graph, self._runtime_feeds,
                    self._output_fetches, arrays=arrays)
        except GraphSerializationError as e:
            raise ExportError(str(e)) from e
        return {"graph_def": graph_def}, arrays, captures


class ConcreteFunction(Traced, CompiledGraph):
    """A single traced signature of a :class:`~repro.function.Function`:
    :class:`CompiledGraph` plus the traced half."""

    def __init__(self, python_function, canonical, name,
                 autograph=True, freeze_captures=False):
        if context.has_default_graph():
            raise StagingError(
                "Cannot trace a concrete function while a graph is being "
                "built")
        self._init_traced(python_function, canonical)
        self._backward = None

        # -- 1. trace -------------------------------------------------------
        fg, placeholders, result = trace_func_graph(
            python_function, canonical, name, autograph=autograph,
            freeze_captures=freeze_captures)
        output_template, tensor_outs = classify_outputs(fg, result, name)
        fg.flat_outputs = list(tensor_outs)
        self.graph = fg
        # External captures: eager tensors and Variable reads the trace
        # closed over, now runtime inputs resolved fresh on every call.
        captures = list(fg.external_captures)
        # Variables read at the top level of the trace: their capture
        # placeholders are extra differentiation targets for the tape
        # bridge, and their eager values join the recorded op's inputs.
        self._variable_reads = [
            (c.source, c.placeholder) for c in captures
            if c.kind == "variable"
        ]
        # Variables only ``Cond`` / ``While`` sub-graphs read (live, per
        # run): no placeholder stands for them, yet a call depends on
        # them — the tape must see them among the call's inputs so that
        # asking for their gradient raises instead of returning None.
        top_level = {id(v) for v, _ in self._variable_reads}
        self._subgraph_reads = list({
            id(v): v for v in fg.get_collection("subgraph_variable_reads")
            if id(v) not in top_level}.values())
        # Created, read (anywhere) or only assigned (anywhere).
        self._variables = list({id(v): v for v in (
            fg.get_collection("variables")
            + [v for v, _ in self._variable_reads] + self._subgraph_reads
            + fg.get_collection("variable_assigns"))}.values())
        self._state_fetches_traced = side_effect_fetches(fg, tensor_outs)

        # -- 2. optimize ----------------------------------------------------
        capture_phs = [c.placeholder for c in captures]
        opt_graph, fmap = optimize_graph(
            fg, tensor_outs + self._state_fetches_traced + placeholders
            + capture_phs)
        remap = fmap.__getitem__

        # -- 3. the bound execution plan -----------------------------------
        super().__init__(
            name, canonical.specs, output_template, result, captures,
            opt_graph, [remap(ph) for ph in placeholders + capture_phs],
            [remap(t) for t in tensor_outs],
            [remap(t) for t in self._state_fetches_traced])

    def _bind_plan(self):
        """Block-partitioned feeds: the trace staged dense ops against a
        dense placeholder; the whole optimized graph is lowered to
        per-block steps and compiled with one placeholder per block."""
        self._block_grids = {
            id(feed): spec.grid
            for feed, spec in zip(self._feeds, self._input_specs)
            if getattr(spec, "grid", None) is not None}
        self._blocked = bool(self._block_grids)
        self._dense_fallbacks = ()
        graph, fetches, feeds = (
            self.optimized_graph, self._run_fetches, self._runtime_feeds)
        if self._blocked:
            from ..blocks.lowering import lower_blocked_graph

            lowered = lower_blocked_graph(
                graph, feeds, fetches, self._block_grids)
            self._dense_fallbacks = lowered.fallbacks
            graph, fetches, feeds = (
                lowered.graph, list(lowered.fetches), list(lowered.feeds))
        return BoundPlan(compile_plan(graph, fetches, feeds), feeds)

    # -- introspection -------------------------------------------------------

    @property
    def inputs(self):
        """The traced input placeholders (one per tensor leaf)."""
        return list(self.graph.inputs)

    @property
    def outputs(self):
        """The traced output tensors."""
        return list(self.graph.flat_outputs)

    @property
    def variables(self):
        """Variables this trace created, reads or assigns — at the top
        level or inside ``Cond`` / ``While`` bodies — deduplicated."""
        return list(self._variables)

    def _check_exportable(self):
        from ..framework.graph import serialize as graph_serialize

        offending = graph_serialize.find_unexportable_ops(self.optimized_graph)
        if offending:
            raise ExportError(
                f"Concrete function {self.name!r} stages stateful ops "
                f"{offending}; exported signatures must be pure — variable "
                "reads are frozen, but assigns/random/prints cannot leave "
                "the process"
            )
        super()._check_exportable()

    def engine_stats(self):
        """A function with block-partitioned inputs adds a ``"blocked"``
        entry listing every op the lowering ran dense instead of
        per-block, as ``(op name, op type, reason)``."""
        stats = super().engine_stats()
        if self._blocked:
            stats["blocked"] = {
                "dense_fallbacks": list(self._dense_fallbacks)}
        return stats

    def plan_describe(self):
        """The plan's dump followed, for a blocked function, by one line
        per dense fallback."""
        return super().plan_describe() + "".join(
            f"\ndense fallback: {op_type} {name!r}: {reason}"
            for name, op_type, reason in self._dense_fallbacks)

    # -- execution -----------------------------------------------------------

    def _call_canonical(self, canonical):
        tape_active = bool(tape_module._TAPE_STACK)
        if tape_active and self._blocked:
            raise StagingError(
                f"Concrete function {self.name!r} has block-partitioned "
                "inputs; GradientTape cannot record through a blocked "
                "plan — compute per-shard gradients with "
                "repro.blocks.DataParallelTrainer instead"
            )
        # Capture the variables' eager values *before* running: the call
        # may assign them, and the tape watches the pre-call reads.
        var_inputs = (
            tuple(v.value() for v, _ in self._variable_reads)
            + tuple(v.value() for v in self._subgraph_reads)
            if tape_active else ()
        )
        capture_snapshot = self._resolved_captures()
        result, tensor_outputs = self._run(
            canonical.tensor_values(), capture_snapshot)
        if tape_active and tensor_outputs:
            # The record carries the exact capture snapshot this run fed
            # its plan, so the backward pass replays against the weights
            # the forward pass actually saw even if they swap in between.
            eager_inputs = tuple(
                leaf if isinstance(leaf, EagerTensor)
                else EagerTensor(np.asarray(leaf))
                for leaf in (canonical.flat_leaves[i]
                             for i in canonical.tensor_indices)
            ) + var_inputs
            self._record_on_tape(
                f"{self.name}_call",
                self._make_grad_fn(capture_snapshot), eager_inputs,
                tensor_outputs)
        return result

    def _expand_block_args(self, tensor_values):
        """Flatten ``BlockArray`` arguments into their per-block feeds
        (row-major), validating each against its traced grid."""
        from ..blocks.array import BlockArray

        args = []
        for spec, value in zip(self._input_specs, tensor_values):
            grid = getattr(spec, "grid", None)
            if grid is None:
                args.append(value)
                continue
            if not isinstance(value, BlockArray):
                raise StagingError(
                    f"Concrete function {self.name!r} expects a BlockArray "
                    f"for {spec!r}, got {type(value).__name__}"
                )
            if value.grid != grid:
                raise StagingError(
                    f"BlockArray grid {value.grid!r} does not match the "
                    f"traced {grid!r}; regrid the argument or retrace"
                )
            args.extend(value.block_list())
        return args

    # -- gradients ------------------------------------------------------------

    def _ensure_backward(self):
        """Stage d(outputs)/d(inputs) into the trace graph, once.

        The backward graph binds to the runtime engine exactly like the
        forward one: positional slots for (inputs, captures, seeds), one
        compile, ``execute_flat`` per tape replay.
        """
        if self._backward is not None:
            return self._backward
        from ..framework.graph.gradients import gradients as graph_gradients

        fg = self.graph
        seeds = [
            fg.placeholder(t.dtype, t.shape, name="grad_seed")
            for t in fg.flat_outputs
        ]
        # Differentiate with respect to the declared inputs, the capture
        # placeholders of variable reads and the variables only
        # sub-graphs read (None, or an error naming the Cond/While a
        # path crosses), in recorded-input order.
        targets = (list(fg.inputs) + [rt for _, rt in self._variable_reads]
                   + self._subgraph_reads)
        in_grads = graph_gradients(
            list(fg.flat_outputs), targets, grad_ys=seeds)
        live = [g for g in in_grads if g is not None]
        capture_phs = [c.placeholder for c in self._captures]
        anchors = live + list(fg.inputs) + seeds + capture_phs
        bw_graph, fmap = optimize_graph(fg, anchors)
        remap = fmap.__getitem__
        grad_ts = [None if g is None else remap(g) for g in in_grads]
        bw_feeds = ([remap(ph) for ph in fg.inputs]
                    + [remap(ph) for ph in capture_phs]
                    + [remap(s) for s in seeds])
        bound = BoundPlan(
            compile_plan(bw_graph, [g for g in grad_ts if g is not None],
                         bw_feeds),
            bw_feeds)
        self._backward = (bound, grad_ts, len(fg.inputs))
        return self._backward

    def _make_grad_fn(self, capture_snapshot):
        def grad_fn(record, *out_grads):
            bound, grad_ts, n_inputs = self._ensure_backward()
            # record.inputs = tensor leaves then variable pre-call
            # values; the leaves feed input placeholders.  Captures feed
            # the snapshot the forward run used (swaps rebind arrays, so
            # the snapshot is immutable), which keeps the backward pass
            # at the weights the forward pass actually saw even if an
            # optimizer stepped or hot-swapped them in between.
            args = [v.numpy() for v in record.inputs[:n_inputs]]
            args.extend(capture_snapshot)
            args.extend(
                g.numpy() if isinstance(g, EagerTensor) else g
                for g in out_grads)
            fetched = (iter(bound.execute_flat(args))
                       if any(g is not None for g in grad_ts) else iter(()))
            return [
                None if g is None else EagerTensor(next(fetched))
                for g in grad_ts
            ]

        return grad_fn

    def __repr__(self):
        return (f"<ConcreteFunction {self.name!r} inputs="
                f"{self._canonical.specs} ops={len(self.graph.ops)}"
                f" optimized_ops={len(self.optimized_graph.ops)}>")


CompiledGraph.call_flat.__ag_do_not_convert__ = True


class _GraphBackendBuilder(BackendBuilder):
    """The graph route: AutoGraph trace -> optimize -> bound runtime plan."""

    name = "graph"
    supports_relaxation = True

    def build(self, python_function, canonical, context_, name, *,
              autograph, freeze_captures=False):
        return ConcreteFunction(
            python_function, canonical, name,
            autograph=autograph, freeze_captures=freeze_captures)


register_backend_builder(_GraphBackendBuilder())
