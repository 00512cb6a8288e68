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

import threading

import numpy as np

from ..framework import context, nest
from ..framework.eager import tape as tape_module
from ..framework.eager.tensor import EagerTensor
from ..framework.errors import StagingError
from ..framework.graph.func_graph import FuncGraph, side_effect_fetches
from ..framework.graph.graph import Tensor
from ..framework.graph.optimize import optimize_graph
from ..framework.graph.variables import Variable
from ..runtime import BoundPlan, compile_plan
from . import signature as signature_lib
from .executable import BackendBuilder, Executable, ExportError, ExportSpec, \
    register_backend_builder

__all__ = ["ConcreteFunction", "trace_concrete_function",
           "trace_func_graph", "classify_outputs"]


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


class ConcreteFunction(Executable):
    """A single traced signature of a :class:`~repro.function.Function`."""

    backend = "graph"

    def __init__(self, python_function, canonical, name,
                 autograph=True, freeze_captures=False, num_workers=None):
        self._python_function = python_function
        self._canonical = canonical
        self._py_signature = signature_lib.signature_of(python_function)
        self.name = name
        self._freeze_captures = freeze_captures
        self._num_workers = num_workers
        self._backward = None

        # -- 1. trace -------------------------------------------------------
        fg, placeholders, result = trace_func_graph(
            python_function, canonical, name, autograph=autograph,
            freeze_captures=freeze_captures)

        # -- classify structured outputs -----------------------------------
        self._output_template, tensor_outs = classify_outputs(
            fg, result, name)
        self._output_structure = result
        fg.flat_outputs = list(tensor_outs)
        self.graph = fg
        # External captures: eager tensors and Variable reads the trace
        # closed over, now runtime inputs resolved fresh on every call.
        self._captures = list(fg.external_captures)
        # Variables read at the top level of the trace: their capture
        # placeholders are extra differentiation targets for the tape
        # bridge, and their eager values join the recorded op's inputs.
        self._variable_reads = [
            (c.source, c.placeholder) for c in self._captures
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
        self._created_variables = list(fg.get_collection("variables"))

        # Side effects must survive plan pruning: fetch every stateful op
        # the returned tensors do not already reach.
        self._state_fetches_traced = side_effect_fetches(fg, tensor_outs)

        # -- 2. optimize ----------------------------------------------------
        capture_phs = [c.placeholder for c in self._captures]
        anchors = (tensor_outs + self._state_fetches_traced + placeholders
                   + capture_phs)
        opt_graph, fmap = optimize_graph(fg, anchors)
        remap = fmap.__getitem__
        self.optimized_graph = opt_graph

        # -- 3. the bound execution plan -------------------------------------
        self._feeds = [remap(ph) for ph in placeholders]
        self._capture_feeds = [remap(ph) for ph in capture_phs]
        # Guards capture reads/writes so a weight hot-swap is atomic with
        # respect to the snapshot one call feeds its plan execution.
        self._capture_lock = threading.Lock()
        # Pre-resolved per-capture readers: the runtime re-reads captured
        # state through these immediately before every execution
        # (Variables via their read-before-run hook) without touching the
        # Python wrapper objects on the hot path.
        self._capture_readers = tuple(c.reader() for c in self._captures)
        self._output_fetches = [remap(t) for t in tensor_outs]
        self._run_fetches = self._output_fetches + [
            remap(t) for t in self._state_fetches_traced
        ]
        # Bind ONCE: the feed tensors (declared inputs, then captures)
        # get positional plan slots at construction, so every call is a
        # plain `execute_flat` — no feed dict, no cache key, no per-call
        # nest.flatten (the Table-2 dispatch overhead, engineered out).
        self._runtime_feeds = self._feeds + self._capture_feeds
        # Block-partitioned feeds: the trace stages dense ops against a
        # dense placeholder, then the whole optimized graph is lowered
        # to per-block steps and compiled with one placeholder per block.
        self._block_grids = self._collect_block_grids()
        self._blocked = bool(self._block_grids)
        self._scheduler = self._make_scheduler(num_workers)
        self._dense_fallbacks = ()
        if self._blocked:
            from ..blocks.lowering import lower_blocked_graph

            lowered = lower_blocked_graph(
                opt_graph, self._runtime_feeds, self._run_fetches,
                self._block_grids)
            self._lowered_feeds = list(lowered.feeds)
            self._dense_fallbacks = lowered.fallbacks
            self._bound = BoundPlan(
                compile_plan(lowered.graph, list(lowered.fetches),
                             self._lowered_feeds),
                self._lowered_feeds, self._scheduler)
        else:
            self._bound = BoundPlan(
                compile_plan(opt_graph, self._run_fetches,
                             self._runtime_feeds),
                self._runtime_feeds, self._scheduler)
        self._n_outputs = len(self._output_fetches)

    def _collect_block_grids(self):
        """``{id(feed tensor): BlockGrid}`` for block-partitioned specs."""
        grids = {}
        for feed, spec in zip(self._feeds, self._canonical.specs):
            grid = getattr(spec, "grid", None)
            if grid is not None:
                grids[id(feed)] = grid
        return grids

    def _make_scheduler(self, num_workers):
        """The step scheduler: blocked functions default to one worker
        per core; dense functions stay serial unless asked."""
        if num_workers is None and not self._blocked:
            return None
        from ..blocks.scheduler import BlockScheduler

        scheduler = BlockScheduler(num_workers=num_workers)
        return scheduler if scheduler.parallel else None

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
    def structured_input_signature(self):
        return list(self._canonical.specs)

    @property
    def variables(self):
        """Variables this trace reads or created, deduplicated."""
        seen = set()
        out = []
        for v in (self._created_variables
                  + [v for v, _ in self._variable_reads]
                  + self._subgraph_reads):
            if id(v) not in seen:
                seen.add(id(v))
                out.append(v)
        return out

    # -- captures -------------------------------------------------------------

    @property
    def captures(self):
        """Ordered external captures (eager tensors / Variable reads)."""
        return list(self._captures)

    def capture_values(self):
        """Current capture values, by capture name."""
        with self._capture_lock:
            return {c.name: np.asarray(c.resolve()) for c in self._captures}

    def set_capture_values(self, mapping):
        """Atomically replace capture values (weight hot-swap, no retrace).

        Args:
          mapping: capture name -> array-like.  Variable captures are
            assigned; eager-tensor captures are updated in place (shapes
            must match).  Unknown names raise ``KeyError``.
        """
        by_name = {c.name: c for c in self._captures}
        staged = []
        for name, value in mapping.items():
            entry = by_name.get(name)
            if entry is None:
                raise KeyError(
                    f"{self.name!r} has no capture named {name!r}; "
                    f"captures: {sorted(by_name)}"
                )
            value = np.asarray(
                value, dtype=entry.placeholder.dtype.np_dtype)
            if not entry.placeholder.shape.is_compatible_with(value.shape):
                raise ValueError(
                    f"Capture {name!r} expects shape "
                    f"{entry.placeholder.shape}, got {value.shape}"
                )
            staged.append((entry, value))
        with self._capture_lock:
            for entry, value in staged:
                if entry.kind == "variable":
                    entry.source._state.write(value)
                    entry.source._eager_value_cache = None
                else:
                    # Rebind the eager tensor's buffer, don't write into
                    # it: an in-flight run (or a caller holding .numpy())
                    # keeps the consistent array it already read.
                    entry.source._value = value

    def _resolved_captures(self):
        if not self._capture_readers:
            return ()
        with self._capture_lock:
            return tuple(read() for read in self._capture_readers)

    # -- export ---------------------------------------------------------------

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
        self._export_output_parts()

    def export_spec(self, freeze=True):
        """Serialize this trace.

        ``freeze=True`` (default) bakes the capture placeholders' current
        values into the graph as constants — a self-contained artifact.
        ``freeze=False`` keeps them as named extra inputs and ships their
        current values as a separate weight checkpoint, so the loaded
        artifact's weights can be hot-swapped without retracing.
        """
        from ..framework.graph.serialize import (
            GraphSerializationError, graph_to_def)

        # No _check_exportable() here: graph_to_def performs the same
        # stateful-op walk itself and raises with an equivalent message,
        # so pre-flighting would just scan the graph twice per save.
        template, descriptor = self._export_output_parts()
        with self._capture_lock:
            values = [np.asarray(c.resolve()) for c in self._captures]
        captures = []
        arrays = {}
        try:
            if freeze:
                graph_def, arrays = graph_to_def(
                    self.optimized_graph, self._feeds, self._output_fetches,
                    freeze_placeholders=dict(
                        zip(self._capture_feeds, values)),
                )
            else:
                for i, (entry, value) in enumerate(
                        zip(self._captures, values)):
                    key = f"capture_{i}"
                    arrays[key] = value
                    captures.append({"name": entry.name, "key": key})
                graph_def, arrays = graph_to_def(
                    self.optimized_graph,
                    self._feeds + self._capture_feeds,
                    self._output_fetches, arrays=arrays,
                )
        except GraphSerializationError as e:
            raise ExportError(str(e)) from e
        return ExportSpec(
            backend="graph",
            name=self.name,
            input_specs=list(self._canonical.specs),
            output_template=template,
            output_descriptor=descriptor,
            payload={"graph_def": graph_def},
            arrays=arrays,
            captures=captures,
        )

    # -- execution -----------------------------------------------------------

    def __call__(self, *args, **kwargs):
        canonical = signature_lib.canonicalize(self._py_signature, args, kwargs)
        self._check_compatible(canonical)
        return self._call_canonical(canonical)

    def _check_compatible(self, canonical):
        """Reject calls whose *full* signature differs from the trace.

        Tensor leaves only need spec compatibility (the traced spec may
        be shape-relaxed), but constants, structure and identity-keyed
        objects were baked into this graph and must match exactly —
        otherwise a call would silently run the wrong specialization.
        """
        st_mine, tokens_mine = self._canonical.key
        st_theirs, tokens_theirs = canonical.key
        if st_mine != st_theirs or len(tokens_mine) != len(tokens_theirs):
            raise StagingError(
                f"Concrete function {self.name!r} was traced for a "
                "different argument structure"
            )
        for mine, theirs in zip(tokens_mine, tokens_theirs):
            if mine[0] == "T" and theirs[0] == "T":
                if not mine[1].is_compatible_with(theirs[1]):
                    raise StagingError(
                        f"Concrete function {self.name!r} expects "
                        f"{mine[1]}, got {theirs[1]}"
                    )
            elif mine != theirs:
                raise StagingError(
                    f"Concrete function {self.name!r} was specialized for "
                    f"argument {mine!r} but was called with {theirs!r}; "
                    "call the polymorphic Function to retrace"
                )

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

    def call_flat(self, tensor_values):
        """Run the bound plan on flat tensor-leaf values (fast path)."""
        result, _ = self._run(tensor_values, self._resolved_captures())
        return result

    def engine_stats(self):
        """Bound-plan info for serving observability (one dict, cheap).

        A function with block-partitioned inputs adds a ``"blocked"``
        entry listing every op the lowering ran dense instead of
        per-block, as ``(op name, op type, reason)``."""
        stats = {"bound_plan": self._bound.describe()}
        if self._blocked:
            stats["blocked"] = {
                "dense_fallbacks": list(self._dense_fallbacks)}
        return stats

    def plan_describe(self):
        """The compiled plan's human-readable dump (steps, levels, fused
        groups, buffer-reuse arms) — see :meth:`ExecutionPlan.describe
        <repro.runtime.plan.ExecutionPlan.describe>` — followed, for a
        blocked function, by one line per dense fallback."""
        return self._bound.plan.describe() + "".join(
            f"\ndense fallback: {op_type} {name!r}: {reason}"
            for name, op_type, reason in self._dense_fallbacks)

    def _expand_block_args(self, tensor_values):
        """Flatten ``BlockArray`` arguments into their per-block feeds
        (row-major), validating each against its traced grid."""
        from ..blocks.array import BlockArray

        args = []
        for spec, value in zip(self._canonical.specs, tensor_values):
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

    def _run(self, tensor_values, capture_values):
        # One atomic snapshot of the capture values per call: swaps
        # rebind arrays (never write into them), so a concurrent
        # hot-swap lands either wholly before or wholly after this
        # run, never half-way.
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


ConcreteFunction.__call__.__ag_do_not_convert__ = True
ConcreteFunction.call_flat.__ag_do_not_convert__ = True


def trace_concrete_function(python_function, canonical, name,
                            autograph=True, freeze_captures=False,
                            num_workers=None):
    """Trace ``python_function`` for one canonical signature."""
    if context.has_default_graph():
        raise StagingError(
            "Cannot trace a concrete function while a graph is being built"
        )
    return ConcreteFunction(
        python_function, canonical, name,
        autograph=autograph, freeze_captures=freeze_captures,
        num_workers=num_workers)


class _GraphBackendBuilder(BackendBuilder):
    """The graph route: AutoGraph trace -> optimize -> bound runtime plan."""

    name = "graph"
    supports_relaxation = True

    def build(self, python_function, canonical, context_, name, *,
              autograph, freeze_captures=False, num_workers=None):
        return trace_concrete_function(
            python_function, canonical, name,
            autograph=autograph, freeze_captures=freeze_captures,
            num_workers=num_workers)


register_backend_builder(_GraphBackendBuilder())
