"""Workloads that call one ``@repro.function`` in a loop.

``call_tiny`` lives in the function layer (canonicalize, cache lookup,
output packing around a one-step plan); ``rnn_unrolled`` lives in
``repro.runtime`` (a ~515-step flat plan); ``rnn_staged`` is the same
model with the loop staged as one ``While`` op, whose body runs in
``framework.graph``'s sub-graph interpreter.  The per-layer probes are
shared: every public function a warm or cold call goes through is called
and timed from here.
"""

from __future__ import annotations

import itertools

import numpy as np

import repro
import repro.autograph as ag
from repro import nn, observe
from repro.framework import ops
from repro.framework.graph.optimize import count_ops, optimize_graph
from repro.function import signature as signature_lib
from repro.runtime import BoundPlan, compile_plan

from .. import models, reference
from ..measure import Caller, p50
from .base import MODELS, Workload, load_fresh, require

__all__ = ["CallTiny", "RnnUnrolled", "RnnStaged", "cold_probe",
           "plan_counts"]

#: Warm calls in the counted block (one cold call precedes them): the
#: expected cache counters are exactly ``1`` miss and this many hits.
COUNTED_CALLS = 50


def cold_probe(spans, make_program, args):
    """One cold pass over a function's build pipeline, every stage timed
    from outside on fresh code objects.

    ``make_program()`` must return a function whose code object AutoGraph
    has not seen.  Returns the built :class:`repro.Function` and the
    result of its first call.
    """
    spans.call("autograph.to_graph", ag.to_graph, make_program())
    fn = repro.function(make_program())
    result = spans.call("function.first_call", fn, *args)
    cf, = fn.concrete_functions()
    anchors = (cf.outputs + cf._state_fetches_traced + cf.inputs
               + [c.placeholder for c in cf.captures])
    spans.call("framework.graph.optimize_graph",
               optimize_graph, cf.graph, anchors)
    spans.call("runtime.compile_plan", compile_plan,
               cf.optimized_graph, cf._run_fetches, cf._runtime_feeds)
    return fn, result


def plan_counts(cf):
    """Exact sizes of a concrete function's graphs and bound plan."""
    plan = cf.engine_stats()["bound_plan"]
    return {
        "framework.graph.ops_traced": count_ops(cf.graph),
        "framework.graph.ops_optimized": count_ops(cf.optimized_graph),
        "runtime.plan_steps": plan["steps"],
        "runtime.plan_levels": plan["levels"],
        "runtime.plan_fused_steps": plan.get("fused_steps", 0),
        "runtime.plan_fused_ops": plan.get("fused_ops", 0),
    }


class GraphFunctionWorkload(Workload):
    """One ``repro.function`` called with fixed-shape seeded inputs."""

    def make_program(self, module):
        """The imperative function, built from ``module`` (``bench.models``
        or a fresh copy of it)."""
        raise NotImplementedError

    def make_inputs(self):
        """Set ``self.args`` (NumPy arrays) and whatever the program
        closes over, from ``self.rng``."""
        raise NotImplementedError

    def reference(self):
        """The expected flat outputs, by hand-written NumPy."""
        raise NotImplementedError

    def eager_call(self):
        """The same model define-by-run (the paper's "Eager" row)."""
        raise NotImplementedError

    # -- protocol ----------------------------------------------------------

    def setup(self):
        self.make_inputs()
        self.fn = repro.function(self.make_program(models))
        first = self.fn(*self.args)
        self.expected = self.reference()
        require(reference.allclose(reference.flat_arrays(first),
                                   self.expected),
                f"{self.name}: first call differs from the NumPy reference")
        require(not observe.enabled(), "repro.observe must be off")

    def check(self, result):
        return reference.allclose(reference.flat_arrays(result),
                                  self.expected)

    def callers(self):
        fn, args = self.fn, self.args
        return [Caller(lambda: fn(*args), self.check)]

    def traced_callers(self, spans):
        fn, args = self.fn, self.args
        py_signature = signature_lib.signature_of(fn.python_function)
        flat_args = list(args)

        def decomposed():
            spans.call("function.signature.canonicalize",
                       signature_lib.canonicalize, py_signature, args, {})
            cf = spans.call("function.get_concrete_function",
                            fn.get_concrete_function, *args)
            return spans.call("function.call_flat", cf.call_flat, flat_args)

        def whole():
            return spans.call("function.__call__", fn, *args)

        # Alternate: the decomposed sequence names the layers, the whole
        # call - timed under the same span bookkeeping - is what the
        # derived rows subtract them from.
        kinds = itertools.cycle((decomposed, whole))
        return [Caller(lambda: spans.operation(next(kinds)), self.check)]

    def layers(self, spans, untraced, probes):
        fn, args = self.fn, self.args
        cf = fn.get_concrete_function(*args)

        # -- warm path: the spans of the traced pass -----------------------
        canonicalize = spans.p50("function.signature.canonicalize")
        lookup = spans.p50("function.get_concrete_function")
        call_flat = spans.p50("function.call_flat")
        whole = spans.p50("function.__call__")

        # The engine alone, on a plan bound by the benchmark to the same
        # feed list ``call_flat`` binds.
        bound = BoundPlan(
            compile_plan(cf.optimized_graph, cf._run_fetches,
                         cf._runtime_feeds),
            cf._runtime_feeds)
        engine_args = list(args) + list(cf._resolved_captures())
        for _ in range(probes.fast):
            spans.call("runtime.execute_flat", bound.execute_flat,
                       engine_args)
        execute_flat = spans.p50("runtime.execute_flat")

        # -- cold path -----------------------------------------------------
        counters_before = observe.counters()
        for _ in range(probes.slow):
            counted, _ = cold_probe(
                spans, lambda: self.make_program(load_fresh(MODELS)), args)
        counters_cold = observe.counters()
        for _ in range(COUNTED_CALLS):
            counted(*args)
        counters_after = observe.counters()

        def delta(name, before, after):
            return after.get(name, 0) - before.get(name, 0)

        to_graph = spans.p50("autograph.to_graph")
        first_call = spans.p50("function.first_call")
        optimize = spans.p50("framework.graph.optimize_graph")
        compile_ms = spans.p50("runtime.compile_plan")

        # -- comparators ---------------------------------------------------
        warm = lambda: fn(*args)  # noqa: E731
        disabled = p50(warm, probes.fast)
        observe.enable()
        try:
            enabled = p50(warm, probes.fast)
        finally:
            observe.disable()
            observe.RECORDER.clear()

        metrics = {
            "autograph.to_graph_ms": to_graph * 1e3,
            "function.first_call_ms": first_call * 1e3,
            "function.trace_ms": (first_call - to_graph - optimize
                                  - compile_ms - untraced["raw_p50_s"]) * 1e3,
            "function.canonicalize_us": canonicalize * 1e6,
            "function.lookup_us": (lookup - canonicalize) * 1e6,
            "function.call_flat_us": call_flat * 1e6,
            "function.pack_us": (whole - lookup - call_flat) * 1e6,
            # Per cold build: one miss, then COUNTED_CALLS hits on the
            # last built function.
            "function.cache_misses": delta(
                "function.cache_misses", counters_before, counters_cold)
            / probes.slow,
            "function.cache_hits": delta(
                "function.cache_hits", counters_cold, counters_after),
            "function.traces": fn.trace_count,
            "framework.graph.optimize_ms": optimize * 1e3,
            "framework.eager.call_us": p50(self.eager_call,
                                           probes.slow) * 1e6,
            "framework.kernels.numpy_floor_us": p50(self.reference,
                                                    probes.fast) * 1e6,
            "runtime.compile_plan_ms": compile_ms * 1e3,
            "runtime.execute_flat_us": execute_flat * 1e6,
            "runtime.fusion_fallbacks": delta(
                "runtime.fusion_fallbacks", counters_before, counters_cold)
            / probes.slow,
            "observe.enabled_overhead_ratio": enabled / disabled,
        }
        metrics.update(plan_counts(cf))
        metrics["runtime.step_us"] = (
            execute_flat * 1e6 / metrics["runtime.plan_steps"])
        return metrics


class CallTiny(GraphFunctionWorkload):
    name = "call_tiny"

    def make_program(self, module):
        return module.tiny_matmul

    def make_inputs(self):
        x = self.rng.normal(size=(1, 1)).astype(np.float32)
        w = self.rng.normal(size=(1, 1)).astype(np.float32)
        self.args = (x, w)

    def reference(self):
        return [reference.numpy_matmul(*self.args)]

    def eager_call(self):
        x, w = self.args
        return models.tiny_matmul(ops.constant(x), ops.constant(w))


class _Rnn(GraphFunctionWorkload):
    HIDDEN = 96
    SEQ = 64
    BATCH = 32

    def make_inputs(self):
        rng = self.rng
        self.cell = nn.BasicRNNCell(self.HIDDEN, input_dim=self.HIDDEN,
                                    rng=rng)
        x = rng.normal(size=(self.BATCH, self.SEQ, self.HIDDEN))
        lengths = rng.integers(self.SEQ // 2, self.SEQ + 1, size=self.BATCH)
        # One full-length sequence, so the staged loop runs SEQ
        # iterations whatever the seed.
        lengths[0] = self.SEQ
        self.args = (x.astype(np.float32), lengths.astype(np.int32))
        self.w = self.cell.w.numpy()
        self.b = self.cell.b.numpy()

    def reference(self):
        return list(reference.numpy_rnn(self.w, self.b, *self.args))

    def eager_call(self):
        x, lengths = self.args
        program = models.make_rnn_unrolled(self.cell, self.BATCH, self.SEQ)
        return program(ops.constant(x), ops.constant(lengths))


class RnnUnrolled(_Rnn):
    name = "rnn_unrolled"

    def make_program(self, module):
        return module.make_rnn_unrolled(self.cell, self.BATCH, self.SEQ)


class RnnStaged(_Rnn):
    name = "rnn_staged"

    def make_program(self, module):
        return module.make_rnn_staged(self.cell, self.BATCH)

    def layers(self, spans, untraced, probes):
        metrics = super().layers(spans, untraced, probes)
        # Lengths of one: the same trace runs the While op for a single
        # iteration, so the difference is SEQ - 1 turns of the loop body.
        # (Zero iterations is not an option: stacking the empty list
        # fails in the library.)
        x, lengths = self.args
        single = np.ones_like(lengths)
        full = p50(lambda: self.fn(x, lengths), probes.slow)
        once = p50(lambda: self.fn(x, single), probes.slow)
        metrics["framework.graph.loop_iter_us"] = (
            (full - once) * 1e6 / (self.SEQ - 1))
        return metrics
