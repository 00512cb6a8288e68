"""``trace_programs``: the cost of the *first* call.

One operation loads the next corpus program as fresh code (a conversion
cache miss), wraps it in ``repro.function`` and makes the cold first call:
AutoGraph conversion, tracing, ``optimize_graph`` and ``compile_plan`` do
all the work, and the function cache is on its miss path - the other side
of ``call_tiny``'s hit path, so a faster hit bought with a slower build
shows here.
"""

from __future__ import annotations

import itertools
import statistics

import repro
from repro import observe

from .. import ROOT, reference
from ..measure import Caller
from ..spans import SpanRecorder
from .base import Workload, load_fresh, require
from .graph_fn import cold_probe, plan_counts

__all__ = ["TracePrograms"]

CORPUS = sorted(
    p for p in (ROOT / "bench" / "programs").glob("*.py")
    if p.name != "__init__.py")


class TracePrograms(Workload):
    name = "trace_programs"
    #: Programs differ in cost, so every window holds whole passes over
    #: the corpus.
    cycle = len(CORPUS)

    def setup(self):
        # Seeded order, seeded inputs; the reference is the program run
        # define-by-run (or its own NumPy reference), never the tracer.
        order = [CORPUS[i] for i in self.rng.permutation(len(CORPUS))]
        self.cases = []
        for path in order:
            module = load_fresh(path)
            args = module.make_inputs(self.rng)
            if hasattr(module, "reference"):
                expected = module.reference(*args)
            else:
                expected = reference.eager_run(module.program, args)
            self.cases.append((path, args, expected))
        self._turn = itertools.cycle(range(len(self.cases)))
        first = self._cold_call(self._load())
        require(self.check(first), "first cold call differs from reference")
        require(not observe.enabled(), "repro.observe must be off")

    def _load(self):
        """Benchmark-side, untimed: the next program as fresh code."""
        index = next(self._turn)
        return index, load_fresh(self.cases[index][0]).program

    def _cold_call(self, loaded):
        index, program = loaded
        return index, repro.function(program)(*self.cases[index][1])

    def check(self, outcome):
        index, result = outcome
        return reference.allclose(reference.flat_arrays(result),
                                  self.cases[index][2])

    def callers(self):
        return [Caller(self._cold_call, self.check, prepare=self._load)]

    def traced_callers(self, spans):
        def load_twice():
            # to_graph and the first call each need code the conversion
            # cache has not seen.
            index = next(self._turn)
            path = self.cases[index][0]
            return index, iter([load_fresh(path).program,
                                load_fresh(path).program])

        def traced_op(loaded):
            index, programs = loaded
            _, result = cold_probe(spans, lambda: next(programs),
                                   self.cases[index][1])
            return index, result

        return [Caller(lambda loaded: spans.operation(
            lambda: traced_op(loaded)), self.check, prepare=load_twice)]

    def layers(self, spans, untraced, probes):
        """Corpus means of per-program medians (timings) and corpus sums
        (counts), from ``reps`` cold builds of every program."""
        reps = max(1, probes.slow // 4)
        stages = {
            "autograph.to_graph_ms": "autograph.to_graph",
            "function.first_call_ms": "function.first_call",
            "framework.graph.optimize_ms": "framework.graph.optimize_graph",
            "runtime.compile_plan_ms": "runtime.compile_plan",
        }
        per_program = {name: [] for name in stages}
        counts = {}
        traces = 0
        before = observe.counters()
        for path, args, _ in self.cases:
            local = SpanRecorder()
            for _ in range(reps):
                fn, _ = cold_probe(
                    local, lambda: load_fresh(path).program, args)
            for name, span in stages.items():
                per_program[name].append(local.p50(span))
            for name, value in plan_counts(
                    fn.concrete_functions()[0]).items():
                counts[name] = counts.get(name, 0) + value
            traces += fn.trace_count
        after = observe.counters()

        def per_pass(name):
            return (after.get(name, 0) - before.get(name, 0)) / reps

        metrics = {name: statistics.mean(values) * 1e3
                   for name, values in per_program.items()}
        # What is left of the first call once the measured stages are
        # taken out: tracing plus one execution.
        metrics["function.trace_ms"] = (
            metrics["function.first_call_ms"]
            - metrics["autograph.to_graph_ms"]
            - metrics["framework.graph.optimize_ms"]
            - metrics["runtime.compile_plan_ms"])
        metrics.update(counts)
        metrics["function.traces"] = traces
        metrics["function.cache_misses"] = per_pass("function.cache_misses")
        metrics["function.cache_hits"] = per_pass("function.cache_hits")
        metrics["runtime.fusion_fallbacks"] = per_pass(
            "runtime.fusion_fallbacks")
        return metrics
