"""``repro.function``: the polymorphic tracing-JIT entry point.

``Function`` wraps a Python callable and manages a *signature-keyed cache
of concrete functions* (the design ``tf.function`` shipped around
AutoGraph):

- first call with a new input signature → trace through AutoGraph,
  optimize, compile — and remember the result;
- later calls with the same signature → execute the cached plan;
- tensor leaves key by ``TensorSpec`` (dtype/shape), Python values key by
  value (constant specialization), objects by identity;
- optional *shape relaxation*: after ``retrace_limit`` traces a
  shape-polymorphic workload stops minting one graph per shape and
  traces once with all dimensions unknown.

Inside an enclosing graph trace the wrapper inlines instead of caching,
so nested ``@repro.function`` compositions produce one flat graph.
"""

from __future__ import annotations

import functools
import threading
import warnings

from ..framework import context
from ..observe.events import RECORDER as _REC
from . import signature as signature_lib
from .concrete_function import ConcreteFunction

__all__ = ["Function", "function"]


_BACKENDS = ("graph", "lantern", "auto")

#: The traced-executable class of each backend name.  Lantern's joins on
#: the first Lantern resolution (:func:`_executable_class`): its IR,
#: compiler and staging stack stay unimported until a signature needs it.
_EXECUTABLE_CLASSES = {"graph": ConcreteFunction}


def _executable_class(backend):
    cls = _EXECUTABLE_CLASSES.get(backend)
    if cls is None:
        from .lowering import LanternConcreteFunction

        cls = _EXECUTABLE_CLASSES[backend] = LanternConcreteFunction
    return cls


class Function:
    """A callable managing one concrete function per input signature."""

    def __init__(self, python_function, name=None, autograph=True,
                 reduce_retracing=False, retrace_limit=8, backend="graph",
                 freeze_captures=False, num_workers=None):
        original = getattr(python_function, "__ag_original__", None)
        if original is not None:
            python_function = original
        if not callable(python_function):
            raise TypeError(
                f"repro.function requires a callable, got "
                f"{type(python_function).__name__}"
            )
        if backend not in _BACKENDS:
            raise ValueError(
                f"Unknown repro.function backend {backend!r}; expected one "
                f"of {_BACKENDS}"
            )
        self._python_function = python_function
        self._name = name or getattr(python_function, "__name__", "fn")
        self._autograph = autograph
        self._reduce_retracing = reduce_retracing
        self._retrace_limit = retrace_limit
        self._backend = backend
        self._freeze_captures = freeze_captures
        self._num_workers = num_workers
        # The one worker pool every trace steps its plan levels on
        # (created by the first signature that needs one).
        self._scheduler = None
        # Lazily computed static-recursion verdict (auto dispatch).
        self._recursive = None
        # (concrete-function name, backend, reason) per trace, newest last.
        self._backend_decisions = []

        self._py_signature = signature_lib.signature_of(python_function)
        self._cache = {}
        self._keepalive = []
        self._lock = threading.Lock()
        self._inline_converted = None
        functools.update_wrapper(self, python_function, updated=())

    # -- diagnostics -----------------------------------------------------------

    @property
    def python_function(self):
        return self._python_function

    @property
    def name(self):
        return self._name

    @property
    def trace_count(self):
        """How many times this function has been traced (cache misses)."""
        return len(self._cache)

    @property
    def cache_size(self):
        return len(self._cache)

    @property
    def backend(self):
        """The configured backend ('graph', 'lantern' or 'auto')."""
        return self._backend

    @property
    def backend_decisions(self):
        """Per-trace dispatch log: (concrete name, backend, reason)."""
        return list(self._backend_decisions)

    def concrete_functions(self):
        """All cached concrete functions, oldest first."""
        return list(self._cache.values())

    def pretty_cache(self, plans=False):
        """Human-readable view of the cached signatures: backend, specs,
        export eligibility and model-server registrations.

        ``plans=True`` additionally dumps each graph-backend trace's
        compiled execution plan (steps, levels, fused groups,
        buffer-reuse arms) — the "what did the planner actually
        compile?" view.
        """
        lines = []
        for cf in self._cache.values():
            specs = ", ".join(repr(s) for s in cf.structured_input_signature)
            ok, reason = cf.export_compatibility()
            export = "exportable" if ok else f"not exportable: {reason}"
            line = f"{cf.name}[{cf.backend}]({specs}) <{export}>"
            if cf.serving_names:
                line += f" serving={','.join(cf.serving_names)}"
            lines.append(line)
            if plans:
                lines.extend(
                    "  " + ln for ln in cf.plan_describe().splitlines())
        return "\n".join(lines)

    # -- backend dispatch ------------------------------------------------------

    def _resolve_backend(self, canonical):
        """Pick the backend for this signature (and say why)."""
        if self._backend != "auto":
            return self._backend, "configured"
        from . import lowering

        return lowering.choose_backend(
            self._python_function, canonical, recursive=self._is_recursive())

    def _scheduler_for(self, canonical):
        """The scheduler a trace of this signature runs on: blocked
        inputs default to one worker per core, dense ones stay serial
        (``None``) unless ``num_workers`` asked; one pool per function."""
        if self._num_workers is None and not any(
                getattr(spec, "grid", None) is not None
                for spec in canonical.specs):
            return None
        if self._scheduler is None:
            from ..blocks.scheduler import BlockScheduler

            self._scheduler = BlockScheduler(num_workers=self._num_workers)
        return self._scheduler if self._scheduler.parallel else None

    # -- the cache ------------------------------------------------------------

    def _lookup_or_build(self, canonical):
        """One cache, any backend: resolve, prepare the key, build once.

        Also the function layer's observability choke point: every call
        lands a ``function.cache_hits``/``function.cache_misses``
        counter, and — while the recorder is on — a span named
        ``cache_lookup`` (hit), ``trace`` (first build) or ``retrace``
        (subsequent build) tagged with the input signature key.
        """
        rec = _REC
        if not rec.enabled:
            n = len(self._cache)
            cf, canonical = self._lookup_or_build_inner(canonical)
            rec.counter("function.cache_hits" if len(self._cache) == n
                        else "function.cache_misses")
            return cf, canonical
        t0 = rec.begin()
        n = len(self._cache)
        cf, canonical = self._lookup_or_build_inner(canonical)
        built = len(self._cache) != n
        rec.counter("function.cache_misses" if built
                    else "function.cache_hits")
        name = ("retrace" if n else "trace") if built else "cache_lookup"
        rec.end(name, "function", t0, {
            "function": self._name,
            "signature": repr(canonical.key)[:200],
        })
        return cf, canonical

    def _lookup_or_build_inner(self, canonical):
        """The uninstrumented lookup/build path.

        Every backend goes through the same path: the resolved backend's
        executable class re-keys the signature (:meth:`~repro.function.
        executable.Traced.prepare`) and, on a miss, is built from it;
        the cache itself never special-cases a backend.
        """
        backend, reason = self._resolve_backend(canonical)
        cls = _executable_class(backend)
        canonical = cls.prepare(canonical)
        cf = self._cache.get(canonical.key)
        if cf is not None:
            return cf, canonical
        if cls.relaxes_shapes and self._reduce_retracing:
            cf = self._cache.get(canonical.relaxed_key)
            if cf is not None:
                return cf, canonical
        with self._lock:
            cf = self._cache.get(canonical.key)
            if cf is not None:
                return cf, canonical
            if cls.relaxes_shapes:
                if (self._reduce_retracing
                        and len(self._cache) >= self._retrace_limit):
                    # Too many shape-specialized traces: relax every tensor
                    # dimension so one generic graph absorbs future shapes.
                    canonical = canonical.relaxed()
                    cf = self._cache.get(canonical.key)
                    if cf is not None:
                        return cf, canonical
                if (not self._reduce_retracing
                        and len(self._cache) + 1 == self._retrace_limit):
                    warnings.warn(
                        f"repro.function {self._name!r} has been traced "
                        f"{self._retrace_limit} times. Frequent retracing is "
                        "expensive; pass varying Python scalars as tensors "
                        "(e.g. np.int32) or construct the Function with "
                        "reduce_retracing=True.",
                        stacklevel=3,
                    )
            cf = cls(
                self._python_function, canonical,
                f"{self._name}_{len(self._cache)}",
                autograph=self._autograph,
                freeze_captures=self._freeze_captures,
            )
            cf.use_scheduler(self._scheduler_for(canonical))
            self._cache[canonical.key] = cf
            # Identity-keyed leaves (Variables, model objects) must stay
            # alive while the cache entry exists, or their recycled ids
            # could alias a different object to this trace.
            self._keepalive.extend(canonical.keepalive)
            self._backend_decisions.append((cf.name, cls.backend, reason))
            return cf, canonical

    # -- calling ---------------------------------------------------------------

    def _is_recursive(self):
        if self._recursive is None:
            from . import lowering

            self._recursive = lowering.detect_self_recursion(
                self._python_function)
        return self._recursive

    def __call__(self, *args, **kwargs):
        if context.has_default_graph():
            # Lantern-bound functions cannot inline into a graph trace —
            # including auto-dispatched recursive ones, which would
            # otherwise unroll against a symbolic condition forever.
            if self._backend == "lantern" or (
                    self._backend == "auto" and self._is_recursive()):
                from ..framework.errors import StagingError

                raise StagingError(
                    f"repro.function {self._name!r} targets the Lantern "
                    "backend (recursion stages as re-entrant IR calls) and "
                    "cannot be inlined into an enclosing graph trace; call "
                    "it outside the graph or use backend='graph'"
                )
            return self._inline_symbolic(args, kwargs)
        canonical = signature_lib.canonicalize(self._py_signature, args, kwargs)
        cf, canonical = self._lookup_or_build(canonical)
        return cf._call_canonical(canonical)

    def _inline_symbolic(self, args, kwargs):
        """Inside an outer trace: stage into the enclosing graph directly."""
        import inspect

        if self._inline_converted is None:
            fn = self._python_function
            if self._autograph and (inspect.isfunction(fn)
                                    or inspect.ismethod(fn)):
                from .. import autograph as ag

                fn = ag.to_graph(fn)
            self._inline_converted = fn
        return self._inline_converted(*args, **kwargs)

    def get_concrete_function(self, *args, **kwargs):
        """The :class:`~repro.function.Executable` for these arguments.

        Resolves the backend exactly like a call would (``'graph'``,
        ``'lantern'``, or whatever ``'auto'`` picks for this signature)
        and returns the cached-or-freshly-built executable for *that*
        backend — a graph-backend :class:`~repro.function.ConcreteFunction`
        or a :class:`~repro.function.LanternConcreteFunction`; both implement
        the backend-neutral ``Executable`` protocol (``signature``,
        ``call_flat``, ``variables``, ``export_spec``), so the result
        can be exported with :func:`repro.serving.saved_function.save`
        or served by :class:`repro.serving.ModelServer` either way.

        Arguments may be concrete values or bare
        :class:`~repro.function.TensorSpec`s.
        """
        canonical = signature_lib.canonicalize(self._py_signature, args, kwargs)
        cf, _ = self._lookup_or_build(canonical)
        return cf

    # -- decorator plumbing ----------------------------------------------------

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        return functools.partial(self.__call__, instance)

    def __repr__(self):
        return (f"<repro.function.Function {self._name!r} "
                f"traces={self.trace_count}>")


# The JIT machinery itself must never be source-converted when a Function
# is invoked from inside AutoGraph-generated code.
Function.__call__.__ag_do_not_convert__ = True
Function._inline_symbolic.__ag_do_not_convert__ = True
Function.get_concrete_function.__ag_do_not_convert__ = True


def function(func=None, *, name=None, autograph=True,
             reduce_retracing=False, retrace_limit=8, backend="graph",
             freeze_captures=False, num_workers=None):
    """Decorate ``func`` as a traced, cached graph function.

    Usable bare (``@repro.function``), with options
    (``@repro.function(reduce_retracing=True)``), or inline
    (``fast = repro.function(step)``).

    Args:
      func: the Python function to stage.
      name: optional display name for traces and diagnostics.
      autograph: convert ``func`` (and its call tree) with AutoGraph so
        data-dependent Python control flow stages into the graph.
      reduce_retracing: after ``retrace_limit`` traces, relax tensor
        shapes instead of minting one graph per shape.
      retrace_limit: trace budget before relaxing (or warning).
      backend: ``'graph'`` (trace → optimized graph → bound runtime
        plan), ``'lantern'`` (staged by a Lantern ``Stager`` → §8
        S-expression IR → compiled code with CPS gradients; supports
        recursion and runtime trees), or ``'auto'`` (recursion or tree arguments pick lantern,
        anything else picks graph).
      freeze_captures: bake closed-over state (eager tensors,
        ``Variable`` reads) into each trace as *constants* instead of
        runtime-input captures.  Restores trace-time constant folding
        across the weights — for closures that really are constant; a
        frozen trace does not see later assignments or hot-swaps, and
        tape gradients do not flow to the frozen state.
      num_workers: worker-thread count for level-parallel plan execution
        (``repro.blocks``).  Functions with ``BlockArray`` inputs default
        to one worker per core; dense functions stay serial unless this
        is set.  ``1`` forces serial execution.

    Returns:
      A :class:`Function`, or a decorator when called with options only.
    """
    options = dict(
        name=name, autograph=autograph, reduce_retracing=reduce_retracing,
        retrace_limit=retrace_limit, backend=backend,
        freeze_captures=freeze_captures, num_workers=num_workers)
    if func is None:
        return functools.partial(function, **options)
    return Function(func, **options)
