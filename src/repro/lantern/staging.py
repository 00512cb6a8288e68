"""Staging functions into the Lantern IR: ``__def_staged``/``__call_staged``.

The paper's §8: to support recursive models, function *definition* and
*call* become staged operations.  :class:`Stager` traces an
AutoGraph-converted function once with staged arguments; recursive calls
are intercepted (via the converted_call hook) and emitted as IR call
instructions instead of being re-traced — which is what terminates the
trace of a recursive function.

The Stager is also the AutoGraph *backend* object (a ``StagingBackend``
registered while it is active): staged booleans route ``if`` statements
into ``emit_if``, demonstrating the backend-agnostic SCT front-end.
"""

from __future__ import annotations

import contextlib

from repro.autograph.operators.dispatch import (
    NOT_HANDLED,
    StagingBackend,
    register_backend,
    unregister_backend,
)

from .ir import Builder, FunctionDef, Program, StagedBool, StagedTensor, StagedTree, StagedValue

__all__ = ["Stager", "StagedArityError", "ReentrantStagingError"]

# A plain function re-entered this many times on staged arguments during
# one trace is declared re-entrant (recursive helper) and must be staged
# as its own IR function; inline tracing it would never terminate.
_REENTRANT_THRESHOLD = 32


class StagedArityError(ValueError):
    """A staged function returned a different number of values than
    declared.  ``actual`` lets callers re-stage with the right arity."""

    def __init__(self, name, declared, actual):
        super().__init__(
            f"{name} declared {declared} outputs but returned {actual}"
        )
        self.name = name
        self.declared = declared
        self.actual = actual


class ReentrantStagingError(RuntimeError):
    """Raised mid-trace when an unregistered helper re-enters itself on
    staged arguments (paper §8's re-entrant staged call).  The caller
    should register ``target`` with :meth:`Stager.def_staged` and retrace.

    Attributes:
      target: the original Python function that recursed.
      arg_kinds: staged parameter kinds observed at the re-entrant call.
    """

    def __init__(self, target, arg_kinds):
        super().__init__(
            f"{getattr(target, '__name__', target)!r} re-entered itself "
            "while being traced inline; it must be staged as an IR function"
        )
        self.target = target
        self.arg_kinds = arg_kinds


def _staged_kind(value):
    if isinstance(value, StagedTree):
        return "tree"
    if isinstance(value, StagedBool):
        return "bool"
    if isinstance(value, StagedTensor):
        return "tensor"
    return None


class Stager(StagingBackend):
    """Builds a Lantern :class:`Program` by tracing converted functions.

    Loops are not staged (the protocol's ``StagingError``): Lantern's
    distinguishing capability is recursion (§8), so a loop over staged
    values is written as a recursive function."""

    name = "Lantern"

    def __init__(self):
        self.program = Program()
        self.builder = Builder(self.program)
        # original python function -> FunctionDef (for recursion).
        self._staged_functions = {}
        # Re-entrancy discovery: inline-call entry counts per target.
        self._entry_counts = {}
        # Declared-but-untraced functions: target -> (fdef, params).
        self._pending_traces = {}

    # ------------------------------------------------------------------
    # The StagingBackend protocol
    # ------------------------------------------------------------------

    def matches(self, value):
        return isinstance(value, StagedValue) and value.builder is self.builder

    def if_stmt(self, cond, body, orelse, symbol_names):
        return self.builder.emit_if(cond, body, orelse, len(symbol_names))

    def not_(self, value):
        # Staged boolean negation: model as 1 - b via a dedicated emit; we
        # reuse the 'sub' op on the boolean symbol (compiler lowers bools
        # to Python bools, where (not b) is emitted directly).
        out = self.builder.fresh("nb")
        self.builder.current_block.instructions.append(
            ("op", out, "not", [value.sym])
        )
        return StagedBool(out, self.builder)

    def intercept_call(self, f, args, kwargs):
        """converted_call hook: emit IR calls for staged functions."""
        if kwargs:
            return NOT_HANDLED
        target = getattr(f, "__wrapped_original__", None) or getattr(
            f, "__ag_original__", None
        ) or f
        fdef = self._staged_functions.get(target)
        if fdef is None:
            self._note_inline_call(target, args)
            return NOT_HANDLED
        if not any(isinstance(a, StagedValue) for a in args):
            return NOT_HANDLED
        return self.builder.emit_call(fdef.name, list(args), fdef.n_outputs)

    def _note_inline_call(self, target, args):
        """Track unregistered helpers traced inline on staged arguments.

        A helper that keeps re-entering (recursion on a staged tree would
        otherwise inline forever) is reported via ReentrantStagingError so
        the caller can promote it to a staged IR function and retrace.
        """
        kinds = [_staged_kind(a) for a in args]
        if not any(kinds) or not callable(target):
            return
        # Only functions converted_call would inline-convert can loop the
        # trace: allowlisted modules (the lt.* ops, framework code) run
        # as ordinary Python and never re-enter on staged values.
        from repro.autograph.core.config import is_allowlisted_module

        if (getattr(target, "__code__", None) is None
                or getattr(target, "__ag_do_not_convert__", False)
                or is_allowlisted_module(getattr(target, "__module__", None))):
            return
        count = self._entry_counts.get(target, 0) + 1
        self._entry_counts[target] = count
        if count > _REENTRANT_THRESHOLD:
            if None in kinds:
                raise TypeError(
                    f"Re-entrant staged call to "
                    f"{getattr(target, '__name__', target)!r} mixes staged "
                    "and unstaged arguments; only tensors, trees and bools "
                    "can cross a staged Lantern call"
                )
            raise ReentrantStagingError(target, kinds)

    def run_op(self, op_type, inputs, attrs):
        """Stage ``ops.*`` calls on our values.

        Lets functions written against the *framework* op API (the graph
        backend's surface) stage into the Lantern IR unchanged — the §8
        backend-agnostic front-end claim at the op level.
        """
        if not any(self.matches(v) for v in inputs):
            return NOT_HANDLED
        from .lowering import lower_op_call

        return lower_op_call(self.builder, op_type, inputs, attrs)

    @contextlib.contextmanager
    def active(self):
        """Activate the backend: one registration covers control flow,
        call interception and framework ops."""
        register_backend(self)
        self._entry_counts = {}
        try:
            yield self
        finally:
            unregister_backend(self)

    # ------------------------------------------------------------------
    # Staged definition (paper's __def_staged / __call_staged)
    # ------------------------------------------------------------------

    def staged_arg(self, kind, name):
        """A staged function parameter of the given kind."""
        sym = self.builder.fresh(name)
        if kind == "tree":
            return StagedTree(sym, self.builder)
        if kind == "bool":
            return StagedBool(sym, self.builder)
        return StagedTensor(sym, self.builder)

    def def_staged(self, fn, arg_kinds, n_outputs=1, name=None):
        """Stage ``fn`` (to be AutoGraph-converted) into the program.

        Args:
          fn: the original Python function (it will be converted and traced).
          arg_kinds: list of 'tensor' | 'tree' | 'bool' parameter kinds.
          n_outputs: number of values the function returns.
          name: IR function name (defaults to fn's name).

        Returns:
          The FunctionDef.  Recursive calls inside ``fn`` (and calls from
          later-staged functions) emit IR ``call`` instructions.
        """
        target = getattr(fn, "__ag_original__", None) or fn
        if target in self._staged_functions:
            return self._staged_functions[target]
        fn_name = name or target.__name__
        params = [self.staged_arg(kind, f"a_{fn_name}_") for kind in arg_kinds]
        return self.stage_function(fn, params, list(params),
                                   n_outputs=n_outputs, name=name)

    def declare_staged(self, fn, arg_kinds, n_outputs=1, name=None):
        """Register ``fn``'s FunctionDef without tracing its body yet.

        Calls to a declared function intercept immediately, so a *set* of
        mutually recursive helpers can all be declared before any body is
        traced (:meth:`trace_declared`) — tracing one would otherwise
        inline the not-yet-registered others forever.
        """
        target = getattr(fn, "__ag_original__", None) or fn
        if target in self._staged_functions:
            return self._staged_functions[target]
        fn_name = name or target.__name__
        params = [self.staged_arg(kind, f"a_{fn_name}_") for kind in arg_kinds]
        fdef = FunctionDef(
            fn_name, [p.sym for p in params], list(arg_kinds), n_outputs
        )
        self._staged_functions[target] = fdef
        self.program.functions[fn_name] = fdef
        self._pending_traces[target] = (fdef, params)
        return fdef

    def trace_declared(self):
        """Trace the bodies of every declared-but-untraced function."""
        import repro.autograph as ag

        while self._pending_traces:
            target, (fdef, params) = next(iter(self._pending_traces.items()))
            del self._pending_traces[target]
            converted = ag.to_graph(target)
            self.builder.push_block(fdef.block)
            try:
                result = converted(*params)
            finally:
                self.builder.pop_block()
            self._finish_staged(fdef, result)

    def stage_function(self, fn, staged_params, call_args, call_kwargs=None,
                       n_outputs=1, name=None):
        """Stage ``fn`` with explicit parameters and call arguments.

        The general form of :meth:`def_staged`: ``staged_params`` become
        the IR function's parameters while ``call_args``/``call_kwargs``
        are what the converted function is actually traced with — staged
        params interleaved with concrete Python values (which specialize
        the trace, like graph-backend constants).

        Raises:
          StagedArityError: ``fn`` returned a different number of values
            than ``n_outputs`` declared (re-stage with ``.actual``).
        """
        import repro.autograph as ag

        target = getattr(fn, "__ag_original__", None) or fn
        fn_name = name or target.__name__
        fdef = FunctionDef(
            fn_name, [p.sym for p in staged_params],
            [_staged_kind(p) for p in staged_params], n_outputs
        )
        # Register *before* tracing so recursive calls are intercepted.
        self._staged_functions[target] = fdef
        self.program.functions[fn_name] = fdef

        converted = ag.to_graph(target)
        self.builder.push_block(fdef.block)
        try:
            result = converted(*call_args, **(call_kwargs or {}))
        finally:
            self.builder.pop_block()
        return self._finish_staged(fdef, result)

    def _finish_staged(self, fdef, result):
        """Arity-check a traced body's return value and wire the results."""
        if not isinstance(result, tuple):
            result = (result,)
        if len(result) != fdef.n_outputs:
            raise StagedArityError(fdef.name, fdef.n_outputs, len(result))
        staged_results = [self.builder.as_staged(_enter_block(self, fdef, r))
                          for r in result]
        fdef.block.result_syms = tuple(v.sym for v in staged_results)
        return fdef

    def call_staged(self, fn, *args):
        """Emit a call to a previously staged function (``__call_staged``)."""
        target = getattr(fn, "__ag_original__", None) or fn
        fdef = self._staged_functions.get(target)
        if fdef is None:
            raise KeyError(f"{fn!r} has not been staged with def_staged")
        return self.builder.emit_call(fdef.name, list(args), fdef.n_outputs)


def _enter_block(stager, fdef, value):
    """Coerce return leaves; constants must be emitted inside the block."""
    if isinstance(value, StagedValue):
        return value
    stager.builder.push_block(fdef.block)
    try:
        return stager.builder.as_staged(value)
    finally:
        stager.builder.pop_block()
