"""Staging functions into the Lantern IR: ``__def_staged``/``__call_staged``.

The paper's §8: to support recursive models, function *definition* and
*call* become staged operations.  :class:`Stager` traces an
AutoGraph-converted function once with staged arguments; recursive calls
are intercepted (via the converted_call hook) and emitted as IR call
instructions instead of being re-traced — which is what terminates the
trace of a recursive function.

The Stager is also the AutoGraph *backend* object (a ``StagingBackend``
registered while it is active): staged booleans route ``if`` statements
(and framework ``ops.cond``) into ``emit_if``, and framework ops on
staged values emit IR instructions — the backend-agnostic SCT front-end.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from repro.framework import context
from repro.framework.eager.tensor import EagerTensor
from repro.framework.graph import variables as variables_lib
from repro.framework.graph.func_graph import capture_name
from repro.framework.ops.dispatch import (
    NOT_HANDLED,
    StagingBackend,
    register_backend,
    unregister_backend,
)

from .ir import (
    Builder, FunctionDef, Param, Program, StagedBool, StagedTensor,
    StagedTree, StagedValue, live, op_def_or_none)
from .lowering import LanternLoweringError, lower_op_call

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


def _original(fn):
    """The user's function behind ``fn`` (its AutoGraph conversion, or an
    ``@convert`` wrapper): what staged functions are keyed by."""
    return (getattr(fn, "__wrapped_original__", None)
            or getattr(fn, "__ag_original__", None) or fn)


def _staged_kind(value):
    if isinstance(value, StagedTree):
        return "tree"
    if isinstance(value, StagedBool):
        return "bool"
    if isinstance(value, StagedTensor):
        return "tensor"
    return None


class Stager(StagingBackend):
    """Builds a Lantern :class:`Program` by tracing converted functions;
    every ``backend="lantern"`` signature of ``repro.function`` is staged
    by one.  While it is active, framework ops on staged values emit IR
    (ops on concrete values run eagerly: trace-time constants), outside
    state is captured (:meth:`capture`), and what the IR cannot hold —
    stateful ops, Variables created in the trace, boolean operands — is
    refused with a :class:`LanternLoweringError`.

    Loops are not staged (the protocol's ``UnstagedConstructError``):
    Lantern's distinguishing capability is recursion (§8), so a loop
    over staged values is written as a recursive function."""

    name = "Lantern"

    def __init__(self, freeze_captures=False):
        self.program = Program()
        self.builder = Builder(self.program)
        self.builder.external = self.capture
        self.freeze_captures = freeze_captures
        # Closed-over state staged as Params, by source identity:
        # id(source) -> (source, kind, Param named as the capture).
        self.captures = {}
        # Eager tensors numbered from here on are made by the trace
        # itself (constants, or live reads of a Variable), not closed
        # over.
        self._first_traced_tensor = EagerTensor._next_id
        # Set by active(): the tracing thread (registration is process
        # wide) and its count of Variables made (one made in the trace is
        # refused).
        self._thread = self._variables_before = None
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
        # Staged boolean negation: the compiler lowers bools to Python
        # bools, where (not b) is emitted directly.
        live(value)
        out = self.builder.fresh("nb")
        self.builder.current_block.instructions.append(
            ("op", out, "not", [value.sym])
        )
        return StagedBool(out, self.builder)

    def intercept_call(self, f, args, kwargs):
        """converted_call hook: emit IR calls for staged functions."""
        if kwargs:
            return NOT_HANDLED
        target = _original(f)
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
        backend-agnostic front-end claim at the op level.  A stateful op
        the trace runs is refused whether or not it reads a staged value:
        run at trace time, its effect would happen once instead of per
        call.  Another thread's ops on unstaged values are not the
        trace's and run as usual.
        """
        staged = any(self.matches(v) for v in inputs)
        if not staged and (threading.get_ident() != self._thread
                           or not context.executing_eagerly()):
            return NOT_HANDLED
        op_def = op_def_or_none(op_type)
        if op_def is not None and op_def.stateful:
            raise LanternLoweringError(
                f"stateful op {op_type!r}: the Lantern backend is "
                "purely functional — use backend='graph'",
                op_name=op_type, reason="stateful op")
        if not staged:
            return NOT_HANDLED
        return lower_op_call(self.builder, op_type, inputs, attrs)

    def capture(self, value):
        """Stage a concrete value from outside the IR, or return None.

        A ``Variable`` (or an eager read of one the trace made) and an
        eager tensor made before this Stager are *captures*: a read of a
        Param over the value's storage, one per source, named as a graph
        trace names its captures (the variable's name, ``capture_<i>``);
        with ``freeze_captures`` they are constants instead.  A read made
        before the trace is a snapshot, as eager code and the graph
        backend see it; any other eager tensor the trace made is a
        constant.
        """
        if (isinstance(value, variables_lib.VariableRead)
                and value.id >= self._first_traced_tensor
                and value.variable is not None):
            value = value.variable
        if isinstance(value, variables_lib.Variable):
            kind, array = "variable", value.numpy()
        elif isinstance(value, EagerTensor):
            kind, array = "tensor", value.numpy()
        else:
            return None
        if array.dtype == np.bool_:
            raise LanternLoweringError(
                f"{value!r} is boolean; Lantern computes in float32, which "
                "has no booleans", reason="boolean")
        if (self.freeze_captures or (
                kind == "tensor" and value.id >= self._first_traced_tensor)):
            return self.builder.emit_const(array)
        if id(value) not in self.captures:
            name = capture_name(value.name if kind == "variable" else None,
                                {p.name for _, _, p in self.captures.values()})
            self.captures[id(value)] = (value, kind, Param(name, array))
        return self.builder.emit_param(self.captures[id(value)][2])

    @contextlib.contextmanager
    def active(self):
        """Activate the backend on this thread: one registration covers
        control flow, call interception and framework ops, and the
        thread's Variable reads stay distinct from those made before."""
        self._thread = threading.get_ident()
        self._variables_before = variables_lib.THIS_THREAD.created
        self._entry_counts = {}
        variables_lib.THIS_THREAD.distinct_reads += 1
        register_backend(self)
        try:
            yield self
        finally:
            unregister_backend(self)
            variables_lib.THIS_THREAD.distinct_reads -= 1

    # ------------------------------------------------------------------
    # Staged definition (paper's __def_staged / __call_staged)
    # ------------------------------------------------------------------

    def staged_arg(self, kind, name, shape=None):
        """A staged function parameter of the given kind (and, for a
        tensor, static shape)."""
        sym = self.builder.fresh(name)
        if kind == "tree":
            return StagedTree(sym, self.builder)
        if kind == "bool":
            return StagedBool(sym, self.builder)
        return StagedTensor(sym, self.builder, shape)

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
        fdef = self.declare_staged(fn, arg_kinds, n_outputs, name)
        self.trace_declared()
        return fdef

    def declare_staged(self, fn, arg_kinds, n_outputs=1, name=None):
        """Register ``fn``'s FunctionDef without tracing its body yet.

        Calls to a declared function intercept immediately, so a *set* of
        mutually recursive helpers can all be declared before any body is
        traced (:meth:`trace_declared`) — tracing one would otherwise
        inline the not-yet-registered others forever.
        """
        target = _original(fn)
        if target in self._staged_functions:
            return self._staged_functions[target]
        fn_name = name or target.__name__
        params = [self.staged_arg(kind, f"a_{fn_name}_") for kind in arg_kinds]
        fdef = self._register(target, fn_name, params, n_outputs)
        self._pending_traces[target] = (fdef, params)
        return fdef

    def trace_declared(self):
        """Trace the bodies of every declared-but-untraced function."""
        from repro.autograph.impl import api as ag_api

        while self._pending_traces:
            target, (fdef, params) = next(iter(self._pending_traces.items()))
            del self._pending_traces[target]
            self._trace(fdef, ag_api.converted_function(target), params)

    def stage_function(self, fn, staged_params, call_args, call_kwargs=None,
                       n_outputs=1, name=None, outputs=None):
        """Stage ``fn`` with explicit parameters and call arguments.

        The general form of :meth:`def_staged`: ``staged_params`` become
        the IR function's parameters while ``call_args``/``call_kwargs``
        are what ``fn`` (AutoGraph-converted or not, as the caller
        chose) is actually traced with — staged params interleaved with
        concrete Python values (which specialize the trace, like
        graph-backend constants).  ``outputs(result)``, if given, picks
        the values the IR function returns out of what ``fn`` returned
        (by default: the result itself, a tuple or one value).

        Raises:
          StagedArityError: ``fn`` returned a different number of values
            than ``n_outputs`` declared (re-stage with ``.actual``).
        """
        target = _original(fn)
        # Registered *before* tracing so recursive calls are intercepted.
        fdef = self._register(target, name or target.__name__,
                              staged_params, n_outputs)
        return self._trace(fdef, fn, call_args, call_kwargs, outputs)

    def _register(self, target, fn_name, params, n_outputs):
        fdef = FunctionDef(fn_name, [p.sym for p in params],
                           [_staged_kind(p) for p in params], n_outputs)
        self._staged_functions[target] = fdef
        self.program.functions[fn_name] = fdef
        return fdef

    def _trace(self, fdef, fn, args, kwargs=None, outputs=None):
        """Trace ``fn(*args, **kwargs)`` into ``fdef``'s body."""
        self.builder.push_block(fdef.block)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            self.builder.pop_block()
        if outputs is not None:
            result = tuple(outputs(result))
        return self._finish_staged(fdef, result)

    def _finish_staged(self, fdef, result):
        """Arity-check a traced body's return value and wire the results."""
        if variables_lib.THIS_THREAD.created != self._variables_before:
            raise LanternLoweringError(
                f"{fdef.name!r} creates Variables; the Lantern backend has "
                "no variable state — use Params or backend='graph'",
                reason="creates variables")
        if not isinstance(result, tuple):
            result = (result,)
        if len(result) != fdef.n_outputs:
            raise StagedArityError(fdef.name, fdef.n_outputs, len(result))
        staged_results = [live(self.builder.as_staged(
            _enter_block(self, fdef, r))) for r in result]
        fdef.block.result_syms = tuple(v.sym for v in staged_results)
        return fdef


def _enter_block(stager, fdef, value):
    """Coerce return leaves; constants must be emitted inside the block."""
    if isinstance(value, StagedValue):
        return value
    stager.builder.push_block(fdef.block)
    try:
        return stager.builder.as_staged(value)
    finally:
        stager.builder.pop_block()
