"""Dynamically-dispatched control flow operators (paper §6, Listing 2).

``if_stmt``/``while_stmt``/``for_stmt`` are the overloads the conversion
passes substitute for Python's ``if``/``while``/``for``.  Each inspects
its runtime operands:

- a *symbolic* (graph) tensor stages the construct into the graph IR;
- a value claimed by a registered alternate backend (Lantern) stages into
  that backend's IR;
- anything else — including *eager* tensors — executes with plain Python
  semantics.  This is the "macro-programming mode": conditionals on
  hyperparameters run imperatively, unstaged.
"""

from __future__ import annotations

from repro.framework import ops
from repro.framework.errors import StagingError
from repro.framework.graph.graph import Tensor as SymbolicTensor

from repro.framework.registry import register_op
from repro.framework import dtypes as fw_dtypes

from . import dispatch
from .variables import Undefined, UndefinedReturnValue

__all__ = ["if_stmt", "while_stmt", "for_stmt", "if_exp"]


# A variant-typed constant carrying an UndefinedReturnValue marker.  Used
# to thread "the function has not returned yet" through staged control
# flow: the marker is never read on any well-formed path (the do_return
# flag guards it), so its variant dtype is exempt from branch-consistency
# checks.
def _undefined_const_kernel(marker=None):
    return marker


register_op("UndefinedConst", _undefined_const_kernel,
            dtype_fn=lambda dts, attrs: [fw_dtypes.variant])


def _stage_return_placeholder(value):
    """Replace an UndefinedReturnValue with a stageable variant tensor."""
    from repro.framework.ops import dispatch as fw_dispatch

    return fw_dispatch.run_op("UndefinedConst", [], {"marker": value})


def _stages(value):
    """True when ``value`` forces staging of control flow."""
    if isinstance(value, SymbolicTensor):
        return True
    return dispatch.staging_backend_for(value) is not None


def _check_defined(values, symbol_names, construct):
    for value, name in zip(values, symbol_names):
        if isinstance(value, UndefinedReturnValue):
            continue  # handled by _stage_return_placeholder
        if isinstance(value, Undefined):
            raise StagingError(
                f"{construct}: the symbol {name!r} must be defined on all "
                "code paths when the statement is staged (it is missing a "
                "value on at least one path)"
            )


def _substitute_return_placeholders(values):
    return tuple(
        _stage_return_placeholder(v) if isinstance(v, UndefinedReturnValue) else v
        for v in values
    )


# ---------------------------------------------------------------------------
# if
# ---------------------------------------------------------------------------


def if_stmt(cond, body, orelse, symbol_names=()):
    """Functional overload of ``if`` (paper Listing 2).

    Args:
      cond: the condition value.
      body/orelse: niladic callables returning a tuple of final values for
        ``symbol_names``.
      symbol_names: names of the symbols modified by either branch that are
        live after the statement.

    Returns:
      Tuple of values for ``symbol_names``.
    """
    backend = dispatch.staging_backend_for(cond)
    if backend is not None:
        return backend.if_stmt(cond, body, orelse, symbol_names)
    if isinstance(cond, SymbolicTensor):
        return _staged_if(cond, body, orelse, symbol_names)
    # Plain Python semantics (includes eager tensors via __bool__).
    if cond:
        return body()
    return orelse()


def _staged_if(cond, body, orelse, symbol_names):
    n = len(symbol_names)

    if n == 0:
        # Side-effect-only staged conditional: thread a dummy value.
        def body_wrapped():
            body()
            return ops.constant(0)

        def orelse_wrapped():
            orelse()
            return ops.constant(0)

        ops.cond(cond, body_wrapped, orelse_wrapped)
        return ()

    def check(branch_name):
        def checker(values):
            values = values if isinstance(values, tuple) else (values,)
            for value, name in zip(values, symbol_names):
                if isinstance(value, UndefinedReturnValue):
                    continue
                if isinstance(value, Undefined):
                    raise StagingError(
                        f"if: the symbol {name!r} is only defined in the "
                        f"{branch_name} branch; staged conditionals require "
                        "all code paths to produce a consistent value"
                    )
            return _substitute_return_placeholders(values)

        return checker

    check_body = check("main")
    check_orelse = check("else")
    result = ops.cond(
        cond,
        lambda: check_body(body()),
        lambda: check_orelse(orelse()),
    )
    if n == 1 and not isinstance(result, tuple):
        return (result,)
    return tuple(result)


# ---------------------------------------------------------------------------
# while
# ---------------------------------------------------------------------------


def while_stmt(test, body, init_state, symbol_names=(), opts=None):
    """Functional overload of ``while``.

    Args:
      test: callable(*state) -> condition.
      body: callable(*state) -> new state tuple.
      init_state: tuple of initial values of the loop's state symbols.
      symbol_names: names of the state symbols (diagnostics).
      opts: loop options from ``ag.set_loop_options`` directives.

    Returns:
      Tuple of final state values.
    """
    opts = opts or {}
    init_state = tuple(init_state)

    for value in init_state:
        backend = dispatch.staging_backend_for(value)
        if backend is not None:
            return backend.while_stmt(test, body, init_state, symbol_names, opts)

    if any(_stages(v) for v in init_state):
        _check_defined(init_state, symbol_names, "while")
        return _staged_while(test, body, init_state, symbol_names, opts)

    # The loop state is plain Python; but the *condition* may still close
    # over a symbolic tensor (paper Appendix E: "condition closure is
    # collection of any Tensor-like").  Evaluate it once to find out; the
    # computed value is reused so Python side effects are not duplicated.
    first = test(*init_state)
    backend = dispatch.staging_backend_for(first)
    if backend is not None:
        return backend.while_stmt(test, body, init_state, symbol_names, opts)
    if isinstance(first, SymbolicTensor):
        return _staged_while(test, body, init_state, symbol_names, opts)

    state = init_state
    keep_going = first
    while keep_going:
        new_state = body(*state)
        if not isinstance(new_state, tuple):
            new_state = (new_state,)
        if any(_stages(v) for v in new_state):
            # The loop state became tensor-dependent mid-flight (e.g. a
            # data-dependent `break` flag).  Restart the whole loop as a
            # staged loop from the *initial* state; the partially built
            # first-iteration ops are dead nodes the executor prunes.
            _check_defined(init_state, symbol_names, "while")
            return _staged_while(test, body, init_state, symbol_names, opts)
        state = new_state
        keep_going = test(*state)
        if _stages(keep_going):
            _check_defined(init_state, symbol_names, "while")
            return _staged_while(test, body, init_state, symbol_names, opts)
    return state


def _staged_while(test, body, init_state, symbol_names, opts):
    if not init_state:
        raise StagingError(
            "while: a staged loop requires at least one loop variable; the "
            "loop body does not modify any symbol that is live afterwards"
        )
    init_state = _substitute_return_placeholders(init_state)

    def body_fn(*state):
        new_state = body(*state)
        if not isinstance(new_state, tuple):
            new_state = (new_state,)
        _check_defined(new_state, symbol_names, "while")
        return _substitute_return_placeholders(new_state)

    max_iter = opts.get("maximum_iterations")
    result = ops.while_loop(test, body_fn, init_state,
                            maximum_iterations=max_iter)
    return tuple(result)


# ---------------------------------------------------------------------------
# for
# ---------------------------------------------------------------------------


def for_stmt(iter_, extra_test, body, init_state, symbol_names=(), opts=None):
    """Functional overload of ``for``.

    Args:
      iter_: the iterated object (python iterable, tensor, TensorArray or
        backend-staged value).
      extra_test: callable(*state) -> bool, or None; injected by the
        break/return lowering passes.
      body: callable(iterate, *state) -> new state tuple.
      init_state: initial state values.
      symbol_names: state symbol names.
      opts: loop options.

    Returns:
      Tuple of final state values.
    """
    opts = opts or {}
    init_state = tuple(init_state)

    backend = dispatch.staging_backend_for(iter_)
    if backend is not None:
        return backend.for_stmt(iter_, extra_test, body, init_state,
                                symbol_names, opts)

    if isinstance(iter_, SymbolicTensor):
        _check_defined(init_state, symbol_names, "for")
        return _staged_for(iter_, extra_test, body, init_state, symbol_names,
                           opts)

    # Python iteration (lists, ranges, numpy arrays, eager tensors, ...).
    state = init_state
    for value in iter_:
        if extra_test is not None:
            verdict = extra_test(*state)
            if isinstance(verdict, SymbolicTensor):
                # The continuation condition became a tensor: restage the
                # loop over the (python) iterable as a staged loop when
                # possible — here the iterable itself is python, so fall
                # back to iterating with staged conditional guards.
                raise StagingError(
                    "for: the loop's break/return condition depends on a "
                    "tensor but the iterated object is a plain Python "
                    "iterable; iterate over a tensor (e.g. tf.range) to "
                    "stage this loop"
                )
            if not verdict:
                break
        state = body(value, *state)
        if not isinstance(state, tuple):
            state = (state,)
    return state


def _staged_for(iter_, extra_test, body, init_state, symbol_names, opts):
    init_state = _substitute_return_placeholders(init_state)
    n = ops.shape(iter_)
    n0 = ops.get_item(n, 0)
    i0 = ops.constant(0, dtype="int32")

    def cond_fn(i, *state):
        in_range = ops.less(i, n0)
        if extra_test is None:
            return in_range
        return ops.cond(
            in_range,
            lambda: _ensure_bool_tensor(extra_test(*state)),
            lambda: ops.constant(False),
        )

    def body_fn(i, *state):
        x = ops.get_item(iter_, i)
        new_state = body(x, *state)
        if not isinstance(new_state, tuple):
            new_state = (new_state,)
        _check_defined(new_state, symbol_names, "for")
        new_state = _substitute_return_placeholders(new_state)
        return (ops.add(i, ops.constant(1, dtype="int32")),) + tuple(new_state)

    if not init_state:
        # Loop executed for side effects only: thread the index.
        result = ops.while_loop(cond_fn, body_fn, (i0,),
                                maximum_iterations=opts.get("maximum_iterations"))
        return ()

    result = ops.while_loop(cond_fn, body_fn, (i0,) + init_state,
                            maximum_iterations=opts.get("maximum_iterations"))
    return tuple(result[1:])


def _ensure_bool_tensor(value):
    if isinstance(value, SymbolicTensor):
        return value
    return ops.constant(bool(value))


# ---------------------------------------------------------------------------
# ternary
# ---------------------------------------------------------------------------


def if_exp(cond, if_true, if_false):
    """Overload of ``x if cond else y`` (paper §7.2, Ternary).

    Args:
      cond: condition value.
      if_true/if_false: thunks for the two branch expressions.
    """
    backend = dispatch.staging_backend_for(cond)
    if backend is not None:
        return backend.if_stmt(cond, lambda: (if_true(),),
                               lambda: (if_false(),), ("<if_exp>",))[0]
    if isinstance(cond, SymbolicTensor):
        return ops.cond(cond, if_true, if_false)
    return if_true() if cond else if_false()
