"""Dynamically-dispatched control flow operators (paper §6, Listing 2).

``if_stmt``/``while_stmt``/``for_stmt`` are the overloads the conversion
passes substitute for Python's ``if``/``while``/``for``.  Each inspects
its runtime operands and goes one of two ways:

- a value claimed by a registered staging backend (a *symbolic* tensor by
  the graph IR, a Lantern value by its ``Stager``) stages the construct
  through that backend's method of the same name;
- anything else — including *eager* tensors — executes with plain Python
  semantics.  This is the "macro-programming mode": conditionals on
  hyperparameters run imperatively, unstaged.
"""

from __future__ import annotations

from repro.framework.errors import StagingError
from repro.framework.ops.dispatch import backend_for

__all__ = ["if_stmt", "while_stmt", "for_stmt", "if_exp"]


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
    backend = backend_for(cond)
    if backend is not None:
        return backend.if_stmt(cond, body, orelse, symbol_names)
    # Plain Python semantics (includes eager tensors via __bool__).
    if cond:
        return body()
    return orelse()


def if_exp(cond, if_true, if_false):
    """Overload of ``x if cond else y`` (paper §7.2, Ternary): an ``if``
    with one result.

    Args:
      cond: condition value.
      if_true/if_false: thunks for the two branch expressions.
    """
    return if_stmt(cond, lambda: (if_true(),), lambda: (if_false(),),
                   ("<if_exp>",))[0]


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
    init_state = state = tuple(init_state)
    while True:
        backend = backend_for(*state)
        if backend is None:
            # Plain Python state; but the *condition* may still close over
            # a staged value (paper Appendix E: "condition closure is
            # collection of any Tensor-like").
            keep_going = test(*state)
            backend = backend_for(keep_going)
        if backend is not None:
            # Staged from the start, or tensor-dependent mid-flight (e.g. a
            # data-dependent `break` flag): stage the whole loop from the
            # *initial* state; ops the Python turns built are dead nodes
            # the executor prunes.
            return backend.while_stmt(test, body, init_state, symbol_names,
                                      opts or {})
        if not keep_going:
            return state
        state = body(*state)
        if not isinstance(state, tuple):
            state = (state,)


def for_stmt(iter_, extra_test, body, init_state, symbol_names=(), opts=None):
    """Functional overload of ``for``.

    Args:
      iter_: the iterated object (python iterable, tensor or
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
    state = tuple(init_state)
    backend = backend_for(iter_)
    if backend is not None:
        return backend.for_stmt(iter_, extra_test, body, state, symbol_names,
                                opts or {})

    # Python iteration (lists, ranges, numpy arrays, eager tensors, ...).
    for value in iter_:
        if extra_test is not None:
            verdict = extra_test(*state)
            if backend_for(verdict) is not None:
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
