"""The graph IR as a staging backend (paper §6, Listing 2).

A *symbolic* tensor stages ``if`` / ``while`` / ``for`` into the
framework's ``cond`` / ``while_loop``.  This is the only module of the
operator library that names the graph IR; it registers on import like any
other :class:`StagingBackend` and never unregisters.
"""

from __future__ import annotations

from repro.framework import dtypes as fw_dtypes
from repro.framework import ops
from repro.framework.errors import StagingError
from repro.framework.graph.graph import Tensor as SymbolicTensor
from repro.framework.ops.dispatch import run_op
from repro.framework.registry import register_op

from .dispatch import StagingBackend, register_backend
from .variables import Undefined, UndefinedReturnValue

__all__ = ["GraphBackend"]


# A variant-typed constant carrying an UndefinedReturnValue marker.  Used
# to thread "the function has not returned yet" through staged control
# flow: the marker is never read on any well-formed path (the do_return
# flag guards it), so its variant dtype is exempt from branch-consistency
# checks.
def _undefined_const_kernel(marker=None):
    return marker


register_op("UndefinedConst", _undefined_const_kernel,
            dtype_fn=lambda dts, attrs: [fw_dtypes.variant])


def _stageable(values, symbol_names, construct):
    """The values a staged ``construct`` threads for ``symbol_names``: all
    defined, an UndefinedReturnValue replaced by a variant tensor."""
    values = values if isinstance(values, tuple) else (values,)
    for value, name in zip(values, symbol_names):
        if isinstance(value, Undefined) and not isinstance(
                value, UndefinedReturnValue):
            raise StagingError(
                f"{construct}: the symbol {name!r} must be defined on all "
                "code paths when the statement is staged (it is missing a "
                "value on at least one path)"
            )
    return tuple(
        run_op("UndefinedConst", [], {"marker": v})
        if isinstance(v, UndefinedReturnValue) else v
        for v in values
    )


class GraphBackend(StagingBackend):
    name = "graph"

    def matches(self, value):
        return isinstance(value, SymbolicTensor)

    def not_(self, value):
        return ops.logical_not(value)

    def if_stmt(self, cond, body, orelse, symbol_names):
        if not symbol_names:
            # Side-effect-only staged conditional: thread a dummy value.
            def body_wrapped():
                body()
                return ops.constant(0)

            def orelse_wrapped():
                orelse()
                return ops.constant(0)

            ops.cond(cond, body_wrapped, orelse_wrapped)
            return ()

        return tuple(ops.cond(
            cond,
            lambda: _stageable(body(), symbol_names, "if"),
            lambda: _stageable(orelse(), symbol_names, "if")))

    def while_stmt(self, test, body, init_state, symbol_names, opts):
        init_state = _stageable(init_state, symbol_names, "while")
        if not init_state:
            raise StagingError(
                "while: a staged loop requires at least one loop variable; "
                "the loop body does not modify any symbol that is live "
                "afterwards"
            )
        return tuple(ops.while_loop(
            test,
            lambda *state: _stageable(body(*state), symbol_names, "while"),
            init_state, maximum_iterations=opts.get("maximum_iterations")))

    def for_stmt(self, iter_, extra_test, body, init_state, symbol_names,
                 opts):
        init_state = _stageable(init_state, symbol_names, "for")
        n0 = ops.get_item(ops.shape(iter_), 0)
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
            new_state = _stageable(body(ops.get_item(iter_, i), *state),
                                   symbol_names, "for")
            return (ops.add(i, ops.constant(1, dtype="int32")), *new_state)

        # A loop run for its side effects only still threads the index.
        result = ops.while_loop(
            cond_fn, body_fn, (i0, *init_state),
            maximum_iterations=opts.get("maximum_iterations"))
        return tuple(result[1:])


def _ensure_bool_tensor(value):
    if isinstance(value, SymbolicTensor):
        return value
    return ops.constant(bool(value))


register_backend(GraphBackend())
