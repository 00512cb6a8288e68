"""Public control-flow ops: mode-aware ``cond``, ``while_loop``, ``group``.

In graph mode these stage functional control flow (the paper's Section 3
constructs); in eager mode they simply run the Python callables — the same
duality AutoGraph's operators dispatch over.  A value staged by a backend
in ``dispatch.op_backends`` (Lantern's ``Stager``) goes to its
``if_stmt`` / ``while_stmt`` first, as ``run_op`` hands it ops.
"""

from __future__ import annotations

import numpy as np

from .. import context, nest
from ..eager.tensor import EagerTensor
from . import dispatch

__all__ = ["cond", "while_loop", "group", "print_v2", "assert_op"]


def cond(pred, true_fn, false_fn, name="cond"):
    """Data-dependent conditional.

    Graph mode: stages both branches (see
    :func:`repro.framework.graph.control_flow.cond`).  Eager mode: evaluates
    ``pred`` and runs one branch.
    """
    backend = dispatch.backend_for(pred)
    if backend in dispatch.op_backends:
        return _backend_cond(backend, pred, true_fn, false_fn)
    if context.has_default_graph():
        from ..graph.control_flow import cond as graph_cond

        return graph_cond(pred, true_fn, false_fn, name=name)
    if isinstance(pred, EagerTensor):
        pred = bool(pred)
    return true_fn() if pred else false_fn()


def while_loop(cond_fn, body_fn, loop_vars, maximum_iterations=None,
               name="while"):
    """Data-dependent loop over ``loop_vars``.

    Graph mode: stages the loop.  Eager mode: runs it directly.
    """
    opts = {"maximum_iterations": maximum_iterations}
    backend = dispatch.backend_for(*loop_vars)
    if backend in dispatch.op_backends:
        return backend.while_stmt(cond_fn, body_fn, tuple(loop_vars), (),
                                  opts)
    if context.has_default_graph():
        from ..graph.control_flow import while_loop as graph_while

        return graph_while(cond_fn, body_fn, loop_vars,
                           maximum_iterations=maximum_iterations, name=name)
    init_vars = loop_vars = tuple(loop_vars)
    iterations = 0
    while True:
        pred = cond_fn(*loop_vars)
        if dispatch.op_backends:
            # Staged from the start after all (the condition closes over
            # a staged value), or from this turn on.
            backend = dispatch.backend_for(pred)
            if backend is not None:
                return backend.while_stmt(cond_fn, body_fn, init_vars, (),
                                          opts)
        if not bool(np.asarray(pred)):
            break
        if maximum_iterations is not None and iterations >= maximum_iterations:
            break
        result = body_fn(*loop_vars)
        if not isinstance(result, tuple):
            result = (result,)
        loop_vars = result
        iterations += 1
    return loop_vars


def _backend_cond(backend, pred, true_fn, false_fn):
    """``cond`` through a backend's ``if_stmt``, which threads flat
    values, packed back into the true branch's structure."""
    structures = []

    def flat(branch):
        def run():
            out = branch()
            structures.append(out)
            return tuple(nest.flatten(out))
        return run

    outputs = backend.if_stmt(pred, flat(true_fn), flat(false_fn), ())
    return nest.pack_sequence_as(structures[0], list(outputs))


def group(*inputs, name="group"):
    """A fetchable op that forces execution of all ``inputs``."""
    return dispatch.run_op("Group", list(inputs), {}, name=name)


def print_v2(*args, sep=" ", end="\n", name=None):
    """Framework print: runs at graph-execution time when staged.

    This is the overload AutoGraph substitutes for Python ``print``
    (paper Section 6): staging a plain ``print`` would log at trace time,
    so converted code logs via this op instead.
    """
    return dispatch.run_op("PrintV2", list(args), {"sep": sep, "end": end},
                           name=name)


def assert_op(condition, data=(), message="Assertion failed", name=None):
    """Runtime assertion; raises ExecutionError when ``condition`` is false."""
    return dispatch.run_op("Assert", [condition] + list(data),
                           {"message": message}, name=name)
