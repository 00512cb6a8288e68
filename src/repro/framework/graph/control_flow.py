"""Functional control flow ops: ``cond`` and ``while_loop``.

These are the graph constructs the paper's Section 3 calls "cumbersome":
branches and loop bodies must be expressed as Python callables which are
traced once into subgraphs (:class:`FuncGraph`).  AutoGraph's entire
purpose is to generate calls to these from idiomatic ``if``/``while``/
``for`` statements.

Consistency requirements (paper Appendix E: "all code paths must produce
consistent value") are enforced here with :class:`StagingError` for
structure.  Dtype and shape are *relaxed* instead: whatever is not the
same on every path is declared ``variant`` / unknown, because the engine
coerces and checks every value fed to a typed, shaped placeholder.
"""

from __future__ import annotations

import sys

import numpy as np

from .. import dtypes, nest
from ..errors import StagingError
from ..kernels import declared_dtypes, declared_shapes
from ..registry import register_op
from ..shapes import unknown
from .func_graph import (bound_func_graph, execute_func_graph,
                         trace_into_func_graph)
from .graph import Tensor

__all__ = ["cond", "while_loop"]


# ---------------------------------------------------------------------------
# Composite expansion: TensorArray objects flow through control-flow ops as
# their variant-typed flow tensor and are re-wrapped on the way out.
# ---------------------------------------------------------------------------


def _expand_composites(flat_values):
    """Map composite values to flow tensors; returns ``(flat, handles)``
    with the ``TensorArray`` (else ``None``) each value came from."""
    from .tensor_array import TensorArray

    handles = [v if isinstance(v, TensorArray) else None for v in flat_values]
    return [v if h is None else h.flow
            for v, h in zip(flat_values, handles)], handles


def _rebuild_composites(flat_values, handles):
    """Re-wrap flow values as their handle's kind of ``TensorArray``."""
    return [
        v if h is None
        else type(h)(h.element_dtype, flow=v, element_shape=h.element_shape)
        for v, h in zip(flat_values, handles)
    ]


def _convert_flat(values, graph):
    """Convert flat python/np leaves to tensors of ``graph`` (with capture)."""
    from ..ops import dispatch as ops_dispatch

    out = []
    for v in values:
        out.append(ops_dispatch.as_graph_tensor(v, graph))
    return out


def _merge_dtypes(a, b, what):
    """The dtype to declare for a value that is ``a`` on one path and
    ``b`` on another: ``variant`` (decided at run time, never coerced)
    unless they agree.  Numeric dtypes drift into each other by NumPy
    promotion; a string on one path and a number on the other is an
    error."""
    if a == b:
        return a
    if dtypes.variant not in (a, b) and (a.is_string or b.is_string):
        raise StagingError(
            f"{what} has dtype {a.name} on one code path but {b.name} on "
            "another; staged control flow requires consistent values on "
            "all code paths")
    return dtypes.variant


# ---------------------------------------------------------------------------
# cond
# ---------------------------------------------------------------------------


def _cond_kernel(pred, *capture_values, true_graph=None, false_graph=None, n_true=0):
    if bool(np.asarray(pred)):
        return _run_branch(true_graph, capture_values[:n_true])
    return _run_branch(false_graph, capture_values[n_true:])


def _run_branch(fg, capture_values):
    out = execute_func_graph(fg, (), capture_values)
    return out if len(out) != 1 else out[0]


register_op("Cond", _cond_kernel, stateful=True,
            num_outputs=lambda inputs, attrs: len(
                attrs["true_graph"].flat_outputs),
            shape_fn=declared_shapes, dtype_fn=declared_dtypes)


def cond(pred, true_fn, false_fn, name="cond"):
    """Stage a data-dependent conditional into the default graph.

    Both branches are traced; their outputs must match in structure.
    Returns the branch output structure with symbolic tensors.
    """
    from .. import context

    graph = context.get_default_graph()
    if not isinstance(pred, Tensor):
        pred = _convert_flat([pred], graph)[0]

    tg = trace_into_func_graph(true_fn, [], f"{name}_true", graph)
    fg = trace_into_func_graph(false_fn, [], f"{name}_false", graph)

    t_out = tg.structured_outputs
    f_out = fg.structured_outputs
    try:
        nest.assert_same_structure(t_out, f_out, "cond branches")
    except ValueError as e:
        raise StagingError(
            f"cond: true_fn and false_fn must return the same structure: {e}"
        ) from e

    t_flat, t_handles = _expand_composites(nest.flatten(t_out))
    f_flat, f_handles = _expand_composites(nest.flatten(f_out))
    with tg.as_default():
        t_flat = _convert_flat(t_flat, tg)
    with fg.as_default():
        f_flat = _convert_flat(f_flat, fg)

    tg.flat_outputs = t_flat
    fg.flat_outputs = f_flat

    n_out = len(t_flat)
    if n_out == 0:
        raise StagingError(
            "cond: staged conditional branches must produce at least one value"
        )

    inputs = [pred] + tg.captures + fg.captures
    # Either branch may run: an output declares only what both agree on.
    shapes = [
        [dt if dt == df else None for dt, df in zip(tt.shape, ft.shape)]
        if tt.shape.rank is not None and tt.shape.rank == ft.shape.rank
        else unknown
        for tt, ft in zip(t_flat, f_flat)
    ]
    op = graph.create_op(
        "Cond",
        inputs,
        {
            "true_graph": tg,
            "false_graph": fg,
            "n_true": len(tg.captures),
            # Whichever branch runs decides what comes out: the engine
            # coerces values fed to a typed placeholder, so a dtype is
            # declared only where both branches agree on it.
            "_dtype_override": [
                _merge_dtypes(tt.dtype, ft.dtype, f"cond: branch output {i}")
                for i, (tt, ft) in enumerate(zip(t_flat, f_flat))],
            "_shape_override": shapes,
        },
        name=name,
    )
    # An array only one branch wrote to learned its element shape there.
    flat_results = _rebuild_composites(list(op.outputs), [
        f if t is not None and t.element_shape is None else t
        for t, f in zip(t_handles, f_handles)])
    return nest.pack_sequence_as(t_out, flat_results)


# ---------------------------------------------------------------------------
# while_loop
# ---------------------------------------------------------------------------


def _while_kernel(*args, cond_graph=None, body_graph=None, n_vars=0,
                  n_cond_caps=0, maximum_iterations=None):
    """Run a staged loop: one call of the loop walk the body plan keeps
    for this condition plan (:meth:`~repro.runtime.ExecutionPlan.loop`),
    which runs every turn in one generated Python ``while``.

    The condition and body plans are resolved once per run (one
    ``graph_version`` check each, not one per turn), and so is the loop
    walk, for the recorder's state at loop entry.  It checks the
    captures once and each loop variable at entry and after every turn,
    by the binder's rule (``BoundPlan.bind``'s dtype coercion, shape
    checks and ``FetchError``s), so a turn is only the two plans' steps.
    """
    cond, _ = bound_func_graph(cond_graph)
    body, _ = bound_func_graph(body_graph)
    loop_vars = body.plan.loop(cond.plan, n_vars)(
        args, sys.maxsize if maximum_iterations is None
        else maximum_iterations)
    return tuple(loop_vars) if n_vars != 1 else loop_vars[0]


register_op("While", _while_kernel, stateful=True,
            num_outputs=lambda inputs, attrs: attrs["n_vars"],
            shape_fn=declared_shapes, dtype_fn=declared_dtypes)


def while_loop(cond_fn, body_fn, loop_vars, maximum_iterations=None,
               name="while"):
    """Stage a while loop into the default graph.

    Args:
      cond_fn: callable(*loop_vars) -> boolean tensor.
      body_fn: callable(*loop_vars) -> updated loop_vars structure.
        Both callables are traced again, with the variable declared
        shapeless (``variant``), when the body does not hand a variable
        back at the static shape (dtype) it entered with.
      loop_vars: tuple/list of initial loop variables (tensors, python
        numbers, or composites like TensorArray).
      maximum_iterations: optional python int bound.

    Returns:
      The final loop variables, matching the input structure.
    """
    from .. import context

    graph = context.get_default_graph()
    loop_vars = tuple(loop_vars)
    if not loop_vars:
        raise StagingError("while_loop requires at least one loop variable")

    flat_init = nest.flatten(list(loop_vars))
    expanded_init, handles = _expand_composites(flat_init)
    expanded_init = _convert_flat(expanded_init, graph)
    n_vars = len(expanded_init)

    def make_callable(user_fn):
        def traced(*flat_args):
            rebuilt = _rebuild_composites(list(flat_args), handles)
            structured = nest.pack_sequence_as(list(loop_vars), rebuilt)
            return user_fn(*structured)

        return traced

    def trace_graphs(arg_specs):
        """Trace ``cond_fn`` and ``body_fn`` with loop variables declared
        at ``arg_specs``; returns ``(cond_graph, body_graph, the body
        outputs' composite handles)``."""
        cg = trace_into_func_graph(make_callable(cond_fn), arg_specs,
                                   f"{name}_cond", graph)
        bg = trace_into_func_graph(make_callable(body_fn), arg_specs,
                                   f"{name}_body", graph)

        # Condition output: a single boolean.
        with cg.as_default():
            cg.flat_outputs = _convert_flat([cg.structured_outputs], cg)

        # Body output: must match loop var structure.
        body_out = bg.structured_outputs
        if len(loop_vars) == 1 and not (
                isinstance(body_out, (list, tuple)) and len(body_out) == 1):
            # Allow body to return the single var unwrapped.
            body_out = (body_out,)
        try:
            nest.assert_same_structure(
                list(loop_vars), list(body_out), "while body")
        except ValueError as e:
            raise StagingError(
                "while_loop: body must return the same structure as "
                f"loop_vars: {e}"
            ) from e

        body_flat, out_handles = _expand_composites(
            nest.flatten(list(body_out)))
        with bg.as_default():
            body_flat = _convert_flat(body_flat, bg)
        bg.flat_outputs = body_flat
        return cg, bg, out_handles

    # A loop variable keeps its entry dtype and shape only if the body
    # preserves them.  Otherwise no turn after the first may assume them
    # — the engine coerces fed values to declared dtypes, checks them
    # against declared shapes and fuses on both — so the loop is traced
    # again with that variable declared variant / shapeless: everything
    # the body derives from it, nested branch and loop sub-graphs that
    # capture it included, then infers what holds on every turn.
    # Declarations only ever get dropped, so this settles within
    # ``2 * n_vars`` re-traces; the usual loop needs none.
    arg_specs = [(t.dtype, t.shape) for t in expanded_init]
    while True:
        cg, bg, out_handles = trace_graphs(arg_specs)
        settled = [(_merge_dtypes(dt, out_t.dtype,
                                  f"while_loop: loop variable {i}"),
                    sh if sh == out_t.shape else unknown)
                   for i, ((dt, sh), out_t)
                   in enumerate(zip(arg_specs, bg.flat_outputs))]
        if settled == arg_specs:
            break
        arg_specs = settled

    inputs = list(expanded_init) + cg.captures + bg.captures
    op = graph.create_op(
        "While",
        inputs,
        {
            "cond_graph": cg,
            "body_graph": bg,
            "n_vars": n_vars,
            "n_cond_caps": len(cg.captures),
            "maximum_iterations": maximum_iterations,
            "_dtype_override": [dt for dt, _ in arg_specs],
            "_shape_override": [sh for _, sh in arg_specs],
        },
        name=name,
    )
    # The handles the body returned: they know the element shape of an
    # array first written inside the loop, even if no turn runs.
    flat_results = _rebuild_composites(list(op.outputs), out_handles)
    result = nest.pack_sequence_as(list(loop_vars), flat_results)
    return tuple(result)
