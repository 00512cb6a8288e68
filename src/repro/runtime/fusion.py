"""Elementwise fusion: collapse chains/trees of ufunc steps into one
``exec``-compiled composite kernel.

The planner's wavefront levels (PR 6) fan *independent* chains across
workers, but every step inside a chain is still one Python dispatch with
its own freshly allocated intermediate.  This pass deletes that per-step
overhead: maximal groups of fusable steps — elementwise ufunc kernels
flagged via :attr:`OpDef.fusable <repro.framework.registry.OpDef>`
whose intermediates are single-consumer and not fetched — are rewritten
into ONE generated Python closure that evaluates the whole expression in
a single step dispatch, chaining the raw NumPy ufuncs (the
mapping-table idiom: op type → compiled primitive) with ``out=``
scratch reuse, so a k-op chain costs 1 dispatch and ≤2 live
temporaries instead of k dispatches and k buffers.

**Group discovery.**  An edge producer→consumer fuses when both steps
are candidates (fusable, single-output, attr- and control-free) and the
producer's output has exactly one consumer occurrence and is not
fetched.  Every member's out-degree inside the group is therefore ≤ 1,
so each connected component is a tree converging on exactly one root;
no member except the root is visible outside the group, and the fused
step simply takes the root's place in topological order (the root is
the group's last step, so every external input is already produced and
every external consumer still follows).  Level assignment then derives
the fused step's wavefront from its external inputs exactly as it
would have for the root — independent fused chains keep landing in the
same level and fan out across ``BlockScheduler`` workers.

**Scratch reuse is proof-carrying, not guarded.**  ``out=`` is only
emitted where the runtime dtype AND shape of both the dying temporary
and the new result are *guaranteed* at compile time, by propagating
trust from the group's external inputs:

- bound feeds are coerced to their declared dtype and exact-checked
  against fully-defined declared shapes by every execution front
  (``BoundPlan`` — which is also how ``Cond``/``While`` sub-graphs
  bind their loop variables and captures — and ``Session.run``), so
  those are trusted;
- pre-evaluated constants are baked arrays whose dtype/shape are known
  exactly (scalar Consts fold inline as closure defaults — zero
  per-call locator reads);
- outputs of non-fused producer steps are *untrusted* — a declared
  dtype is normalized onto the framework's five (a float16 result is
  declared float32) — so reuse sites downstream of them fall back to
  plain allocating calls.

Result dtypes come from the same rule the graph builder declares with
(:func:`repro.framework.dtypes.numpy_result_dtype`: the actual ufunc
evaluated once per dtype tuple), here on the exact runtime dtypes, and
shapes from ``np.broadcast_shapes`` — so a fused plan is bit-identical
to the unfused one by construction: same ufuncs, same operands, same
evaluation order, and ``out=`` never changes a value or forces a cast.

**Donation composes.**  The generated closure allocates its result (or
reuses an intra-call temporary), so a fused step's output is
``fresh_output`` — a legal donation target for downstream kernels.  A
second generated variant writes the root result into a caller-provided
``out=`` buffer; it is alias-*tolerant* (the only external-buffer
write is the final elementwise ufunc call, where NumPy permits ``out``
to alias an equal-shaped operand), so fused steps join the same
dying-input buffer-reuse discipline as single ufunc steps.
"""

from __future__ import annotations

import numpy as np

from ..framework.dtypes import numpy_result_dtype
from ..framework.registry import OpDef
from ..observe.events import RECORDER as _REC

__all__ = ["fuse_elementwise_steps"]

#: Cap on op names spelled out in a fused step's span name; longer
#: groups truncate (``fused[add+mul+tanh+exp+neg+7more]``) so profiler
#: kernel names stay readable and stable.
_NAME_CAP = 6


class _FusedOp:
    """An op-shaped record for a fused composite step.

    Quacks like :class:`~repro.framework.graph.graph.Operation` exactly
    as far as the planner's later passes read one: ``op_def`` carries
    the generated kernel and donation metadata (the ``out=`` variant
    rides the fused step itself), ``inputs``/``outputs``
    expose the *external* input tensors (aligned with the fused step's
    locators) and the root's output tensor for dtype/shape pools, and
    ``member_ids`` lets level computation resolve control dependencies
    other ops may hold on any fused-away member.
    """

    __slots__ = ("op_def", "inputs", "outputs", "control_inputs",
                 "name", "member_ids", "member_types")

    def __init__(self, op_def, inputs, outputs, name, member_ids,
                 member_types):
        self.op_def = op_def
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self.control_inputs = ()
        self.name = name
        self.member_ids = member_ids
        self.member_types = member_types


def _span_name(types):
    """The stable ``fused[add+mul+tanh]``-style step/span name."""
    parts = [t.lower() for t in types]
    if len(parts) > _NAME_CAP:
        parts = parts[:_NAME_CAP - 1] + [f"{len(parts) - _NAME_CAP + 1}more"]
    return f"fused[{'+'.join(parts)}]"


def _result_shape(in_shapes):
    if any(s is None for s in in_shapes):
        return None
    try:
        return tuple(np.broadcast_shapes(*in_shapes))
    except ValueError:
        return None


def _candidates(steps, step_ops):
    """Indices of steps eligible to join a fused group, and of fusable
    steps a control edge keeps out.

    Steps that hold control dependencies — or are *targets* of another
    step's control dependency — stay standalone: fusing would move a
    member's execution to the group root's position, and the level
    pass assumes control edges always point backwards in step order.
    """
    control_targets = {
        id(c) for op in step_ops for c in op.control_inputs
    }
    out, held = set(), set()
    for i, op in enumerate(step_ops):
        od = op.op_def
        if od.fusable is None or od.num_outputs != 1 or od.stateful:
            continue
        if any(not k.startswith("_") for k in op.attrs):
            continue
        if op.control_inputs or id(op) in control_targets:
            held.add(i)
        else:
            out.add(i)
    return out, held


class _Union:
    __slots__ = ("parent",)

    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != self.parent[p]:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        self.parent[x] = p
        return p

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _codegen(group, steps, step_ops, const_slots, base_values, feed_info):
    """Generate one group's composite kernel and its ``out=`` donation
    variant.  Returns ``(kernel, inplace_kernel, ext_locators,
    ext_tensors)``."""
    member_set = set(group)
    produced = {steps[m][0]: m for m in group}
    root = group[-1]

    params = []           # external locators, first-use order
    param_of = {}         # locator -> generated name (params AND consts)
    namespace = {"__builtins__": {}}
    kw_names = []         # closure defaults: ufuncs + inlined consts
    trust = {}            # value name -> (dtype | None, shape | None)
    var_of = {}           # member index -> result variable name
    lines = []
    root_call_args = None
    root_fname = None
    n_temps = 0
    n_consts = 0

    for m in group:
        op = step_ops[m]
        ufunc = op.op_def.fusable
        fname = f"_f{m}"
        namespace[fname] = ufunc
        kw_names.append(fname)
        args, arg_dtypes, arg_shapes = [], [], []
        for loc in steps[m][2]:
            p = produced.get(loc[0]) if loc[1] == 0 else None
            if p is not None and p in member_set:
                name = var_of[p]
            elif loc[1] == 0 and loc[0] in const_slots:
                name = param_of.get(loc)
                if name is None:
                    baked = base_values[loc[0]][0]
                    name = f"_c{n_consts}"
                    n_consts += 1
                    param_of[loc] = name
                    namespace[name] = baked
                    kw_names.append(name)
                    trust[name] = (baked.dtype, baked.shape)
            else:
                name = param_of.get(loc)
                if name is None:
                    name = f"p{len(params)}"
                    param_of[loc] = name
                    params.append(loc)
                    trust[name] = feed_info.get(loc, (None, None))
            dt, sh = trust[name]
            args.append(name)
            arg_dtypes.append(dt)
            arg_shapes.append(sh)
        out_dt = numpy_result_dtype(ufunc, tuple(arg_dtypes))
        out_sh = _result_shape(arg_shapes)

        # A dying intra-call temporary with exactly the result's
        # dtype/shape may carry the result: its single consumer is this
        # very call, and these ufuncs permit ``out`` aliasing an
        # equal-shaped operand.  0-d results are excluded — ufuncs
        # return *scalars* there, which ``out=`` refuses.
        reuse = None
        if out_dt is not None and out_sh is not None and out_sh != ():
            for loc, name in zip(steps[m][2], args):
                p = produced.get(loc[0]) if loc[1] == 0 else None
                if p is None or p not in member_set:
                    continue
                if trust[name] == (out_dt, out_sh):
                    reuse = name
                    break

        if m == root:
            root_call_args = list(args)
            root_fname = fname
            tail = f", out={reuse})" if reuse is not None else ")"
            lines.append(f"return {fname}({', '.join(args)}{tail}")
            break
        if reuse is not None:
            var = reuse
            lines.append(f"{var} = {fname}({', '.join(args)}, out={var})")
        else:
            var = f"t{n_temps}"
            n_temps += 1
            lines.append(f"{var} = {fname}({', '.join(args)})")
        var_of[m] = var
        trust[var] = (out_dt, out_sh)

    param_names = [param_of[loc] for loc in params]
    defaults = ", ".join(f"{n}={n}" for n in kw_names)
    header = ", ".join(param_names + [f"*, {defaults}"])
    src = f"def _fused({header}):\n    " + "\n    ".join(lines) + "\n"
    exec(compile(src, "<repro.fuse>", "exec"), namespace)
    kernel = namespace.pop("_fused")

    # The donation variant: identical interior, but the root ufunc
    # writes into the caller-provided ``out`` buffer (the planner only
    # arms this with a dying same-dtype/shape input under the
    # alias-tolerant discipline — the final elementwise write happens
    # after every other read of that buffer).  The planner matches
    # *declared* dtypes, so the write refuses any unsafe cast and the
    # engine falls back to the allocating kernel.
    out_lines = list(lines)
    out_lines[-1] = (
        f"return {root_fname}({', '.join(root_call_args)}, out=out, "
        "casting='safe')")
    out_header = ", ".join(param_names + ["*", "out", defaults])
    out_src = (f"def _fused_out({out_header}):\n    "
               + "\n    ".join(out_lines) + "\n")
    ns2 = dict(namespace)
    exec(compile(out_src, "<repro.fuse>", "exec"), ns2)
    inplace_kernel = ns2.pop("_fused_out")

    ext_tensors = _external_tensors(group, steps, step_ops, params)
    return kernel, inplace_kernel, tuple(params), ext_tensors


def _external_tensors(group, steps, step_ops, params):
    """The first graph tensor seen for each external locator, in param
    order (the donation passes ``zip(op.inputs, step_locators)``)."""
    by_loc = {}
    for m in group:
        for t, loc in zip(step_ops[m].inputs, steps[m][2]):
            by_loc.setdefault(loc, t)
    return [by_loc[loc] for loc in params]


def fuse_elementwise_steps(steps, step_ops, fetch_locators, feed_slots,
                           const_slots, base_values):
    """Rewrite fused groups of ``steps``; returns ``(steps, step_ops,
    fused_groups, standalone)``.

    ``fused_groups`` is a tuple of ``(span_name, member_op_names,
    member_op_types, slot)`` records and ``standalone`` maps the slot of
    every fusable step left on its own to the reason — both kept on the
    plan for observability (:meth:`ExecutionPlan.describe`).  Emits
    ``runtime.fused_steps`` (composite steps created) and
    ``runtime.fusion_fallbacks`` (candidate steps left standalone)
    counters — both accumulate whether or not event recording is
    enabled, feeding ``/v1/metrics``.
    """
    cand, held = _candidates(steps, step_ops)
    standalone = {steps[i][0]: "control edge" for i in held}
    if not cand:
        return steps, step_ops, (), standalone

    consumers = {}
    for s in steps:
        for loc in s[2]:
            consumers[loc] = consumers.get(loc, 0) + 1
    fetched = set(fetch_locators)
    producer = {s[0]: i for i, s in enumerate(steps)}

    uf = _Union()
    for i in cand:
        for loc in steps[i][2]:
            if loc[1] != 0:
                continue
            p = producer.get(loc[0])
            if (p is None or p not in cand
                    or consumers.get(loc, 0) != 1 or loc in fetched):
                continue
            uf.union(p, i)

    groups = {}
    for i in cand:
        groups.setdefault(uf.find(i), []).append(i)
    fused = sorted(sorted(g) for g in groups.values() if len(g) >= 2)
    # Why nothing fused into a lone candidate's consumer; when its output
    # is free to fuse, no producer or consumer next to it is a candidate.
    for i in cand.difference(*fused):
        loc = (steps[i][0], 0)
        standalone[loc[0]] = (
            "fetched" if loc in fetched
            else "multi-consumer" if consumers.get(loc, 0) > 1
            else "no fusable neighbour")
    n_standalone = len(cand) - sum(len(g) for g in fused)
    if n_standalone:
        _REC.counter("runtime.fusion_fallbacks", n_standalone)
    if not fused:
        return steps, step_ops, (), standalone
    _REC.counter("runtime.fused_steps", len(fused))

    # Trusted per-feed runtime metadata: the binder coerces a declared
    # dtype and exact-checks a fully-defined declared shape.
    feed_info = {}
    for t, slot in feed_slots:
        dt = t.dtype.np_dtype
        feed_info[(slot, 0)] = (
            np.dtype(dt) if dt is not None else None,
            t.shape.as_tuple() if t.shape.is_fully_defined else None,
        )

    replaced = {}   # root (= last member) index -> (fused step, shim)
    absorbed = set()
    fused_groups = []
    for group in fused:
        kernel, inplace_kernel, ext_locs, ext_tensors = _codegen(
            group, steps, step_ops, const_slots, base_values, feed_info)
        types = tuple(step_ops[m].type for m in group)
        names = tuple(step_ops[m].name for m in group)
        span = _span_name(types)
        root = group[-1]
        root_slot = steps[root][0]
        op_def = OpDef(span, kernel, num_outputs=1, fresh_output=True)
        shim = _FusedOp(
            op_def,
            inputs=ext_tensors,
            outputs=[step_ops[root].outputs[0]],
            name=span,
            member_ids=tuple(id(step_ops[m]) for m in group),
            member_types=types,
        )
        # The fused step takes the ROOT's position: the root is the
        # group's topologically last member, so every external input is
        # produced earlier and every external consumer follows.
        replaced[root] = (
            [root_slot, kernel, ext_locs, True, span, inplace_kernel], shim)
        absorbed.update(group)
        fused_groups.append((span, names, types, root_slot))

    new_steps, new_ops = [], []
    for i, (s, op) in enumerate(zip(steps, step_ops)):
        if i in replaced:
            fs, shim = replaced[i]
            new_steps.append(fs)
            new_ops.append(shim)
        elif i not in absorbed:
            new_steps.append(s)
            new_ops.append(op)
    return new_steps, new_ops, tuple(fused_groups), standalone
