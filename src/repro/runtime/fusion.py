"""Elementwise fusion: a plan rewrite that groups chains/trees of ufunc
steps into one step.

Every step of a plan is one kernel call of its walk, with its own
freshly allocated result.  This pass groups maximal runs of fusable steps —
elementwise ufunc kernels flagged via :attr:`OpDef.fusable
<repro.framework.registry.OpDef>` whose intermediates are single-consumer
and not fetched — into ONE step.  It only returns data: each member of a
group is ``(ufunc, args, reuse)``, an arg being a value locator or the
index of the member that produces it.  The plan emitter
(:mod:`repro.runtime.emit`) writes the group as one expression line of
the walk, the members' ufunc calls nested in the root's (the
mapping-table idiom: op type → compiled primitive), so a k-op chain
costs one line, and no Python frame, instead of k steps:

    s7 = u_tanh(u_add((t0 := u_multiply(s8, s8)), c5, out=t0), out=t0); del t0

**Group discovery.**  An edge producer→consumer fuses when both steps
are candidates (fusable, single-output, attr- and control-free) and the
producer's output has exactly one consumer occurrence and is not
fetched.  Every member's out-degree inside the group is therefore ≤ 1,
so each connected component is a tree converging on exactly one root
(cut where a member would sit more than ``_MAX_DEPTH`` edges below it);
no member except the root is visible outside the group, and the group's
step simply takes the root's place in topological order (the root is
the group's last step, so every external input is already produced and
every external consumer still follows).  The step's op is the root's
``Operation``: its output, ``fresh_output``, ``elementwise`` and
``stateful`` are what the level and buffer passes read, so independent
fused chains keep landing in the same level and fan out across
``BlockScheduler`` workers.

**Scratch reuse is proof-carrying, not guarded.**  A member writes its
result into a dying member result (``reuse``) only where the runtime
dtype AND shape of both are *guaranteed* at compile time, by
propagating trust from the group's external inputs:

- bound feeds are coerced to their declared dtype and exact-checked
  against fully-defined declared shapes by every execution front
  (``BoundPlan`` — which is also how ``Cond``/``While`` sub-graphs
  bind their loop variables and captures — and ``Session.run``), so
  those are trusted;
- pre-evaluated constants are baked arrays whose dtype/shape are known
  exactly;
- outputs of non-fused producer steps are *untrusted* — a declared
  dtype is normalized onto the framework's five (a float16 result is
  declared float32) — so reuse sites downstream of them fall back to
  plain allocating calls.

Result dtypes come from the same rule the graph builder declares with
(:func:`repro.framework.dtypes.numpy_result_dtype`: the actual ufunc
evaluated once per dtype tuple), here on the exact runtime dtypes, and
shapes from ``np.broadcast_shapes`` — so a fused plan is bit-identical
to the unfused one by construction: same ufuncs, same operands, and
``out=`` never changes a value or forces a cast.

**Buffer reuse composes.**  A group allocates its result (or reuses a
temporary of its own), so the root's ``fresh_output`` holds: the planner
may recycle the result downstream.  The planner may also arm the group
with a dead buffer: the root's own ``out=`` kernel then writes into it,
after every member has read its operands.
"""

from __future__ import annotations

import numpy as np

from ..framework.dtypes import numpy_result_dtype
from ..observe.events import RECORDER as _REC

__all__ = ["fuse_elementwise_steps"]

#: Cap on op names spelled out in a fused step's span name; longer
#: groups truncate (``fused[add+mul+tanh+exp+neg+7more]``) so profiler
#: kernel names stay readable and stable.
_NAME_CAP = 6


def _span_name(types):
    """The stable ``fused[add+mul+tanh]``-style step/span name."""
    parts = [t.lower() for t in types]
    if len(parts) > _NAME_CAP:
        parts = parts[:_NAME_CAP - 1] + [f"{len(parts) - _NAME_CAP + 1}more"]
    return f"fused[{'+'.join(parts)}]"


#: Most fused edges between a group member and its root.  The emitter
#: nests each member's call (and its walrus) inside its consumer's, and
#: CPython's parser takes at most 200 nested parentheses, so a longer
#: chain splits into groups of at most ``_MAX_DEPTH + 1`` members.
_MAX_DEPTH = 64


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


def _members(group, steps, step_ops, const_slots, base_values, feed_info):
    """One group's ``(ufunc, args, reuse)`` per member, in step order,
    and the non-constant locators it reads, in first-use order.

    An arg is a locator or the index of the member producing it;
    ``reuse`` is ``None`` or the index of the member whose dying result
    takes this member's result (``out=``).
    """
    index = {steps[m][0]: k for k, m in enumerate(group)}
    trust = []            # per member: its result's (dtype, shape)
    members, external = [], []
    for m in group:
        ufunc = step_ops[m].op_def.fusable
        args, metas = [], []
        for loc in steps[m][2]:
            k = index.get(loc[0])
            if k is not None:
                args.append(k)
                metas.append(trust[k])
                continue
            args.append(loc)
            if loc[0] in const_slots:
                baked = base_values[loc[0]][0]
                metas.append((baked.dtype, baked.shape))
            else:
                if loc not in external:
                    external.append(loc)
                metas.append(feed_info.get(loc, (None, None)))
        out = (numpy_result_dtype(ufunc, tuple(dt for dt, _ in metas)),
               _result_shape([sh for _, sh in metas]))
        # A dying member result with exactly this result's dtype/shape
        # may carry it: its single consumer is this very call, and these
        # ufuncs permit ``out`` aliasing an equal-shaped operand.  0-d
        # results are excluded — ufuncs return *scalars* there, which
        # ``out=`` refuses.
        reuse = None
        if None not in out and out[1] != ():
            reuse = next((a for a, meta in zip(args, metas)
                          if type(a) is int and meta == out), None)
        members.append((ufunc, tuple(args), reuse))
        trust.append(out)
    return tuple(members), tuple(external)


def fuse_elementwise_steps(steps, step_ops, fetch_locators, feed_slots,
                           const_slots, base_values):
    """Group the fusable steps of ``steps``; returns ``(steps, step_ops,
    fused_groups, standalone)``.

    A group becomes one step at its root's position, op and slot:
    ``[slot, members, locators, 1, span_name, root_inplace_kernel]``,
    ``members`` being its ``(ufunc, args, reuse)`` records (root last)
    and ``locators`` the non-constant values it reads.
    ``fused_groups`` is a tuple of ``(span_name, member_op_names,
    member_op_types, slot)`` records and ``standalone`` maps the slot of
    every fusable step left on its own to the reason — both kept on the
    plan for observability (:meth:`ExecutionPlan.describe`).  Emits
    ``runtime.fused_steps`` (groups formed) and
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

    # A fusable edge links a producer to its one consumer, so groups are
    # trees converging on a root.  Walking consumers before producers
    # gives each member its depth below the root; a member that would
    # sit deeper than _MAX_DEPTH roots a group of its own.
    consumer = {}
    for i in cand:
        for loc in steps[i][2]:
            p = producer.get(loc[0])
            if (loc[1] == 0 and p in cand
                    and consumers.get(loc, 0) == 1 and loc not in fetched):
                consumer[p] = i
    root, depth, capped = {}, {}, set()
    for i in sorted(cand, reverse=True):
        c = consumer.get(i)
        if c is not None and depth[c] < _MAX_DEPTH:
            root[i], depth[i] = root[c], depth[c] + 1
        else:
            if c is not None:
                capped.add(i)
            root[i], depth[i] = i, 0

    groups = {}
    for i in sorted(cand):
        groups.setdefault(root[i], []).append(i)
    fused = sorted(g for g in groups.values() if len(g) >= 2)
    # Why nothing fused into a lone candidate's consumer; when its output
    # is free to fuse, no producer or consumer next to it is a candidate.
    for i in cand.difference(*fused):
        loc = (steps[i][0], 0)
        standalone[loc[0]] = (
            "depth cap" if i in capped
            else "fetched" if loc in fetched
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

    replaced = {}   # root (= last member) index -> the group's step
    fused_groups = []
    for group in fused:
        members, external = _members(
            group, steps, step_ops, const_slots, base_values, feed_info)
        types = tuple(step_ops[m].type for m in group)
        span = _span_name(types)
        root = steps[group[-1]]
        replaced[group[-1]] = [root[0], members, external, 1, span, root[5]]
        fused_groups.append(
            (span, tuple(step_ops[m].name for m in group), types, root[0]))

    # The group's step takes the ROOT's position: the root is the
    # group's topologically last member, so every external input is
    # produced earlier and every external consumer follows.
    absorbed = set().union(*fused).difference(replaced)
    kept = [i for i in range(len(steps)) if i not in absorbed]
    return ([replaced.get(i, steps[i]) for i in kept],
            [step_ops[i] for i in kept], tuple(fused_groups), standalone)
