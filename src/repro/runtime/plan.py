"""``ExecutionPlan``: the compiled form of one ``(graph, fetches, feeds)``.

This is the execution engine's IR and the graph backend's *only* plan
compiler: ``Session.run``, traced ``ConcreteFunction``s, loaded serving
artifacts, the micro-batcher and the ``Cond``/``While`` branch and body
sub-graphs (:func:`~repro.framework.graph.func_graph.bound_func_graph`)
all compile through :func:`compile_plan` and run its generated code
(:meth:`ExecutionPlan.walk`; a staged loop's condition and body, one
generated loop, :meth:`ExecutionPlan.loop`), so every optimization
below applies to a staged loop body exactly as it does to the ops
around the loop.

A plan is a pruned, topologically-ordered list of *steps* (kernel +
pre-resolved value-slot locators), a slot table for feeds, and locators
for the fetches.  Compilation also performs the plan-level optimizations
that make the per-call path as close to "a loop over kernels" as Python
allows (the Table-2 dispatch-overhead story):

- **constant pre-evaluation** — stateless ops whose inputs are all
  compile-time constants execute *once* at compile time; their values are
  baked into the plan's base slot values and their steps disappear;
- **dead-step elision** — only ops the fetches (or their control deps)
  reach are compiled at all;
- **output-buffer reuse** — one liveness scan gives every buffer the
  plan allocates the point after which nothing reads it, and a step
  whose kernel advertises an in-place variant (``OpDef.inplace_kernel``)
  writes its result into a dead buffer of its dtype and shape from one
  pool (:func:`_assign_buffer_reuse`); feeds (caller-owned), baked
  constants (shared across calls) and fetches (returned to the caller)
  are never buffers;
- **elementwise fusion** — maximal chains/trees of
  fusable ufunc steps whose intermediates are single-consumer and not
  fetched are grouped into one step (:mod:`repro.runtime.fusion`), which
  the emitter writes as one nested expression of the members' ufunc
  calls, so a k-op chain costs one walk line instead of k kernel
  dispatches.  Constant pre-evaluation runs *first*, so a chain split by
  a foldable ``Const`` subtree still fuses end to end.
  ``compile_plan(..., fuse=False)`` is the only off switch: the
  one-step-per-op reference the fusion tests compare against.

Compilation also derives the plan's **levels**: a wavefront partition of
the steps by data/control dependency depth (stateful steps additionally
chained in program order).  Steps within one level are mutually
independent, which is what lets a plan's level walk fan a level out
on a :class:`repro.blocks.scheduler.BlockScheduler` — the per-block
steps of a blocked plan all land in wide levels.

A plan has ONE step schedule, the ``steps`` tuple, and runs as generated
code written by ONE emitter (:mod:`repro.runtime.emit`): on its first
execution with a given walk — serial, level by level on a scheduler, or
either with the spans ``repro.observe`` records — the plan becomes one
Python function with its slots as locals and one source line per step,
kept by the plan.  Feeds are bound in one place,
:class:`repro.runtime.engine.BoundPlan`.
"""

from __future__ import annotations

import functools

import numpy as np

from ..framework.errors import FetchError
from ..framework.graph.graph import Operation, Tensor
from ..framework.graph.optimize import has_opaque_attrs
from ..observe.events import RECORDER as _REC
from . import emit
from .fusion import fuse_elementwise_steps

__all__ = ["ExecutionPlan", "compile_plan"]


class ExecutionPlan:
    """A pruned, topologically-ordered, slot-resolved execution plan.

    Attributes:
      steps: ``(slot, kernel, locators, n_outputs, op_name, inplace)``
        tuples; ``inplace`` is ``None`` or a buffer-donation record
        ``(donor_slot, donor_index, inplace_kernel, out_shape, out_dtype)``.
        A fused step's ``kernel`` is its group's ``(ufunc, args, reuse)``
        member records (:func:`~repro.runtime.fusion.fuse_elementwise_steps`).
      fetch_locators: ``(slot, output_index)`` per flat fetch (``(-1, 0)``
        for ``None`` fetches).
      feed_slots: ``(tensor, slot)`` per feed tensor, in feed order.
      n_slots: total number of value slots (op slots + feed slots).
      base_values: length-``n_slots`` template with pre-evaluated constant
        slots filled; the emitter bakes them into each walk.
      levels: wavefront partition of step indices — steps in one level
        are mutually independent (data, control and stateful-order
        dependencies all land in earlier levels).
      fused_groups: ``(span_name, member_op_names, member_op_types,
        slot)`` per fused step (empty when compiled with
        ``fuse=False`` or nothing fused).
      standalone: ``{slot: reason}`` for every fusable step the fusion
        pass left on its own (``fetched`` / ``multi-consumer`` /
        ``no fusable neighbour`` / ``control edge`` / ``depth cap``).
    """

    __slots__ = ("steps", "fetch_locators", "feed_slots", "n_slots",
                 "base_values", "graph", "graph_version", "levels",
                 "fused_groups", "standalone", "_walks", "_loop")

    def __init__(self, steps, fetch_locators, feed_slots, n_slots,
                 base_values, graph, graph_version, levels=(),
                 fused_groups=(), standalone=()):
        self.steps = steps
        self.fetch_locators = fetch_locators
        self.feed_slots = feed_slots
        self.n_slots = n_slots
        self.base_values = base_values
        self.graph = graph
        self.graph_version = graph_version
        self.levels = levels
        self.fused_groups = fused_groups
        self.standalone = dict(standalone)
        # One generated walk per kind (serial, recorded, level, recorded
        # level), each emitted on its first use.
        self._walks = [None] * 4
        # As the body of a staged While: ``(cond plan, [serial, recorded
        # loop walk])``.
        self._loop = None

    # -- execution ---------------------------------------------------------

    def walk(self, scheduler=None):
        """The generated walk (:mod:`repro.runtime.emit`) for the
        recorder's current state and ``scheduler``, emitted on its first
        use: a function ``(feeds, scheduler=None)`` taking one value per
        :attr:`feed_slots` entry and returning the flat fetches.

        With a parallel ``scheduler`` the steps run level by level, each
        level's independent steps fanned out on the scheduler's worker
        pool (the kernels release the GIL).
        """
        kind = emit.RECORDED if _REC.enabled else 0
        if (scheduler is not None and scheduler.parallel
                and len(self.steps) > 1):
            kind |= emit.LEVELS
        run = self._walks[kind]
        if run is None:
            run = self._walks[kind] = emit.walk(self, kind)
        return run

    def loop(self, cond, n_vars):
        """The generated loop walk (:func:`repro.runtime.emit.loop`) of
        a staged ``While`` with this plan as its body and ``cond`` as its
        condition, for the recorder's current state, emitted on its first
        use: a function ``(args, m)`` taking the While op's inputs and a
        turn bound, returning the final ``n_vars`` loop variables."""
        kind = emit.RECORDED if _REC.enabled else 0
        loops = self._loop
        if loops is None or loops[0] is not cond:
            loops = self._loop = (cond, [None, None])
        run = loops[1][kind]
        if run is None:
            run = loops[1][kind] = emit.loop(cond, self, n_vars, kind)
        return run

    @property
    def inplace_steps(self):
        """How many steps write their result into a recycled buffer."""
        return sum(step[5] is not None for step in self.steps)

    def describe(self):
        """A human-readable plan dump: steps, levels, fused groups,
        buffer-reuse arms and why a fusable step stayed standalone —
        the debugging aid for "what did the planner actually compile?".
        Stable enough to grep in tests, cheap enough to print from a
        REPL."""
        fused_by_slot = {g[3]: g for g in self.fused_groups}
        lines = [
            f"ExecutionPlan: {len(self.steps)} steps in "
            f"{len(self.levels)} levels, {self.n_slots} slots, "
            f"{len(self.feed_slots)} feeds, "
            f"{len(self.fetch_locators)} fetches, "
            f"{len(self.fused_groups)} fused, "
            f"{self.inplace_steps} in-place"
        ]
        level_of = {}
        for ln, level in enumerate(self.levels):
            for i in level:
                level_of[i] = ln
        for i, (slot, _kernel, locators, _n_out, name, inplace) in (
                enumerate(self.steps)):
            ins = ", ".join(f"{j}:{k}" for j, k in locators)
            line = (f"  [{i}] L{level_of.get(i, 0)} slot={slot} "
                    f"{name}({ins})")
            if inplace is not None:
                line += f" inplace<-slot{inplace[0]}"
            g = fused_by_slot.get(slot)
            if g is not None and name == g[0]:
                line += f" members=[{', '.join(g[1])}]"
            if slot in self.standalone:
                line += f" standalone: {self.standalone[slot]}"
            lines.append(line)
        return "\n".join(lines)

    def __repr__(self):
        return (f"<ExecutionPlan steps={len(self.steps)} "
                f"feeds={len(self.feed_slots)} "
                f"fetches={len(self.fetch_locators)} slots={self.n_slots}>")


def _resolve_fetch_tensors(graph, flat_fetches):
    """Map user-level fetches (tensors/ops/Variables/None) to tensors."""
    fetch_tensors = []
    for f in flat_fetches:
        if isinstance(f, (Tensor, Operation)):
            if f.graph is not graph:
                raise FetchError(
                    f"Fetch {f.name!r} is not in graph {graph.name!r}")
            if isinstance(f, Operation):
                f = f.outputs[0] if f.outputs else None
            fetch_tensors.append(f)
        elif f is None:
            fetch_tensors.append(None)
        else:
            # Variables fetch their read value.
            from ..framework.graph.variables import Variable

            if isinstance(f, Variable):
                fetch_tensors.append(f.value())
            else:
                raise FetchError(
                    f"Cannot fetch object of type {type(f).__name__}: {f!r}"
                )
    return fetch_tensors


def compile_plan(graph, flat_fetches, feed_tensors, *, fuse=True):
    """Compile an :class:`ExecutionPlan` for ``graph``.

    Args:
      graph: the graph to execute.
      flat_fetches: flat list of fetches — ``Tensor``/``Operation``/
        ``Variable``/``None``.
      feed_tensors: the placeholder (or intermediate) tensors whose
        values the caller will supply per call, in slot-binding order.
      fuse: group chains/trees of fusable elementwise steps into one
        step each (:mod:`repro.runtime.fusion`).
        ``False`` compiles the plain one-step-per-op plan — the
        bit-identity reference fused plans are tested against; bind it
        to a :class:`~repro.runtime.engine.BoundPlan` to A/B a function.

    Raises:
      FetchError: on foreign-graph fetches/feeds, unfetchable objects, or
        a required placeholder missing from ``feed_tensors``.
    """
    feed_tensors = list(feed_tensors)
    fed_ids = {id(t) for t in feed_tensors}
    for t in feed_tensors:
        if not isinstance(t, Tensor) or t.graph is not graph:
            raise FetchError(
                f"Feed key {t!r} is not a tensor of graph {graph.name!r}")

    fetch_tensors = _resolve_fetch_tensors(graph, flat_fetches)

    # Reverse reachability from fetches, stopping at fed tensors.
    needed = []
    seen = set()
    stack = [t.op for t in fetch_tensors if t is not None and id(t) not in fed_ids]
    while stack:
        op = stack.pop()
        if id(op) in seen:
            continue
        seen.add(id(op))
        needed.append(op)
        for t in op.inputs:
            if id(t) in fed_ids:
                continue
            if id(t.op) not in seen:
                stack.append(t.op)
        for c in op.control_inputs:
            if id(c) not in seen:
                stack.append(c)

    # Topological order by creation index (graphs append in topo order;
    # control inputs always reference earlier ops).
    order = {id(op): i for i, op in enumerate(graph.ops)}
    needed.sort(key=lambda op: order[id(op)])

    slot_of = {id(op): i for i, op in enumerate(needed)}
    n_slots = len(needed)
    feed_slots = []
    feed_slot_of = {}
    for t in feed_tensors:
        feed_slot_of[id(t)] = n_slots
        feed_slots.append((t, n_slots))
        n_slots += 1

    def locator(tensor):
        if id(tensor) in feed_slot_of:
            return (feed_slot_of[id(tensor)], 0)
        return (slot_of[id(tensor.op)], tensor.value_index)

    # -- step emission with constant pre-evaluation ------------------------
    base_values = [None] * n_slots
    # Slots whose base value is baked (shared across calls).
    const_slots = set()
    steps = []
    step_ops = []  # parallel to steps, for the buffer-reuse pass

    for op in needed:
        if op.type == "Placeholder":
            if id(op.outputs[0]) not in feed_slot_of:
                raise FetchError(
                    f"Placeholder {op.name!r} of graph {graph.name!r} is "
                    "required by the fetches but was not fed"
                )
            continue
        slot = slot_of[id(op)]
        locators = tuple(locator(t) for t in op.inputs)
        runtime_attrs = {
            k: v for k, v in op.attrs.items() if not k.startswith("_")
        }
        # The op's attrs are bound into both kernel forms here, once; a
        # step carries its in-place kernel in its last field until
        # ``_assign_buffer_reuse`` decides whether it gets a buffer.
        kernel, ikernel = op.op_def.kernel, op.op_def.inplace_kernel
        if runtime_attrs:
            kernel = functools.partial(kernel, **runtime_attrs)
            if ikernel is not None:
                ikernel = functools.partial(ikernel, **runtime_attrs)

        # Constant pre-evaluation: a stateless op whose inputs are all
        # already-baked constants runs once, now, and sheds its step.
        # Ops carrying subgraph attrs (Cond/While) or control inputs are
        # conservatively left live.
        if (not op.op_def.stateful
                and not op.control_inputs
                and not has_opaque_attrs(op)
                and all(j < len(needed) and j in const_slots
                        for j, _ in locators)):
            if op.type == "Const":
                base_values[slot] = (_bake(op.attrs["value"]),)
                const_slots.add(slot)
                continue
            if len(op.outputs) == 1:
                try:
                    out = kernel(*[base_values[j][k] for j, k in locators])
                except Exception:
                    out = _DEFER  # kernel failed: surface the error at run time
                if out is not _DEFER and isinstance(
                        out, (np.ndarray, np.generic, int, float, bool)):
                    base_values[slot] = (_bake(out),)
                    const_slots.add(slot)
                    continue

        steps.append([slot, kernel, locators, len(op.outputs), op.name,
                      ikernel])
        step_ops.append(op)

    fetch_locators = []
    for t in fetch_tensors:
        if t is None:
            fetch_locators.append((-1, 0))
        else:
            fetch_locators.append(locator(t))

    # Elementwise fusion runs after constant pre-evaluation (so folded
    # Const subtrees never split a fusable chain) and needs the fetch
    # locators (fetched intermediates block fusion edges), but before
    # level/donation assignment, which must see the *fused* steps.
    fused_groups, standalone = (), {}
    if fuse:
        steps, step_ops, fused_groups, standalone = fuse_elementwise_steps(
            steps, step_ops, fetch_locators, feed_slots, const_slots,
            base_values)

    step_levels, levels = _compute_levels(steps, step_ops)
    _assign_buffer_reuse(steps, step_ops, fetch_locators, step_levels)

    return ExecutionPlan(
        tuple(tuple(s) for s in steps),
        tuple(fetch_locators),
        tuple(feed_slots),
        n_slots,
        base_values,
        graph,
        graph.version,
        levels=levels,
        fused_groups=fused_groups,
        standalone=standalone,
    )


def _compute_levels(steps, step_ops):
    """Dependency-depth wavefronts over the emitted steps.

    A step's level is one past the deepest level among (a) the steps
    producing its input slots, (b) the steps its op holds control
    dependencies on, and (c) — for stateful ops — the previous stateful
    step, so side effects keep their program order even when levels run
    in parallel.  Returns ``(per-step levels, tuple of index tuples)``.
    """
    producer = {s[0]: i for i, s in enumerate(steps)}
    # No control edge touches a fused-away op: fusion leaves such steps
    # standalone.
    index_of_op = {id(op): i for i, op in enumerate(step_ops)}
    level = [0] * len(steps)
    last_stateful = None
    for i, (s, op) in enumerate(zip(steps, step_ops)):
        lv = 0
        for j, _k in s[2]:
            p = producer.get(j)
            if p is not None and level[p] >= lv:
                lv = level[p] + 1
        for c in op.control_inputs:
            p = index_of_op.get(id(c))
            if p is not None and level[p] >= lv:
                lv = level[p] + 1
        if op.op_def.stateful:
            if last_stateful is not None and level[last_stateful] >= lv:
                lv = level[last_stateful] + 1
            last_stateful = i
        level[i] = lv
    buckets = [[] for _ in range((max(level) + 1) if level else 0)]
    for i, lv in enumerate(level):
        buckets[lv].append(i)
    return level, tuple(tuple(b) for b in buckets)


_DEFER = object()


def _bake(value):
    """A private, read-only copy of a pre-evaluated constant.

    Baked values are *shared by every execution* of the plan (and handed
    to callers when fetched), so they must be immune to in-place
    mutation: a caller doing ``out += 1`` on a fetched result must get a
    loud ``read-only`` error, never silently corrupt later calls.  The
    copy also decouples the plan from the graph's own ``Const`` attr
    arrays, and keeps their memory layout (BLAS rounds a transposed
    operand's products in another order than a C-ordered one's).
    """
    arr = np.asarray(value).copy(order="K")
    arr.setflags(write=False)
    return arr


def _assign_buffer_reuse(steps, step_ops, fetch_locators, step_levels):
    """Arm each step that has an ``out=`` kernel with a dead buffer.

    A *buffer* is the result of a step whose kernel allocates it
    (``OpDef.fresh_output``), so never a feed, a baked constant or a
    fetch.  Any other kernel may return a view of its inputs or hold on
    to them (``Reshape``, ``Identity``, ``TensorArrayWrite``): its
    results *share* its inputs' buffers.  A stateful reader (variable
    storage, ``Cond``/``While``) pins what it reads, and so does a
    fetch; a pinned buffer never dies.

    A backward scan gives every buffer its death: the last ``(step,
    level)`` that reads anything sharing it, and the one step that does
    if only one does.  A forward scan then hands a step a buffer of its
    static dtype and shape from one pool: one dead strictly earlier, in
    step order *and* in level order (no level-parallel sibling may still
    be reading it), or, for an elementwise op (a ufunc tolerates ``out``
    aliasing an operand), one that it alone reads, at its own step.  A
    taken buffer then holds the taker's result, and returns to the pool
    when that result dies.
    """
    n = len(steps)
    pinned = (n, n, None)
    death = dict.fromkeys(fetch_locators, pinned)
    for i in range(n - 1, -1, -1):
        s, op = steps[i], step_ops[i]
        if op.op_def.stateful:
            read = pinned
        else:
            read = (i, step_levels[i], i)
            if not op.op_def.fresh_output:
                for k in range(len(op.outputs)):
                    read = _later(read, death.get((s[0], k), read))
        for loc in s[2]:
            death[loc] = _later(read, death.get(loc, read))

    pool = {}
    for i, (s, op) in enumerate(zip(steps, step_ops)):
        if not op.op_def.fresh_output:
            continue
        for k, t in enumerate(op.outputs):
            key = _static_key(t)
            dead = death.get((s[0], k), (i, step_levels[i], None))
            if key is not None and dead[0] < n:
                pool.setdefault(key, []).append((dead, (s[0], k)))
    for entries in pool.values():
        entries.sort(key=lambda entry: entry[0][0])

    for i, (s, op) in enumerate(zip(steps, step_ops)):
        ikernel, s[5] = s[5], None
        key = _static_key(op.outputs[0]) if ikernel and s[3] == 1 else None
        entries = pool.get(key, ())
        level, alias = step_levels[i], op.op_def.elementwise
        for e, ((last, last_level, alone), loc) in enumerate(entries):
            if last > i:
                break
            if (last < i and last_level < level) or (alias and alone == i):
                del entries[e]
                s[5] = (loc[0], loc[1], ikernel, key[1], key[0])
                break


def _later(a, b):
    """The later of two deaths, field by field; the sole reader stays
    only where both agree on it."""
    return (max(a[0], b[0]), max(a[1], b[1]), a[2] if a[2] == b[2] else None)


def _static_key(t):
    """``(dtype, shape)`` of a tensor whose both are known statically."""
    if t.dtype.np_dtype is None or not t.shape.is_fully_defined:
        return None
    return np.dtype(t.dtype.np_dtype), t.shape.as_tuple()
