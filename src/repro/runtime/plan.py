"""``ExecutionPlan``: the compiled form of one ``(graph, fetches, feeds)``.

This is the execution engine's IR and the graph backend's *only* plan
compiler: ``Session.run``, traced ``ConcreteFunction``s, loaded serving
artifacts, the micro-batcher and the ``Cond``/``While`` branch and body
sub-graphs (:func:`~repro.framework.graph.func_graph.execute_func_graph`)
all compile through :func:`compile_plan` and step through
:meth:`ExecutionPlan.execute`, so every optimization below applies to a
staged loop body exactly as it does to the ops around the loop.

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
- **output-buffer reuse** — a step whose kernel advertises an in-place
  variant (``OpDef.inplace_kernel``) may write its result into the buffer
  of a single-consumer intermediate input (alias-tolerant ufuncs), or —
  for ``inplace_no_alias`` kernels like ``MatMul`` — into any
  intermediate buffer that is provably dead before the step runs, in
  both serial and level-parallel execution order; donated buffers are
  never feeds (caller-owned), baked constants (shared across calls) or
  fetches (returned to the caller);
- **elementwise fusion** — maximal chains/trees of
  fusable ufunc steps whose intermediates are single-consumer and not
  fetched collapse into one ``exec``-compiled composite kernel
  (:mod:`repro.runtime.fusion`), so a k-op chain costs one step
  dispatch instead of k.  Constant pre-evaluation runs *first*, so a
  chain split by a foldable ``Const`` subtree still fuses end to end.
  ``compile_plan(..., fuse=False)`` is the only off switch: the
  one-step-per-op reference the fusion tests compare against.

Compilation also derives the plan's **levels**: a wavefront partition of
the steps by data/control dependency depth (stateful steps additionally
chained in program order).  Steps within one level are mutually
independent, which is what lets :meth:`ExecutionPlan.execute` fan a
level out on a :class:`repro.blocks.scheduler.BlockScheduler` — the
per-block steps of a blocked plan all land in wide levels.

A plan has ONE step schedule, the ``steps`` tuple, and ONE step body,
:func:`_run_steps`: :meth:`ExecutionPlan.execute` calls it on the whole
tuple (the serial walk), hands it to a scheduler one step of a level at
a time (the level walk), or wraps it in a span per step while
``repro.observe`` is recording.  Feeds are bound, and ``execute`` called,
in one place: :class:`repro.runtime.engine.BoundPlan`.
"""

from __future__ import annotations

import functools

import numpy as np

from ..framework.errors import ExecutionError, FetchError
from ..framework.graph.graph import Operation, Tensor
from ..framework.graph.optimize import has_opaque_attrs
from ..observe.events import RECORDER as _REC
from .fusion import fuse_elementwise_steps

__all__ = ["ExecutionPlan", "compile_plan"]


def _run_steps(steps, values):
    """The step body, written once: every walk of a plan — the serial
    loop over ``plan.steps``, a worker running one step of a level, the
    recorder's per-step wrap — is this loop over a sequence of steps."""
    for slot, kernel, locators, single, op_name, inplace in steps:
        try:
            args = [values[j][k] for j, k in locators]
            if inplace is None:
                out = kernel(*args)
            else:
                dj, dk, ikernel, out_shape, out_dtype = inplace
                buf = values[dj][dk]
                out = None
                # Static shapes/dtypes matched at compile time; this
                # cheap runtime guard protects against kernels whose
                # actual output metadata diverged from inference.
                if (type(buf) is np.ndarray and buf.shape == out_shape
                        and buf.dtype == out_dtype):
                    try:
                        out = ikernel(*args, out=buf)
                    except (TypeError, ValueError):
                        # The ufunc refused the out= cast (an operand is
                        # not of its declared dtype); NumPy rejects
                        # before writing, so fall back clean — and say so.
                        _REC.counter("runtime.inplace_refusals")
                if out is None:
                    out = kernel(*args)
        except ExecutionError:
            raise
        except Exception as e:
            raise ExecutionError(
                f"Error executing op {op_name!r}: {e}", op_name=op_name
            ) from e
        values[slot] = (out,) if single else tuple(out)


class ExecutionPlan:
    """A pruned, topologically-ordered, slot-resolved execution plan.

    Attributes:
      steps: ``(slot, kernel, locators, single, op_name, inplace)``
        tuples; ``inplace`` is ``None`` or a buffer-donation record
        ``(donor_slot, donor_index, inplace_kernel, out_shape, out_dtype)``.
      fetch_locators: ``(slot, output_index)`` per flat fetch (``(-1, 0)``
        for ``None`` fetches).
      feed_slots: ``(tensor, slot)`` per feed tensor, in feed order.
      n_slots: total number of value slots (op slots + feed slots).
      base_values: length-``n_slots`` template with pre-evaluated constant
        slots filled; every execution starts from a shallow copy.
      levels: wavefront partition of step indices — steps in one level
        are mutually independent (data, control and stateful-order
        dependencies all land in earlier levels).
      level_steps: ``levels`` with each index replaced by a one-step
        sequence, the unit a scheduler worker runs.
      fused_groups: ``(span_name, member_op_names, member_op_types,
        slot)`` per fused composite step (empty when compiled with
        ``fuse=False`` or nothing fused).
      standalone: ``{slot: reason}`` for every fusable step the fusion
        pass left on its own (``fetched`` / ``multi-consumer`` /
        ``no fusable neighbour`` / ``control edge``).
    """

    __slots__ = ("steps", "fetch_locators", "feed_slots", "n_slots",
                 "base_values", "graph", "graph_version", "levels",
                 "level_steps", "fused_groups", "standalone")

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
        self.level_steps = tuple(
            tuple((steps[i],) for i in level) for level in levels)
        self.fused_groups = fused_groups
        self.standalone = dict(standalone)

    # -- execution ---------------------------------------------------------

    def execute(self, values, scheduler=None):
        """Run every step against ``values`` (feeds already bound).

        With a parallel ``scheduler`` the steps run level by level,
        each level's independent steps fanned out on the scheduler's
        worker pool (slot stores into distinct indices of ``values``
        are safe under the GIL; the kernels release it).
        """
        if scheduler is not None and not (
                scheduler.parallel and len(self.steps) > 1):
            scheduler = None
        if _REC.enabled:
            self._execute_traced(values, scheduler)
        elif scheduler is None:
            _run_steps(self.steps, values)
        else:
            run = functools.partial(_run_steps, values=values)
            for level in self.level_steps:
                if len(level) == 1:
                    run(level[0])
                else:
                    scheduler.map(run, level)

    def _execute_traced(self, values, scheduler):
        """:meth:`execute` while ``repro.observe`` records: the same walks
        with one ``"step"`` span wrapped around each step (named after
        the op, so the profiler's top-kernels view aggregates directly),
        one ``"level"`` span per wavefront on the level walk and a
        ``"plan"`` span around the lot."""
        rec = _REC

        def run(one):
            t0 = rec.begin()
            try:
                _run_steps(one, values)
            finally:
                rec.end(one[0][4], "step", t0, {"slot": one[0][0]})

        t_plan = rec.begin()
        try:
            if scheduler is None:
                for step in self.steps:
                    run((step,))
            else:
                for ln, level in enumerate(self.level_steps):
                    t0 = rec.begin()
                    if len(level) == 1:
                        run(level[0])
                    else:
                        scheduler.map(run, level)
                    rec.end(f"level[{ln}]", "level", t0,
                            {"steps": len(level)})
        finally:
            rec.end("plan.execute", "plan", t_plan,
                    {"steps": len(self.steps)})

    def fetch(self, values):
        """The flat fetch results out of an executed ``values`` array."""
        return [
            values[j][k] if j >= 0 else None for j, k in self.fetch_locators
        ]

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
            f"{len(self.fused_groups)} fused"
        ]
        level_of = {}
        for ln, level in enumerate(self.levels):
            for i in level:
                level_of[i] = ln
        for i, (slot, _kernel, locators, _single, name, inplace) in (
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
      fuse: collapse chains/trees of fusable elementwise steps into
        ``exec``-compiled composite kernels (:mod:`repro.runtime.fusion`).
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
    # Slots whose base value is baked (shared across calls; never donate).
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

        steps.append([slot, kernel, locators, len(op.outputs) == 1,
                      op.name, ikernel])
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
    _assign_buffer_reuse(steps, step_ops, fetch_locators, const_slots,
                         len(needed), step_levels)

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
    # Fused composite steps answer for every member op they absorbed,
    # so control dependencies held on a fused-away op still resolve.
    index_of_op = {}
    for i, op in enumerate(step_ops):
        for mid in getattr(op, "member_ids", None) or (id(op),):
            index_of_op[mid] = i
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
    arrays.
    """
    arr = np.asarray(value).copy()
    arr.setflags(write=False)
    return arr


def _assign_buffer_reuse(steps, step_ops, fetch_locators, const_slots,
                         n_op_slots, step_levels):
    """Mark steps that may write their output into a reusable buffer.

    A donated buffer must be produced by an executed step of this plan
    whose kernel *allocates* its result (``OpDef.fresh_output``) — never
    a feed (the caller owns that array), a baked constant (shared across
    calls), or the output of an alias-returning kernel like ``Identity``
    or a variable read (writing into those would corrupt caller arrays
    or live state) — and never a fetch (the caller receives it).  The
    in-place variant's output shape/dtype must be statically known and
    match the donor exactly.  Two donation disciplines:

    - **alias-tolerant** kernels (ufuncs) take a dying *input*: a buffer
      this step is the sole consumer of, written while being read;
    - **no-alias** kernels (``inplace_no_alias``, e.g. BLAS ``MatMul``)
      take any intermediate that is provably dead before the step runs —
      its last consumer finishing earlier both in serial step order
      *and* in level order, so the level-parallel path can never be
      writing it concurrently — and every consumer a ``fresh_output``
      kernel, so nothing that outlives the consumer (a view, a
      ``TensorArray`` element, a loop body's output) still points at it.

    Each buffer is donated at most once (the ``claimed`` set): after
    donation it carries the donee's output, which later steps may read.
    """
    donatable = {}
    for i, (s, op) in enumerate(zip(steps, step_ops)):
        if op.op_def.fresh_output:
            for k in range(len(op.outputs)):
                donatable[(s[0], k)] = i

    consumers = {}
    last_use = {}
    # Buffers read by a kernel that does not allocate its result: the
    # result may be a view of the buffer or hold a reference to it, so
    # the last *reader* says nothing about when the memory is dead.
    escaped = set()
    for i, (s, op) in enumerate(zip(steps, step_ops)):
        for loc in s[2]:
            consumers[loc] = consumers.get(loc, 0) + 1
            li, ll = last_use.get(loc, (-1, -1))
            last_use[loc] = (max(li, i), max(ll, step_levels[i]))
        if not op.op_def.fresh_output:
            escaped.update(s[2])
    fetched = set(fetch_locators)

    # Dead-buffer pool for no-alias kernels: donatable intermediates
    # keyed by (dtype, shape), each tagged with the last (index, level)
    # at which anything touches the buffer.
    pool = {}
    for s, op in zip(steps, step_ops):
        for k, t in enumerate(op.outputs):
            loc = (s[0], k)
            if loc not in donatable or loc in fetched or loc in escaped:
                continue
            if loc[0] in const_slots or loc[0] >= n_op_slots:
                continue
            if t.dtype.np_dtype is None or not t.shape.is_fully_defined:
                continue
            pi = donatable[loc]
            li, ll = last_use.get(loc, (-1, -1))
            entry = (max(li, pi), max(ll, step_levels[pi]), loc)
            pool.setdefault(
                (np.dtype(t.dtype.np_dtype), t.shape.as_tuple()), []
            ).append(entry)
    for entries in pool.values():
        entries.sort()

    claimed = set()
    for i, (s, op) in enumerate(zip(steps, step_ops)):
        ikernel, s[5] = s[5], None
        if ikernel is None or not s[3]:
            continue
        out_t = op.outputs[0]
        out_dtype = out_t.dtype.np_dtype
        if out_dtype is None or not out_t.shape.is_fully_defined:
            continue
        out_shape = out_t.shape.as_tuple()

        if op.op_def.inplace_no_alias:
            lv = step_levels[i]
            for li, ll, loc in pool.get(
                    (np.dtype(out_dtype), out_shape), ()):
                if li >= i or ll >= lv:
                    continue
                if loc in claimed:
                    continue
                s[5] = (loc[0], loc[1], ikernel, out_shape,
                        np.dtype(out_dtype))
                claimed.add(loc)
                break
            continue

        for t, loc in zip(op.inputs, s[2]):
            if loc not in donatable or loc[0] in const_slots:
                continue
            if loc[0] >= n_op_slots:  # a feed slot
                continue
            if consumers.get(loc, 0) != 1 or loc in fetched or loc in claimed:
                continue
            if t.dtype.np_dtype != out_dtype:
                continue
            if not t.shape.is_fully_defined or t.shape.as_tuple() != out_shape:
                continue
            s[5] = (loc[0], loc[1], ikernel, out_shape, np.dtype(out_dtype))
            claimed.add(loc)
            break
