"""The differential oracle: a staged program computes what the imperative
one computes, on whichever backend and engine configuration runs it.

One Hypothesis strategy (:func:`programs`) writes programs over the
public ops API; the hand-written programs that once answered wrongly are
fixed seeds (:data:`SEEDS`).  One harness (:func:`check`) compares each
program's eager run with ``repro.function`` (called twice), ``Session.run``
of its trace, its plan fused and unfused under every walk (serial,
``BlockScheduler(4)`` levels, recorder on), ``BlockArray`` inputs at 1
and 4 workers (lowered, and replayed eagerly through the block ops),
Lantern where staging succeeds (what it refuses is counted, by reason)
and ``save`` → ``load``.

Bit-exact (dtype, shape, bytes): every graph-backend configuration and
every loaded executable; blocked runs unless they sum inexact values in
another order.  Lantern: a tolerance.  Every run checks declared static
dtypes and shapes against values and that ``runtime.inplace_refusals``
never moves; float64 programs are differentiated three ways (eager tape,
tape through ``repro.function``, central finite differences).

Search further: ``pytest tests/test_oracle.py --hypothesis-profile long``.
"""

import collections
import functools
import inspect
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.autograph as ag
import repro.autograph.operators  # noqa: F401 - registers UndefinedConst
from repro import framework as fw
from repro import observe
from repro.blocks import BlockArray, BlockGrid, BlockScheduler
from repro.blocks.lowering import BLOCK_RULES, lower_blocked_graph
from repro.framework import TensorArray, dtypes, ops
from repro.framework.eager.execute import execute_op
from repro.framework.errors import UnstagedConstructError
from repro.framework.graph.gradients import gradients
from repro.framework.graph.tensor_array import TensorArrayValue
from repro.framework.ops import dispatch
from repro.framework.registry import elementwise_ops, get_op_def, list_ops
from repro.function import ExportError
from repro.lantern.lowering import LanternLoweringError
from repro.runtime import BoundPlan, compile_plan
from repro.serving import load, save

# Programs divide by zero and take roots of negatives on purpose: every
# configuration must produce the same inf / NaN bits the eager run does.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

DTYPES = (dtypes.bool_, dtypes.int32, dtypes.int64, dtypes.float32,
          dtypes.float64)
NAMED = {dt.np_dtype for dt in DTYPES}

# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


class Program:
    """One imperative program plus the facts the harness needs about it.

    ``fn(*args)`` runs on eager tensors and stages under a trace;
    ``eager`` replaces it for the eager reference where a staged-only
    construct (``set_loop_options``) has a Python spelling.  Every
    ``Variable`` the program touches is listed with its initial value,
    so each configuration starts from the same state and ends in the
    same one.
    """

    def __init__(self, name, fn, args, *, eager=None, variables=(),
                 autograph=True, grids=None, mode=None, kinks=None,
                 source=None):
        self.name, self.fn, self.args = name, fn, tuple(args)
        self.eager = eager or fn
        self.variables = [(v, np.copy(v.numpy())) for v in variables]
        self.autograph = autograph
        # By default one row / column, then the rest: irregular blocks.
        self.grids = grids or {
            i: tuple((1, d - 1) if d > 1 else (d,) for d in np.shape(a))
            for i, a in enumerate(self.args) if np.ndim(a) == 2}
        # "integer": every float is a small integer, so any summation
        # order is exact; "float64": differentiated.
        self.mode, self.kinks = mode, kinks
        self.source = source

    def reset(self):
        for v, init in self.variables:
            v.assign(init)

    def state(self):
        return [np.copy(v.numpy()) for v, _ in self.variables]

    def __repr__(self):
        args = [(np.asarray(a).dtype.name, np.asarray(a).tolist())
                for a in self.args]
        state = [(v.dtype.name, init.tolist()) for v, init in self.variables]
        return (f"Program({self.name}: {self.source or ''} on {args}, "
                f"variables {state})")


def _eager(args):
    """Eager tensors of ``args`` at the dtype ``repro.function`` gives
    them (``ops.constant`` reads a NumPy float scalar as a Python float)."""
    return [ops.constant(np.asarray(a)) for a in args]


def _flat(result):
    return [np.asarray(leaf.numpy() if hasattr(leaf, "numpy") else leaf)
            for leaf in fw.nest.flatten(result)]


def assert_same(got, want, what=""):
    """dtype + shape + bytes — NaN-safe (same ops in the same order make
    the same NaN payloads)."""
    assert len(got) == len(want), what
    for i, (a, b) in enumerate(zip(got, want)):
        a, b = np.asarray(a), np.asarray(b)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), (what, i)
        assert a.tobytes() == b.tobytes(), (what, i, a, b)


def assert_close(got, want, what, dtype=True):
    """Shape, dtype (unless ``dtype=False``) and values within float32
    rounding — or ``want``'s own, if coarser (float16)."""
    assert len(got) == len(want), what
    for i, (a, b) in enumerate(zip(got, want)):
        a, b = np.asarray(a), np.asarray(b)
        assert (a.dtype if dtype else None, a.shape) == (
            b.dtype if dtype else None, b.shape), (what, i)
        eps = np.finfo(b.dtype).eps if b.dtype.kind == "f" else 0.0
        np.testing.assert_allclose(
            a.astype(np.float64), b.astype(np.float64),
            rtol=max(1e-4, 8 * eps), atol=1e-5, equal_nan=True,
            err_msg=f"{what}[{i}]")


# ---------------------------------------------------------------------------
# The strategy
# ---------------------------------------------------------------------------

UNARY = {
    "Neg": ops.negative, "Abs": ops.abs, "Exp": ops.exp, "Log": ops.log,
    "Tanh": ops.tanh, "Sqrt": ops.sqrt, "Square": ops.square,
    "Sign": ops.sign, "Floor": ops.floor, "Sigmoid": ops.sigmoid,
    "Relu": ops.relu, "LogicalNot": ops.logical_not,
}
BINARY = {
    "Add": ops.add, "Sub": ops.subtract, "Mul": ops.multiply,
    "Pow": ops.pow, "Maximum": ops.maximum, "Minimum": ops.minimum,
    "Div": ops.divide, "FloorDiv": ops.floordiv, "Mod": ops.mod,
    "Greater": ops.greater, "GreaterEqual": ops.greater_equal,
    "Less": ops.less, "LessEqual": ops.less_equal, "Equal": ops.equal,
    "NotEqual": ops.not_equal, "LogicalAnd": ops.logical_and,
    "LogicalOr": ops.logical_or,
}
REDUCE = {"Sum": ops.reduce_sum, "Mean": ops.reduce_mean,
          "Max": ops.reduce_max, "Min": ops.reduce_min,
          "Prod": ops.reduce_prod, "All": ops.reduce_all,
          "Any": ops.reduce_any}
#: Ops whose blocked decomposition sums partials in another order.
ACCUMULATING = {"MatMul", "Sum", "Mean", "Prod"}
#: What a float64 program is differentiated through: the ops whose
#: ``grad_fn`` covers every float operand.
SMOOTH_UNARY = ["Neg", "Abs", "Exp", "Log", "Tanh", "Sqrt", "Square",
                "Sigmoid", "Relu"]
SMOOTH_BINARY = ["Add", "Sub", "Mul", "Div", "Maximum", "Minimum", "Pow"]
SMOOTH_REDUCE = ["Sum", "Mean", "Max", "Min"]

SHAPES = [(3, 4), (4,), (3,), (3, 1), (1, 4), ()]
INDEXES = [(0,), (-1,), (-1, -1), (2, slice(1, None)), (slice(-3, None),),
           (slice(1, -1), -2), (slice(None), slice(-2, None)),
           (slice(0, 1), slice(0, 1)), (slice(None, -1), slice(1, 3)),
           (Ellipsis, 0)]


def _value(rng, shape, dtype, mode):
    if dtype == dtypes.bool_:
        return rng.integers(0, 2, size=shape).astype(bool)
    if mode == "integer" or dtype.is_integer:
        return rng.integers(-3, 4, size=shape).astype(dtype.np_dtype)
    return (rng.standard_normal(shape) * 2).astype(dtype.np_dtype)


#: Where a float64 op is not smooth: ``|x|`` (0), ``|x - y|`` (1) or
#: ``|y|`` (2) small.
KINKS = {"Abs": 0, "Relu": 0, "Sqrt": 0, "Log": 0, "Pow": 0, "Maximum": 1,
         "Minimum": 1, "Div": 2}


def _kink(op, x, y=0.0):
    x, y = (np.asarray(getattr(v, "numpy", lambda: v)(), np.float64)
            for v in (x, y))
    return np.min(np.abs((x, x - y, y)[KINKS[op]]), initial=np.inf)


def _step(instr, nodes, env, kinks=None):
    """Apply one instruction; ``kinks`` (eager runs only) collects how
    far each non-smooth op's operands are from its kink."""
    kind, *a = instr
    if kind == "const":
        return ops.constant(a[0])
    if kind == "capture":
        return env["captures"][0]
    if kind == "read":
        return env["variables"][0].value()
    x = nodes[a[1] if kind in ("unary", "binary", "reduce") else a[0]]
    if kind in ("unary", "binary"):
        operands = [x] if kind == "unary" else [
            x, a[2][1] if isinstance(a[2], tuple) else nodes[a[2]]]
        if kinks is not None and a[0] in KINKS:
            kinks.append(_kink(a[0], *operands))
        return (UNARY if kind == "unary" else BINARY)[a[0]](*operands)
    if kind == "reduce":
        if kinks is not None and a[0] in ("Max", "Min") and x.shape.rank:
            top = np.sort(x.numpy().reshape(-1) if a[2] is None
                          else x.numpy(), axis=-1 if a[2] is None else a[2])
            kinks.append(np.min(np.diff(top, axis=-1 if a[2] is None
                                        else a[2]), initial=np.inf))
        return REDUCE[a[0]](x, axis=a[2], keepdims=a[3])
    if kind == "cast":
        return ops.cast(x, a[1])
    if kind == "assign":
        v = env["variables"][0]
        return v.assign(ops.cast(x, v.dtype.name))
    if kind == "matmul":
        return ops.matmul(x, nodes[a[1]], transpose_a=a[2], transpose_b=a[3])
    if kind == "transpose":
        return ops.transpose(x, perm=a[1])
    if kind == "softmax":
        return ops.softmax(x)
    if kind == "concat":
        return ops.concat([x, nodes[a[1]]], axis=a[2])
    if kind == "getitem":
        return x[a[1]]
    if kind == "where":
        return ops.where(x, nodes[a[1]], nodes[a[2]])
    if kind == "cond":
        y = nodes[a[1]]
        return ops.cond(ops.greater(ops.reduce_sum(x), 0),
                        lambda: UNARY[a[2]](y), lambda: UNARY[a[3]](y))
    assert kind == "while"

    def body(j, v):
        if a[1] == "grow":
            return j + 1, ops.concat([v, v], axis=0)
        if a[1] == "drift":
            return j + 1, ops.subtract(ops.multiply(v, 1.1), j)
        return j + 1, UNARY[a[1]](v)

    return ops.while_loop(lambda j, v: j < nodes[a[2]], body,
                          (np.int32(0), x))[1]


def _run_instructions(instrs, fetch, env, args, kinks=None):
    nodes = list(args)
    for instr in instrs:
        nodes.append(_step(instr, nodes, env, kinks))
    return tuple(nodes[i] for i in fetch)


def _kinks_of(instrs, env, args):
    kinks = []
    _run_instructions(instrs, (), env, _eager(args), kinks)
    return kinks


@st.composite
def programs(draw):
    """A random program, built by running each drawn instruction eagerly
    and keeping it only if NumPy accepts it (and, in ``integer`` mode,
    only if every float stays a small integer, so any summation order
    is exact).  ``float64`` programs are differentiated."""
    mode = draw(st.sampled_from(["mixed", "mixed", "integer", "float64"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f64 = mode == "float64"
    some_dtype = lambda: dtypes.float64 if f64 else draw(  # noqa: E731
        st.sampled_from(DTYPES))
    some = lambda options: draw(st.sampled_from(options))  # noqa: E731
    args = [_value(rng, some(SHAPES), some_dtype(), mode)
            for _ in range(draw(st.integers(1, 3)))]
    kinds = ["unary", "binary", "binary", "const", "matmul", "reduce",
             "transpose", "concat", "getitem", "where", "softmax"]
    env = {"captures": [], "variables": []}
    if not f64:
        kinds.append("cast")
        if draw(st.booleans()):
            args.append(np.int32(draw(st.integers(0, 3))))
            kinds += ["cond", "while", "while"]
        if draw(st.booleans()):
            env["captures"].append(ops.constant(_value(
                rng, some(SHAPES[:2]), some(DTYPES[1:]), mode)))
            kinds.append("capture")
        if draw(st.booleans()):
            env["variables"].append(fw.Variable(_value(
                rng, some(SHAPES[:2]), some(DTYPES[1:]), mode)))
            kinds += ["read", "assign"]
    variables = env["variables"]
    initial = [np.copy(v.numpy()) for v in variables]
    unary = SMOOTH_UNARY if f64 else sorted(UNARY)
    nodes, instrs = _eager(args), []

    def pick(accept=lambda node: True):
        # The newest node half the time: chains are what fusion and
        # buffer donation rewrite.
        fits = [i for i, node in enumerate(nodes) if accept(node)]
        if fits and fits[-1] == len(nodes) - 1 and draw(st.booleans()):
            return fits[-1]
        return some(fits) if fits else None

    def shape(i):
        return tuple(np.shape(nodes[i].numpy()))

    for _ in range(draw(st.integers(2, 12))):
        kind = some(kinds)
        if kind == "unary":
            instr = (kind, some(unary), pick())
        elif kind == "binary":
            other = (("scalar", some([2, -1, 0.5, 1.5, True] if not f64
                                     else [2, -1, 0.5]))
                     if draw(st.integers(0, 3)) == 0 else pick())
            instr = (kind, some(SMOOTH_BINARY if f64 else sorted(BINARY)),
                     pick(), other)
        elif kind == "reduce":
            instr = (kind, some(SMOOTH_REDUCE if f64 else sorted(REDUCE)),
                     pick(), some([None, 0, 1, -1, -2]), draw(st.booleans()))
        elif kind == "const":
            instr = (kind, _value(rng, some(SHAPES), some_dtype(), mode))
        elif kind == "matmul":
            x, y = (pick(lambda node: node.shape.rank == 2) for _ in "xy")
            flags = [] if x is None else [
                (ta, tb) for ta, tb in itertools.product((False, True),
                                                         repeat=2)
                if shape(x)[1 - ta] == shape(y)[tb]]
            instr = (kind, x, y) + (some(flags) if flags else (None,))
        elif kind == "assign":
            instr = (kind, pick(lambda node: tuple(np.shape(node.numpy()))
                                == tuple(variables[0].shape)))
        elif kind == "where":
            instr = (kind, pick(lambda node: node.dtype == dtypes.bool_),
                     pick(), pick())
        else:
            instr = (kind, *{
                "cast": lambda: (pick(), some(DTYPES).name),
                "capture": lambda: (),
                "read": lambda: (),
                "softmax": lambda: (pick(),),
                "transpose": lambda: (pick(), some(
                    [None, (1, 0), (0, 1), (-1, 0)])),
                "getitem": lambda: (pick(), some(INDEXES)),
                "concat": lambda: (pick(), pick(), some([0, 1, -1, -2])),
                "cond": lambda: (pick(), pick(), some(unary), some(unary)),
                "while": lambda: (pick(), some(
                    ["grow", "drift", "Neg", "Abs", "Sqrt", "Tanh"]),
                    len(args) - 1),
            }[kind]())
        if any(part is None for part in instr):
            continue
        before = [np.copy(v.numpy()) for v in variables]
        try:
            with np.errstate(all="ignore"):
                out = _step(instr, nodes, env)
            value = np.asarray(out.numpy())
            assert value.dtype != object
            assert mode != "integer" or value.dtype.kind != "f" or (
                np.all(np.isfinite(value))
                and np.all(value == np.round(value))
                and np.all(np.abs(value) <= 2**10))
        except Exception:  # noqa: BLE001 - NumPy refused the combination
            for v, value in zip(variables, before):
                v.assign(value)
            continue
        instrs.append(instr)
        nodes.append(out)
    for v, value in zip(variables, initial):
        v.assign(value)
    last = len(nodes) - 1
    return instructions(
        "generated", args, instrs, sorted({last, draw(st.integers(0, last))}),
        env, mode=mode,
        grids={i: tuple(draw(_splits_of(d)) for d in np.shape(a))
               for i, a in enumerate(args) if np.ndim(a) == 2})


def instructions(name, args, instrs, fetch, env=None, **facts):
    """A program in the strategy's own form — what Hypothesis prints."""
    env = env or {"captures": [], "variables": []}
    instrs, fetch = tuple(instrs), tuple(fetch)
    fn = functools.partial(_run_instructions, instrs, fetch, env)
    return Program(name, lambda *a: fn(a), args, autograph=False,
                   variables=env["variables"], source=(instrs, fetch),
                   kinks=functools.partial(_kinks_of, instrs, env), **facts)


def _splits_of(n):
    """A random ordered partition of ``n`` into positive parts."""
    def clip(parts):
        out = []
        for p in parts:
            p = min(p, n - sum(out))
            if p > 0:
                out.append(p)
        return tuple(out + [n - sum(out)] if sum(out) < n else out)

    return st.lists(st.integers(1, max(n, 1)), min_size=1).map(clip)


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pool():
    """The 4-worker scheduler every level walk and blocked replay uses."""
    with BlockScheduler(num_workers=4) as scheduler:
        yield scheduler


def _declared(tensor, value, what):
    """A declared static dtype/shape must be the value's, unless the
    declaration is ``variant`` / unknown."""
    if not isinstance(value, (np.ndarray, np.generic)):
        return
    if tensor.dtype != dtypes.variant:
        assert tensor.dtype.np_dtype == value.dtype, (
            what, tensor, value.dtype)
    assert tensor.shape.is_compatible_with(fw.TensorShape(value.shape)), (
        what, tensor, value.shape)


def walks(plan, feeds, pool):
    """Every walk of the one step body: ``(name, run)`` pairs, ``run(flat
    values)`` executing ``plan`` serially or on ``pool``'s levels, with
    the recorder off or on."""
    for walk, scheduler, recording in [
            ("serial", None, False), ("levels", pool, False),
            ("recorded", None, True), ("recorded levels", pool, True)]:
        yield walk, functools.partial(
            _walk, BoundPlan(plan, feeds, scheduler), recording)


def _walk(bound, recording, values):
    if recording:
        observe.enable()
    try:
        return bound.execute_flat(values)
    finally:
        if recording:
            observe.disable()
            observe.RECORDER.clear()


def _every_walk(program, pool, cf, graph, fetches, feeds, args, want,
                want_state, compare=assert_same):
    """``compile_plan(fuse=)`` × :func:`walks`, fed ``args`` and ``cf``'s
    captures (resolved after each reset: a variable's capture is its
    value)."""
    plans = {fuse: compile_plan(graph, fetches, feeds, fuse=fuse)
             for fuse in (True, False)}
    assert len(plans[True].steps) <= len(plans[False].steps)
    for fuse, plan in plans.items():
        for walk, run in walks(plan, feeds, pool):
            program.reset()
            got = run(list(args) + list(cf._resolved_captures()))
            compare(got[:len(want)], want, ("plan", fuse, walk))
            assert_same(program.state(), want_state,
                        ("plan state", fuse, walk))


def _session(program, cf, want, want_state):
    """``Session.run`` of the trace itself, every intermediate fetched:
    each one's declaration is checked against its value."""
    g = cf.graph
    program.reset()
    feed = dict(zip(g.inputs, program.args))
    feed.update(zip([c.placeholder for c in g.external_captures],
                    cf._resolved_captures()))
    tensors = [t for op in g.ops if op.type != "Placeholder"
               for t in op.outputs]
    values = fw.Session(g).run(
        list(g.flat_outputs) + tensors + cf._state_fetches_traced, feed)
    assert_same(values[:len(want)], want, "session")
    assert_same(program.state(), want_state, "session state")
    for t, v in zip(tensors, values[len(want):]):
        _declared(t, v, "session intermediate")


def _eager_blocked(cf, args, scheduler, refused):
    """Replay the trace eagerly: every op with a block rule runs it on
    ``BlockArray`` values (as the lowering stages it), the rest densely;
    the names of the ops whose rule refuses are added to ``refused``."""
    env = {}
    for t, a in zip(cf._feeds, args):
        env[id(t)] = a
    for t, a in zip(cf._capture_feeds, cf._resolved_captures()):
        env[id(t)] = a
    for op in cf.optimized_graph.ops:
        if op.type == "Placeholder":
            continue
        ins = [env[id(t)] for t in op.inputs]
        rule = BLOCK_RULES.get(op.type)
        out = None
        if rule is not None and any(isinstance(v, BlockArray) for v in ins):
            kwargs = dict(op.attrs)
            if "scheduler" in inspect.signature(rule).parameters:
                kwargs["scheduler"] = scheduler
            try:
                out = rule(*ins, **kwargs)
            except (ValueError, TypeError, IndexError):
                refused.add(op.name)  # runs dense, as the lowering does
        if out is None:
            dense = [v.to_dense() if isinstance(v, BlockArray) else v
                     for v in ins]
            out = op.op_def.kernel(*dense, **op.attrs)
        outs = (out,) if len(op.outputs) == 1 else tuple(out)
        for t, v in zip(op.outputs, outs):
            env[id(t)] = v
    return [np.asarray(env[id(t)].to_dense() if isinstance(
        env[id(t)], BlockArray) else env[id(t)])
        for t in cf._output_fetches]


def _blocked(program, pool, dense_cf, want, planned, want_state):
    """The 2-D arguments as ``BlockArray``s: called at 1 and 4 workers,
    the lowered plan under every walk, and the trace replayed eagerly."""
    args = list(program.args)
    for i, splits in program.grids.items():
        args[i] = BlockArray.from_dense(
            args[i], grid=BlockGrid(np.shape(args[i]), splits))
    # Inside a ``Cond`` / ``While`` an op runs dense, whatever it sums.
    graph_ops = {op.type for op in dense_cf.optimized_graph.ops}
    exact = program.mode == "integer" or not graph_ops & ACCUMULATING
    compare = assert_same if exact else assert_close
    for workers in (1, 4):
        fn = repro.function(program.fn, autograph=program.autograph,
                            num_workers=workers)
        program.reset()
        compare(_flat(fn(*args)), want, ("blocked", workers))
        assert_same(program.state(), want_state, ("blocked state", workers))
    cf = fn.get_concrete_function(*args)
    lowered = lower_blocked_graph(cf.optimized_graph, cf._runtime_feeds,
                                  cf._run_fetches, cf._block_grids)
    flat_args = []
    for a in args:
        flat_args.extend(a.block_list() if isinstance(a, BlockArray) else [a])
    _every_walk(program, pool, cf, lowered.graph, list(lowered.fetches),
                list(lowered.feeds), flat_args, planned, want_state, compare)
    if not program.variables and not graph_ops & {"Cond", "While"}:
        refused = set()
        for scheduler in (None, pool):
            compare(_eager_blocked(cf, args, scheduler, refused), planned,
                    ("eager blocked", scheduler))
        # The lowering runs an op with a rule dense only where the rule
        # refuses eagerly too.
        assert {name for name, op_type, _ in cf._dense_fallbacks
                if op_type in BLOCK_RULES} <= refused, cf._dense_fallbacks


def _export(program, exe, tmp_path, want, what):
    """``save`` → ``load`` is bit-exact — or ``save`` refuses, exactly
    when the pre-flight check says it will."""
    path = str(tmp_path / what)
    program.reset()
    if not exe.export_compatibility()[0]:
        with pytest.raises(ExportError):
            save(exe, path)
        return
    save(exe, path)
    assert_same(_flat(load(path)(*program.args)), want, ("loaded", what))


#: What the Lantern leg did with each program it was handed: ``"ran"``,
#: or the refusal's reason (a ``LanternLoweringError.reason``, or the
#: loop construct Lantern does not stage).
LANTERN_TALLY = collections.Counter()


def _lantern(program, want, tmp_path):
    """``backend="lantern"`` where staging succeeds, live and loaded."""
    fn = repro.function(program.fn, backend="lantern",
                        autograph=program.autograph)
    program.reset()
    try:
        got = _flat(fn(*program.args))
    except LanternLoweringError as e:
        LANTERN_TALLY[e.reason] += 1
        return
    except UnstagedConstructError as e:
        assert e.backend == "Lantern", e
        LANTERN_TALLY[e.construct] += 1
        return
    LANTERN_TALLY["ran"] += 1
    # Lantern computes in float32 whatever the operands' dtypes: a float64
    # result past float32's range is inf there.
    assert_close(got, [w.astype(np.float32) if w.dtype == np.float64 else w
                       for w in want], "lantern", dtype=False)
    live = _flat(fn(*program.args))
    _export(program, fn.get_concrete_function(*program.args), tmp_path,
            live, "lantern")


def check(program, pool, tmp_path):
    """Run ``program`` in every configuration that applies to it."""
    before = observe.counters().get("runtime.inplace_refusals", 0)
    pristine = [np.copy(a) for a in program.args]
    program.reset()
    with np.errstate(all="ignore"):
        want = _flat(program.eager(*_eager(program.args)))
        want_state = program.state()

        fn = repro.function(program.fn, autograph=program.autograph)
        for call in ("first", "second"):
            program.reset()
            got = _flat(fn(*program.args))
            assert_same(got, want, ("function", call))
            assert_same(program.state(), want_state, ("state", call))
        assert fn.trace_count == 1
        assert_same(program.args, pristine, "caller's arrays")
        (cf,) = fn.concrete_functions()
        # The leaves the plan computes (a returned constant is not one).
        planned = [w for w, (kind, _) in zip(want, cf._output_template)
                   if kind == "t"]
        for t, v in zip(cf.outputs, planned):
            _declared(t, v, "output")

        _session(program, cf, planned, want_state)
        _every_walk(program, pool, cf, cf.optimized_graph, cf._run_fetches,
                    cf._runtime_feeds, program.args, planned, want_state)
        _export(program, cf, tmp_path, want, "graph")
        if program.grids:
            _blocked(program, pool, cf, want, planned, want_state)
        if not program.variables:
            _lantern(program, want, tmp_path)
    program.reset()
    assert observe.counters().get(
        "runtime.inplace_refusals", 0) == before
    if program.mode == "float64":
        check_gradients(program)


# ---------------------------------------------------------------------------
# Gradients: eager tape == tape through repro.function == finite differences
# ---------------------------------------------------------------------------


def _loss(outputs):
    total = None
    for out in fw.nest.flatten(outputs):
        if not (hasattr(out, "dtype") and out.dtype.is_floating):
            continue
        term = ops.reduce_sum(out)
        total = term if total is None else ops.add(total, term)
    return total


def _taped(fn, args):
    tensors = _eager(args)
    with fw.GradientTape() as tape:
        for t in tensors:
            tape.watch(t)
        loss = _loss(fn(*tensors))
    grads = tape.gradient(loss, tensors)
    return [np.zeros_like(a) if g is None else np.asarray(g.numpy())
            for a, g in zip(args, grads)]


FD_STEP = 1e-6


def _finite_differences(fn, args, h=FD_STEP):
    def loss_at(i, j, step):
        values = [np.copy(v) for v in args]
        values[i][j] += step
        return float(_loss(fn(*_eager(values))).numpy())

    return [np.reshape([(loss_at(i, j, h) - loss_at(i, j, -h)) / (2 * h)
                        for j in np.ndindex(np.shape(a))], np.shape(a))
            for i, a in enumerate(args)]


def check_gradients(program, kink_tol=1e-3):
    """Every float64 argument: eager tape, tape through ``repro.function``
    and central differences agree.  Skipped (False) at a point within
    ``kink_tol`` of a kink or a domain edge, or where the loss is not
    finite."""
    args = [np.asarray(a, np.float64) for a in program.args]
    with np.errstate(all="ignore"):
        if min(program.kinks(args) if program.kinks else (),
               default=np.inf) < kink_tol:
            return False
        loss = _loss(program.fn(*_eager(args)))
        if loss is None or not np.isfinite(loss.numpy()):
            return False
        eager = _taped(program.fn, args)
        if not all(np.all(np.isfinite(g)) for g in eager):
            return False
        staged = _taped(repro.function(program.fn,
                                       autograph=program.autograph), args)
        numeric = _finite_differences(program.fn, args)
    # A difference quotient of a loss of size |L| carries rounding error
    # up to about eps * |L| / h.
    noise = 100 * np.finfo(np.float64).eps * abs(float(loss.numpy())) / FD_STEP
    for e, s, n in zip(eager, staged, numeric):
        np.testing.assert_allclose(s, e, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            e, n, rtol=1e-5, atol=1e-5 * max(1.0, np.max(np.abs(n))) + noise)
    return True


# ---------------------------------------------------------------------------
# The fixed seeds: programs that once answered wrongly, and the families
# the per-feature suites pinned
# ---------------------------------------------------------------------------


def _rng_f32(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape).astype(
        np.float32)


def cond_with_a_chain_per_branch(x):
    if ops.reduce_sum(x) > 0.0:
        y = ops.tanh(ops.add(ops.multiply(x, x), 1.0))
    else:
        y = ops.multiply(ops.exp(ops.negative(x)), 0.5)
    return y


def while_matmul_tanh_with_array_writes(x, w, b, n):
    h = x
    outputs = fw.TensorArray(fw.float32, size=0)
    i = np.int32(0)
    while i < n:
        h = ops.tanh(ops.add(ops.matmul(h, w), b))
        outputs = outputs.write(i, ops.exp(h))
        # Same-shaped matmuls that run *after* the write, which was the
        # element buffer's last reader: none may write its result into
        # memory the array still points at.
        h = ops.matmul(ops.matmul(ops.matmul(h, w), w), w)
        i = i + 1
    return h, outputs.stack()


def while_inside_cond(x, n):
    if ops.reduce_max(x) > 0.0:
        i = np.int32(0)
        while i < n:
            x = ops.tanh(ops.add(ops.multiply(x, 2.0), 1.0))
            i = i + 1
    else:
        x = ops.negative(x)
    return x


COUNTER = fw.Variable(np.float32(0.0), name="oracle_counter")


def loop_with_unread_assign(x, n):
    i = np.int32(0)
    while i < n:
        COUNTER.assign_add(1.0)   # no output depends on this
        x = ops.sqrt(ops.add(ops.square(x), 1.0))
        i = i + 1
    return x


def loop_with_maximum_iterations(x, n):
    i = np.int32(0)
    while i < n:
        ag.set_loop_options(maximum_iterations=3)
        x = ops.exp(ops.negative(ops.abs(x)))
        i = i + 1
    return x, i


def loop_with_maximum_iterations_eager(x, n):
    for _ in range(min(int(np.asarray(n)), 3)):
        x = ops.exp(ops.negative(ops.abs(x)))
    return x, ops.constant(np.int32(min(int(np.asarray(n)), 3)))


def loop_var_passed_through(x, k, n):
    # `k` is a declared loop variable the body hands back untouched.
    _, x, k = ops.while_loop(
        lambda i, x, k: i < n,
        lambda i, x, k: (i + 1, ops.tanh(ops.multiply(ops.add(x, k), k)), k),
        (np.int32(0), x, k))
    return x, k


# Loop variables that grow: each must stop declaring its entry shape, and
# so must everything derived from it, down into nested sub-graphs.


def grow(x, n):
    one = ops.constant(np.ones(1, np.float32))
    i = np.int32(0)
    while i < n:
        y = ops.tanh(ops.add(ops.multiply(one, one), x))
        x = ops.concat([y, y], 0)
        i = i + 1
    return x


def grow_into_nested_cond(x, n):
    s = ops.constant(np.float32(0.0))
    i = np.int32(0)
    while i < n:
        if i > 0:
            s = s + ops.reduce_sum(ops.tanh(ops.multiply(x, x)))
        else:
            s = s - 1.0
        x = ops.concat([x, x], 0)
        i = i + 1
    return s, x


def grow_into_nested_while(x, n):
    s = ops.constant(np.float32(0.0))
    i = np.int32(0)
    while i < n:
        y = ops.multiply(x, 2.0)    # derived from the growing variable
        j = np.int32(0)
        while j < 2:
            s = s + ops.reduce_sum(ops.exp(ops.negative(y)))
            j = j + 1
        x = ops.concat([x, x], 0)
        i = i + 1
    return s, x


def grow_drags_a_second_variable(x, n):
    # `y` only stops keeping its shape once `x` is known to lose its
    # own: settling the declared shapes takes two rounds.
    y = x
    s = ops.constant(np.float32(0.0))
    i = np.int32(0)
    while i < n:
        if i > 0:
            s = s + ops.reduce_sum(y)
        else:
            s = s - 1.0
        y = ops.multiply(x, 2.0)
        x = ops.concat([x, x], 0)
        i = i + 1
    return s, x, y


# A guessed dtype answered these wrongly: a sub-graph coerces every
# capture to its *declared* dtype, truncating a too-narrow declaration.


def mean_then_branch(x, c):
    m = ops.reduce_mean(x)
    z = m
    if c > 0:
        z = m + 0.25
    return z


def fill_captured_by_branch(x, c):
    h = ops.fill([3], 0.5)
    z = x
    if c > 0:
        z = x + h
    return z


def widened_then_branch(x, c):
    y = x * 3
    z = y
    if c > 0:
        z = y + 1.0
    return z


def tensordot_then_branch(a, b, c):
    t = ops.tensordot(a, b)
    z = t
    if c > 0:
        z = t * 2
    return z


def while_inside_cond_capture(x, c, n):
    m = ops.reduce_mean(x)
    z = m
    if c > 0:
        i = np.int32(0)
        while i < n:
            z = z + m * 0.5
            i = i + 1
    return z


# The families every walk of the one step body ran.


def cond_family(x):
    return ops.cond(ops.greater(ops.reduce_sum(x), 0.0),
                   lambda: ops.tanh(ops.multiply(x, 10.0)),
                   lambda: ops.subtract(x, 10.0))


def while_tensor_array(x, n):
    _, ta = ops.while_loop(
        lambda i, ta: ops.less(i, n),
        lambda i, ta: (ops.add(i, 1), ta.write(i, ops.tanh(x) * 2.0)),
        [ops.constant(0), TensorArray(fw.float32, size=0)])
    return ops.transpose(ta.stack(), [1, 0, 2])


V = fw.Variable(np.zeros(3, np.float32), name="oracle_assign_read")


def variable_assign_and_read(x):
    return V.assign_add(ops.exp(x)), ops.multiply(V.value(), 2.0)


def multi_output(x):
    values, indices = ops.top_k(ops.tanh(x), k=2)
    return values, indices, ops.add(values, ops.cast(indices, fw.float32))


def range_loop_sum(x, n):
    """A staged ``for i in range(n)``: the index and ``x[i]`` have static
    shapes, so the accumulator keeps its ``(4,)``."""
    acc = ops.zeros_like(x[0])
    for i in range(n):
        acc = acc + x[i]
    return acc


def _seeds():
    x = _rng_f32((3, 4), 9)
    seeds = [
        # Minimized programs the strategy found wrong answers in.  ``bool //
        # bool`` is int8, which was declared int32, so ``+ 0.5`` declared
        # float64 and computed float32:
        instructions("int8_result", (np.eye(3, 4, dtype=bool),), [
            ("binary", "FloorDiv", 0, 0),
            ("binary", "Add", 1, ("scalar", 0.5))], [2]),
        # ``x`` is rank 1, so the (4,) condition broadcasts; the blocked
        # rule read it as a row selector of the blocked (4, 4) square:
        instructions("rank1_where_over_square", (
            np.arange(-6, 6, dtype=np.int32).reshape(3, 4),
            np.array([False, True, False, False])), [
            ("matmul", 0, 0, True, False), ("where", 1, 1, 2)], [3],
            grids={0: ((1, 1, 1), (2, 2))}),
        # Folded to nan and inf, which Lantern's source spelled as names:
        instructions("nonfinite_constants", (x,), [
            ("const", np.float32(-1)), ("unary", "Log", 1),
            ("binary", "Add", 0, 2), ("const", np.float32(100)),
            ("unary", "Exp", 4), ("binary", "Mul", 0, 5)], [3, 6]),
        # Folded to -0.0, the divisor was the cached 0.0 constant:
        instructions("signed_zero", (x,), [
            ("const", np.float32(2)), ("binary", "Sub", 1, ("scalar", 2.0)),
            ("unary", "Neg", 2), ("binary", "Div", 0, 3)], [4]),
        # Lantern computed True + True in float32, as 2:
        instructions("bool_sum_on_lantern", (np.eye(3, 4, dtype=bool),), [
            ("binary", "Add", 0, ("scalar", True))], [1]),
        # The blocked rule, and the declared shape, took the axis modulo
        # the 0-d rank (the unknown shape sent the ``where`` dense):
        instructions("reduce_to_0d_then_along_an_axis",
                     (x, x > 0, np.int32(2)), [
                         ("reduce", "Sum", i, 0, False) for i in (0, 3, 4)] + [
                         ("reduce", "All", 2, 0, False), ("where", 1, 1, 6)],
                     [5, 7]),
        # Narrow constants were labelled int32 / float32 and computed at
        # their own width (``x + int8`` was float32, ``-uint8`` wrapped):
        instructions("narrow_constants", (x,), [
            ("const", np.array([1, -2, 3, 4], np.int8)),
            ("binary", "Add", 0, 1), ("const", np.float16(0.1)),
            ("binary", "Mul", 0, 3), ("const", np.array([3, 200], np.uint8)),
            ("unary", "Neg", 5), ("const", np.int16(-300)),
            ("binary", "Mul", 6, 7)], [2, 4, 8]),
        # ... but a result folded at its own width stays at it (the exp of
        # a bool is float16):
        instructions("folded_float16", (x,), [
            ("const", np.eye(3, 4, dtype=bool)), ("unary", "Exp", 1)], [2]),
        # ``m ** m`` folds to a float64 past float32's range, which is inf
        # in Lantern's float32:
        instructions("past_float32_range", (np.ones(4),), [
            ("const", np.array([[-1.4, -2.5, -1.2, 0.1], [-4.7, -0.4, -2.5, -1.5],
                                [-1.1, -0.6, 0.8, 2.1]])),
            ("matmul", 1, 1, False, True), ("binary", "Pow", 2, 2)], [0, 3],
            mode="float64"),
        # A folded transpose was baked C-ordered, so the matmul reading
        # it rounded otherwise than eager's, which read it F-ordered:
        instructions("folded_transpose_layout", (np.array(
            [[0.2514604421867866], [-0.2642097265826038], [1.2808453008865641]]),), [
                ("const", np.array([
                    [0.20980023, -1.07133875, 0.72319011, 2.60800009],
                    [1.89416193, -1.40747047, -2.53084294, -1.24654893],
                    [0.08265196, -4.65006155, -0.43758333, -2.49182189]])),
                ("transpose", 1, (1, 0)), ("unary", "Neg", 2),
                ("matmul", 3, 0, False, False)], [4]),
        Program("cond_chain_true", cond_with_a_chain_per_branch,
                (np.abs(_rng_f32((8, 8), 1)),)),
        Program("cond_chain_false", cond_with_a_chain_per_branch,
                (-np.abs(_rng_f32((8, 8), 2)),)),
        Program("while_matmul_tanh_array",
                while_matmul_tanh_with_array_writes,
                (_rng_f32((8, 8), 3), _rng_f32((8, 8), 4) * 0.3,
                 _rng_f32((8,), 5), np.int32(5))),
        Program("while_in_cond", while_inside_cond,
                (_rng_f32((6, 6), 6), np.int32(3))),
        Program("maximum_iterations", loop_with_maximum_iterations,
                (_rng_f32((5,), 7), np.int32(10)),
                eager=loop_with_maximum_iterations_eager),
        Program("loop_var_passed_through", loop_var_passed_through,
                (_rng_f32((4, 4), 8), _rng_f32((4, 4), 9), np.int32(3))),
        # tanh((x + 1) * 2) then exp(.) - |x|:
        instructions("fused_chain", (np.linspace(-2, 2, 5, dtype="f4"),), [
            ("binary", "Add", 0, ("scalar", 1.0)),
            ("binary", "Mul", 1, ("scalar", 2.0)), ("unary", "Tanh", 2),
            ("unary", "Exp", 3), ("unary", "Abs", 0), ("binary", "Sub", 4, 5)],
            [6]),
        Program("cond_family", cond_family,
                (np.linspace(-1, 2, 4).astype(np.float32),)),
        Program("while_tensor_array", while_tensor_array,
                (np.arange(12, dtype=np.float32).reshape(3, 4), np.int32(3))),
        # h = tanh(x * 2); h @ h:
        instructions("donated_matmul", (_rng_f32((8, 8), 1),), [
            ("binary", "Mul", 0, ("scalar", 2.0)), ("unary", "Tanh", 1),
            ("matmul", 2, 2, False, False)], [3]),
        Program("multi_output", multi_output, (_rng_f32((4, 6), 2),)),
        # h = tanh(a @ b + 0.5); sum(h * h, axis=0), a blocked:
        instructions("blocked_function",
                     (_rng_f32((8, 6), 7), _rng_f32((6, 4), 8)), [
                         ("matmul", 0, 1, False, False),
                         ("binary", "Add", 2, ("scalar", 0.5)),
                         ("unary", "Tanh", 3), ("binary", "Mul", 4, 4),
                         ("reduce", "Sum", 5, 0, False)], [6],
                     grids={0: ((4, 4), (3, 3))}),
        Program("range_loop_sum", range_loop_sum,
                (np.arange(12, dtype=np.float32).reshape(3, 4), np.int32(3))),
        Program("stateful_assign_no_output_depends_on",
                loop_with_unread_assign, (_rng_f32((4, 4), 5), np.int32(4)),
                variables=[COUNTER]),
        Program("variable_assign_and_read", variable_assign_and_read,
                (np.ones(3, np.float32),), variables=[V]),
    ]
    for program in (grow, grow_into_nested_cond, grow_into_nested_while,
                    grow_drags_a_second_variable):
        seeds.append(Program(program.__name__, program,
                             (np.ones(1, np.float32), np.int32(3))))
    for c in (1, -1):
        c = np.int32(c)
        seeds += [
            Program(f"int_mean_captured[{c}]", mean_then_branch,
                    (np.array([1, 2, 4], np.int32), c)),
            Program(f"fill_captured[{c}]", fill_captured_by_branch,
                    (np.ones(3, np.float32), c)),
            Program(f"float32_times_int[{c}]", widened_then_branch,
                    (np.array([0.1, 0.2, 0.3], np.float32), c)),
            Program(f"tensordot_mixed[{c}]", tensordot_then_branch,
                    (np.arange(4, dtype=np.int32).reshape(2, 2),
                     np.full((2, 2), 0.5, np.float32), c)),
            Program(f"while_in_cond_capture[{c}]", while_inside_cond_capture,
                    (np.array([1, 2, 3, 5, 7, 8], np.int32), c, np.int32(3))),
        ]
    return {p.name: p for p in seeds}


SEEDS = _seeds()


#: The seeds checked so far in this session.
CHECKED_SEEDS = set()


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_seed(name, pool, tmp_path):
    check(SEEDS[name], pool, tmp_path)
    CHECKED_SEEDS.add(name)


def test_range_loop_declares_static_shapes():
    cf = repro.function(range_loop_sum).get_concrete_function(
        *SEEDS["range_loop_sum"].args)
    (loop,) = [op for op in cf.graph.ops if op.type == "While"]
    assert [t.shape for t in loop.outputs] == [
        fw.TensorShape([]), fw.TensorShape([4])]
    assert cf.outputs[0].shape == fw.TensorShape([4])


def test_getitem_on_a_partial_shape_declares_only_what_holds():
    """An index on a partially known shape keeps every dimension the
    unknown ones cannot change — and only those — at every size."""
    kept = set()
    for index in INDEXES + [(slice(-5, 3),), (slice(None, None, 2), 1),
                            (slice(3, 1), None)]:
        for dims in ([None, 4], [3, None], [None, None]):
            g = fw.Graph()
            with g.as_default():
                declared = ops.placeholder(fw.float32, dims)[index].shape
            kept.update(d for d in declared.dims or () if d is not None)
            for n in range(9):
                try:
                    real = np.zeros([n if d is None else d
                                     for d in dims])[index].shape
                except IndexError:
                    continue
                assert declared.is_compatible_with(fw.TensorShape(real)), (
                    index, dims, n)
    assert kept == {0, 1, 2, 3, 4}


# Six times the profile's count (300 in tier-1): most of the suite's
# differential checking rides on this one property.
@settings(max_examples=6 * settings.default.max_examples)
@given(program=programs())
def test_generated(program, pool, tmp_path_factory):
    check(program, pool, tmp_path_factory.mktemp("oracle"))


def test_the_lantern_leg_counts_what_it_ran_and_refused():
    """What the Lantern leg did with the tier-1 corpus, pinned as
    ``test_conversion_cost.py`` pins walks: a program that stops (or
    starts) staging, or a refusal that changes its reason, moves a
    count.  It counts the seeds and generated programs checked above in
    this session, so it runs after them, in the tier-1 profile only.
    (``test_generated``'s source seeds its tier-1 draws: editing it
    changes the corpus.)
    """
    if (settings.default is not settings.get_profile("tier1")
            or CHECKED_SEEDS != set(SEEDS)
            or sum(LANTERN_TALLY.values()) <= len(SEEDS)):
        pytest.skip("counts the whole tier-1 corpus of this module")
    assert dict(LANTERN_TALLY) == {
        "ran": 68, "boolean": 65, "unsupported op": 63, "while": 17,
        "for": 1}


# ---------------------------------------------------------------------------
# Gradient seeds: every registered ``grad_fn``, at points away from every
# kink
# ---------------------------------------------------------------------------


def _f64(*shapes):
    rng = np.random.default_rng(len(shapes))
    return tuple(rng.standard_normal(shape) for shape in shapes)


GRAD_SEEDS = {
    "arith": (lambda x, y: ops.pow(ops.add(ops.abs(ops.divide(
        ops.multiply(ops.subtract(ops.add(x, y), 1.0), x),
        ops.add(ops.square(ops.negative(y)), 1.0))), 1.0), 3.0),
        _f64((3, 4), (4,))),
    "unary": (lambda x: ops.add(
        ops.log(ops.sqrt(ops.add(ops.square(x), 1.0))),
        ops.multiply(ops.tanh(ops.sigmoid(ops.exp(x))), ops.relu(x))),
        _f64((3, 4))),
    "extrema": (lambda x, y: (
        ops.maximum(x, y), ops.minimum(x, ops.multiply(y, 2.0)),
        ops.reduce_max(x, axis=1), ops.where(ops.greater(x, y), x, y)),
        _f64((3, 4), (3, 4))),
    "matmul": (lambda a, b, c: (
        ops.matmul(a, c), ops.matmul(a, b, transpose_b=True),
        ops.matmul(a, b, transpose_a=True),
        ops.matmul(a, c, transpose_a=True, transpose_b=True)),
        _f64((3, 4), (3, 4), (4, 3))),
    "reductions": (lambda x, s: (
        ops.reduce_sum(x, axis=0), ops.reduce_mean(x, axis=1),
        ops.reduce_mean(x), ops.reduce_sum(x, keepdims=True),
        # A 0-d operand: NumPy lets its axis be 0 or -1.
        ops.reduce_sum(s, axis=0), ops.reduce_max(s, axis=-1)),
        _f64((3, 4), ())),
    "layout": (lambda x, y: (
        ops.reshape(x, [4, 3]), ops.squeeze(ops.expand_dims(y, 0), axis=0),
        ops.transpose(ops.concat([x, ops.identity(y)], axis=0)),
        ops.gather(x, np.array([2, 0], np.int32)),
        ops.stack([x, ops.multiply(y, ops.ones_like(y))]), x[1:, 2],
        ops.add(ops.zeros_like(x), 1.0), ops.cast(x, "float64")),
        _f64((3, 4), (3, 4))),
    "piecewise": (lambda x, y: (
        ops.pow(ops.abs(x), y), ops.reduce_min(x, axis=1),
        ops.multiply(x, ops.sign(y)), ops.multiply(y, ops.floor(x)),
        *(ops.multiply(x, compare(x, y)) for compare in (
            ops.greater, ops.greater_equal, ops.less, ops.less_equal,
            ops.equal, ops.not_equal))),
        _f64((3, 4), (3, 4))),
    # Integer- and bool-valued results: an explicit no-gradient, reached.
    "no_gradient": (lambda x, y: (
        ops.multiply(ops.reduce_sum(x, axis=1), ops.argmax(x, axis=1)),
        ops.multiply(ops.reduce_sum(y, axis=1), ops.argmin(y, axis=1)),
        ops.multiply(x, ops.one_hot(ops.argmax(y, axis=1), 4)),
        ops.multiply(ops.reduce_sum(x), ops.shape(y)),
        ops.multiply(ops.reduce_sum(y), ops.size(x)),
        ops.multiply(ops.reduce_sum(y), ops.rank(x)),
        ops.multiply(ops.reduce_sum(x), ops.range(ops.size(y))),
        ops.multiply(x, ops.reduce_all(ops.greater(x, y), axis=0)),
        ops.multiply(y, ops.reduce_any(ops.less(x, y), axis=1,
                                       keepdims=True)),
        ops.multiply(x, ops.logical_and(ops.greater(x, 0.0),
                                        ops.less(y, 0.0))),
        ops.multiply(y, ops.logical_or(ops.greater(x, y), ops.less(y, 0.0))),
        ops.multiply(x, ops.logical_not(ops.less(y, 0.0)))),
        _f64((3, 4), (3, 4))),
    # A grad-helper op with a gradient of its own, which a second
    # derivative through a broadcasting operand passes.
    "unbroadcast": (lambda g, like: dispatch.run_op(
        "UnbroadcastTo", [g, like], {}), _f64((2, 3, 4), (3, 1))),
    "softmax": (lambda x: (
        ops.softmax(x), ops.log_softmax(x), ops.log_softmax(x, axis=0),
        ops.softmax_cross_entropy_with_logits(np.eye(4)[[0, 3, 1]], x),
        ops.sparse_softmax_cross_entropy_with_logits(
            np.array([2, 0, 1], np.int32), x)),
        _f64((3, 4))),
}


def test_every_grad_fn_is_checked(monkeypatch):
    """The gradient seeds run every registered ``grad_fn`` through the
    three-way check (the counting wrapper sees the eager tape and the
    graph gradient of ``repro.function`` alike)."""
    reached = set()
    for name in list_ops():
        op_def = get_op_def(name)
        if op_def.grad_fn is not None:
            def counted(*args, _fn=op_def.grad_fn, _name=name):
                reached.add(_name)
                return _fn(*args)

            monkeypatch.setattr(op_def, "grad_fn", counted)
    for name, (fn, args) in GRAD_SEEDS.items():
        assert check_gradients(Program(name, fn, args, autograph=False)), name
    # Every registered gradient, without exception.
    unreached = set()
    assert {name for name in list_ops()
            if get_op_def(name).grad_fn is not None} - reached == unreached


# ---------------------------------------------------------------------------
# Every op's declared dtype, over the dtype grid
# ---------------------------------------------------------------------------

#: Operand shapes for kernels that read an operand as a size, an index
#: vector or a per-row quantity; every other operand is a (2, 2) array.
SWEEP_SHAPES = {
    "Fill": [(2,), ()], "Range": [(), (), ()], "OneHot": [(2,), ()],
    "TopK": [(2, 2), ()], "Reshape": [(2, 2), (1,)],
    "TensorArrayNewDynamic": [()],
    "SparseSoftmaxCrossEntropyWithLogits": [(2,), (2, 2)],
    "SoftmaxXentGrad": [(2,), (2, 2), (2, 2)],
    "SparseSoftmaxXentGrad": [(2,), (2,), (2, 2)],
}
#: Ops that take no tensor operand (their kernels read attrs only).
SOURCES = {"Const", "UndefinedConst", "Placeholder", "TensorArrayNew"}
#: What an op with a block rule reads: no wrong kernel or swapped
#: operand passes by coincidence.  (Others read ones, which every
#: index, size and label operand accepts.)
DISTINCT_VALUES = ([[1, 0], [2, 3]], [[2, 1], [0, 3]], [[0, 1], [1, 0]])
#: The kernels that return memory an operand holds: a view of it, the
#: operand itself (``UnbroadcastTo`` when nothing broadcasts) or an array
#: of views (``TensorArrayFromTensor``).  Every other kernel the sweep
#: runs declares ``fresh_output``, which lets the planner recycle what
#: it returns.
SHARES_INPUTS = {"ConcatGrad", "ExpandDims", "GetItem", "Identity",
                 "PackGrad", "Reshape", "ReshapeLike", "Squeeze", "SumGrad",
                 "TensorArrayFromTensor", "Transpose", "UnbroadcastTo"}
#: Kernels that need a structured attr to run at all.
SWEEP_ATTRS = {"PackGrad": [{"num": 2}], "SumGrad": [{}, {"mean": True}]}
for _name in REDUCE:
    SWEEP_ATTRS[_name] = [{}, {"axis": 0}]


def _one_op_programs():
    """Every stateless registered op × every operand dtype tuple its
    kernel accepts: ``(op type, attrs, dtypes, operand values, kernel
    outputs)``."""
    for name in list_ops():
        op_def = get_op_def(name)
        if op_def.stateful or name in SOURCES:
            continue
        for arity, attrs in itertools.product(
                (1, 2, 3), SWEEP_ATTRS.get(name, [{}])):
            shapes = SWEEP_SHAPES.get(name, [(2, 2)] * arity)
            if len(shapes) != arity or op_def.elementwise not in (0, arity):
                continue  # (a ufunc would take a third operand as out=)
            for in_dtypes in itertools.product(DTYPES, repeat=arity):
                # Reshape's second operand is the new shape: 4.
                values = [np.full(sh, 4 if name == "Reshape" and i == 1
                                  else 1, dt.np_dtype)
                          if name not in BLOCK_RULES else
                          np.array(DISTINCT_VALUES[i]).astype(dt.np_dtype)
                          for i, (dt, sh) in enumerate(zip(in_dtypes, shapes))]
                try:
                    with np.errstate(all="ignore"):
                        out = op_def.kernel(*values, **attrs)
                except Exception:  # noqa: BLE001 - the kernel refuses these
                    continue
                yield name, attrs, in_dtypes, values, out


SWEEP = {}
for _program in _one_op_programs():
    SWEEP.setdefault(_program[0], []).append(_program[1:])

#: Read before an elementwise op's operands: ``Abs`` (fusable) and, for a
#: binary op, ``Relu`` (not), with the kernels that compute them eagerly.
DONORS = [(ops.abs, np.absolute), (ops.relu, get_op_def("Relu").kernel)]


def _arrays(out):
    """The ndarrays a kernel returned, inside tuples and TensorArrays."""
    if isinstance(out, (tuple, TensorArrayValue)):
        for item in getattr(out, "items", out):
            yield from _arrays(item)
    elif isinstance(out, np.ndarray):
        yield out


def _stage_one_op(name, attrs, in_dtypes, values):
    """The one-op graph of a sweep program: ``(graph, feeds, op, donors
    read before it)``."""
    wrap = DONORS[:get_op_def(name).elementwise][::-1]
    g = fw.Graph()
    with g.as_default():
        feeds = [ops.placeholder(dt, np.shape(v))
                 for dt, v in zip(in_dtypes, values)]
        operands = [d[0](f) for d, f in zip(wrap, feeds)] or feeds
        op = g.create_op(name, operands, attrs)
    return g, feeds, op, wrap


def _rule(name, attrs, values, grids):
    """``name``'s block rule run eagerly, ``values`` blocked on ``grids``
    (``None``: dense), as a dense array."""
    with np.errstate(all="ignore"):
        out = BLOCK_RULES[name](*[v if grid is None else BlockArray.from_dense(
            v, grid=grid) for v, grid in zip(values, grids)], **attrs)
    return out.to_dense() if isinstance(out, BlockArray) else out


def _lowered_run(g, feeds, fetches, values, grids):
    """``g`` lowered with ``values`` blocked on ``grids`` (``None``:
    dense) and run; no op may fall back to dense."""
    lowered = lower_blocked_graph(g, feeds, fetches, {
        id(f): grid for f, grid in zip(feeds, grids) if grid is not None})
    assert not lowered.fallbacks, lowered.fallbacks
    flat = []
    for v, grid in zip(values, grids):
        flat.extend([v] if grid is None else BlockArray.from_dense(
            v, grid=grid).block_list())
    with np.errstate(all="ignore"):
        return BoundPlan(compile_plan(
            lowered.graph, list(lowered.fetches), list(lowered.feeds)),
            list(lowered.feeds)).execute_flat(flat)


def test_the_sweep_covers_every_block_rule_and_900_declarations():
    declarations = sum(len(_stage_one_op(name, *program[:3])[2].outputs)
                       for name, programs in SWEEP.items()
                       for program in programs)
    assert declarations > 900
    assert set(BLOCK_RULES) <= set(SWEEP)


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_every_op_declares_what_it_computes(name):
    """Each one-op program is staged and run on both plans, and — where
    the op has a block rule — on 1×1 blocks, eagerly and lowered (with no
    dense fallback): every output must be the kernel's, bit for bit, at
    the dtype it declares.  An elementwise op reads a dying intermediate
    on each side (:data:`DONORS`), so the fused plan runs it inside a
    composite kernel and an armed ``out=`` buffer is offered on every
    dtype pair — and must never be refused.  A kernel declared
    ``fresh_output`` never returns memory an operand holds, and only the
    kernels of :data:`SHARES_INPUTS` do."""
    before = observe.counters().get("runtime.inplace_refusals", 0)
    armed, ruled = 0, False
    grid = BlockGrid((2, 2), ((1, 1), (1, 1)))
    for attrs, in_dtypes, values, out in SWEEP[name]:
        g, feeds, op, wrap = _stage_one_op(name, attrs, in_dtypes, values)
        want = (out,) if len(op.outputs) == 1 else tuple(out)
        if wrap:
            with np.errstate(all="ignore"):
                want = (op.op_def.kernel(*[d[1](v) for d, v in zip(
                    wrap, values)]),)
        for fuse in (True, False):
            plan = compile_plan(g, list(op.outputs), feeds, fuse=fuse)
            armed += sum(step[5] is not None for step in plan.steps)
            with np.errstate(all="ignore"):
                got = BoundPlan(plan, feeds).execute_flat(values)
            for t, value, expect in zip(op.outputs, got, want):
                # ``variant`` only where no dtype can be promised: an
                # opaque runtime value, or one the framework has no name
                # for (float16, int8).
                array = isinstance(expect, (np.ndarray, np.generic))
                named = array and expect.dtype in NAMED
                assert t.dtype == (dtypes.from_numpy(expect.dtype) if named
                                   else dtypes.variant), (
                    name, in_dtypes, attrs)
                if array:
                    assert_same([value], [expect], (name, in_dtypes, fuse))
                    _declared(t, np.asarray(value), (name, in_dtypes))
        if name not in BLOCK_RULES:
            continue
        try:
            eager = _rule(name, attrs, [d[1](v) for d, v in zip(
                wrap, values)] or values, [grid] * len(values))
        except (ValueError, TypeError, IndexError):
            continue  # the rule refuses: the op runs dense
        got = _lowered_run(g, feeds, op.outputs, values,
                           [grid] * len(values))
        assert_same([eager, got[0]], list(want) * 2, (name, in_dtypes))
        ruled = True
    assert ruled == (name in BLOCK_RULES)
    # An elementwise op with an ``out=`` kernel reads a dying donor: it
    # gets its buffer.
    op_def = get_op_def(name)
    assert armed or not (op_def.elementwise and op_def.inplace_kernel)
    shared = any(np.shares_memory(a, v) for _, _, values, out in SWEEP[name]
                 for a in _arrays(out) for v in values)
    assert shared == (name in SHARES_INPUTS)
    assert op_def.fresh_output != shared
    assert observe.counters().get("runtime.inplace_refusals", 0) == before


def _missing_gradients():
    """One float-valued use of every stateless op with no ``grad_fn``:
    ``{op type: (attrs, dtypes, operands, float operand positions)}``."""
    cases = {}
    for name, programs in SWEEP.items():
        op_def = get_op_def(name)
        if op_def.grad_fn is not None:
            continue
        for attrs, in_dtypes, values, out in programs:
            first = out[0] if isinstance(out, tuple) else out
            floats = [i for i, dt in enumerate(in_dtypes)
                      if dt in (dtypes.float32, dtypes.float64)]
            if floats and op_def.output_count(values, attrs) and getattr(
                    first, "dtype", None) in (np.float32, np.float64):
                cases[name] = (attrs, in_dtypes, values, floats)
                break
    return cases


MISSING_GRADIENTS = _missing_gradients()


def test_the_missing_gradient_sweep_covers_the_known_ones():
    assert {"Tile", "Prod", "Tensordot", "TopK", "Fill"} <= set(
        MISSING_GRADIENTS)


@pytest.mark.parametrize("name", sorted(MISSING_GRADIENTS))
def test_a_missing_gradient_raises_on_the_tape_and_in_the_graph(name):
    """A gradient reaching an op that has none raises, eagerly and
    staged alike, and both errors name the op."""
    attrs, in_dtypes, values, floats = MISSING_GRADIENTS[name]
    inputs = [ops.constant(v) for v in values]
    with fw.GradientTape() as tape:
        for i in floats:
            tape.watch(inputs[i])
        out = execute_op(name, inputs, attrs)
    first = out[0] if isinstance(out, tuple) else out
    with pytest.raises(fw.StagingError, match=f"'{name}'"):
        tape.gradient(first, [inputs[i] for i in floats])
    g, feeds, op, _ = _stage_one_op(name, attrs, in_dtypes, values)
    with pytest.raises(fw.StagingError, match=f"'{name}'"):
        gradients(op.outputs[0], [feeds[i] for i in floats])


def test_a_missing_gradient_off_the_sources_paths_is_not_reached():
    """As in ``gradients()``, only an op on a path from a source raises:
    a watched ``b`` feeding ``Tile`` does not stop d/da of
    ``a + tile(b)``."""
    a, b = ops.constant(np.ones(2)), ops.constant(np.ones(2))
    with fw.GradientTape() as tape:
        tape.watch(a)
        tape.watch(b)
        y = ops.add(ops.reduce_sum(a), ops.reduce_sum(ops.tile(b, [2])))
    np.testing.assert_array_equal(tape.gradient(y, a).numpy(), [1.0, 1.0])
    g = fw.Graph()
    with g.as_default():
        pa, pb = ops.placeholder(fw.float64, [2]), ops.placeholder(
            fw.float64, [2])
        da = gradients(ops.add(ops.reduce_sum(pa), ops.reduce_sum(
            ops.tile(pb, [2]))), pa)
    np.testing.assert_array_equal(
        fw.Session(g).run(da, {pa: np.ones(2), pb: np.ones(2)}), [1.0, 1.0])


def _rule_cases():
    """The attrs and operand layouts a block rule must take without a
    refusal (one would quietly run its op dense): ``(id, staged op,
    operands)``, an operand ``(array, splits)`` or ``(array, None)``
    for a dense one."""
    rng = np.random.default_rng(0)
    m = lambda *shape: rng.integers(  # noqa: E731
        -4, 5, size=shape).astype(np.float32)
    x, y = (m(4, 5), (1, 3)), (m(4, 5), (3, 2))  # two grids of one shape
    for ta, tb, side in itertools.product((0, 1), (0, 1), ("ab", "a", "b")):
        a, b = m(*(5, 4)[::2 * ta - 1]), m(*(3, 5)[::2 * tb - 1])
        yield f"MatMul-{ta}{tb}-{side}", functools.partial(
            ops.matmul, transpose_a=ta, transpose_b=tb), [
                (a, (1, 2) if "a" in side else None),
                (b, (2, 1) if "b" in side else None)]
    for name, axis, keepdims in itertools.product(
            ("Sum", "Max", "Min", "Mean"), (None, 0, 1, -1, -2), (0, 1)):
        yield f"{name}-{axis}-{keepdims}", functools.partial(
            REDUCE[name], axis=axis, keepdims=keepdims), [x]
    for axis in (0, 1, -1, -2):
        yield f"Concat-{axis}", lambda *t, axis=axis: ops.concat(
            t, axis=axis), [x, y]
    for perm in (None, (1, 0), (0, 1), (-1, 0)):
        yield f"Transpose-{perm}", functools.partial(
            ops.transpose, perm=perm), [x]
    for index in INDEXES:
        yield f"GetItem-{index}", lambda t, index=index: t[index], [x]
    c = m(4, 5) > 0
    for form, operands in {
            "blocked": [(c, (2, 2)), x, y], "dense-cond": [(c, None), x, y],
            "rank1-cond": [(c[:, 0].copy(), None), x, (y[0], None)],
            "scalar-arm": [(c, (1, 1)), (np.float32(0), None), y]}.items():
        yield f"Select-{form}", ops.where, operands
    for form, other in {
            "blocked": y, "dense": (y[0], None), "row": (m(5), None),
            "row2d": (m(1, 5), None), "column": (m(4, 1), None),
            "scalar": (np.float32(3), None)}.items():
        for flip in (0, 1):
            yield f"Sub-{form}-{flip}", ops.subtract, [x, other][::1 - 2 * flip]


@pytest.mark.parametrize("stage, operands", [
    pytest.param(*case[1:], id=case[0]) for case in _rule_cases()])
def test_block_rules_take_every_attr_and_layout(stage, operands):
    """Eager and lowered, the rule computes the dense kernel's bytes."""
    values = [v for v, _ in operands]
    grids = [None if splits is None else BlockGrid(v.shape, tuple(
        (k, n - k) if n > k else (n,) for k, n in zip(splits, v.shape)))
        for v, splits in operands]
    g = fw.Graph()
    with g.as_default():
        feeds = [ops.placeholder(dtypes.from_numpy(v.dtype), v.shape)
                 for v in values]
        op = stage(*feeds).op
    assert list(op.inputs) == feeds
    want = op.op_def.kernel(*values, **op.attrs)
    assert_same([_rule(op.type, op.attrs, values, grids),
                 *_lowered_run(g, feeds, op.outputs, values, grids)],
                [want] * 2)


def test_the_strategy_covers_every_elementwise_op():
    """A new elementwise op forces a decision: the oracle draws it."""
    assert set(UNARY) == set(elementwise_ops(1))
    assert set(BINARY) == set(elementwise_ops(2))
