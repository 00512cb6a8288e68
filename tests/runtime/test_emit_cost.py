"""What the plan emitter writes and compiles, in counts rather than timings.

Every walk of a plan is generated code (``repro.runtime.emit``).  These
tests pin its size and how often it is written the way
``tests/autograph/test_conversion_cost.py`` pins AutoGraph's walks:

- the serial walk of the 451-step unrolled RNN plan is one line per step
  plus a fixed prologue (the feed unpack) and epilogue (the handlers and
  the return) — a verbose emission showed as megabytes of resident
  memory on that plan;
- a plan writes each walk once, on its first run, and keeps no source
  text;
- every emitted walk parses as Python 3.9, the oldest CI interpreter;
- the walk is the only code ``repro.runtime`` compiles: a fused group
  is an expression of the walk, not a kernel of its own.
"""

import ast
import builtins
import linecache

import numpy as np
import pytest

import repro
from repro import framework as fw
from repro import nn, observe
from repro.blocks import BlockScheduler
from repro.framework import ops
from repro.runtime import BoundPlan, compile_plan, emit
from test_oracle import assert_same, walks

#: Lines of a serial walk that are no step: the header, the feed
#: unpack, ``try:``, the two handlers (four lines) and the ``return``.
FIXED_LINES = 8


@pytest.fixture
def sources(monkeypatch):
    """The list of sources the emitter compiles from then on."""
    compiled = []

    def spy(source, filename, mode):
        compiled.append(source)
        return compile(source, filename, mode)

    monkeypatch.setattr(emit, "compile", spy, raising=False)
    return compiled


def _emitted():
    return observe.counters().get("runtime.walks_emitted", 0)


def _rnn_plan():
    """The benchmark's unrolled RNN (``bench/models.py``), small."""
    from bench import models

    cell = nn.BasicRNNCell(4, input_dim=4, rng=np.random.default_rng(0))
    fn = repro.function(models.make_rnn_unrolled(cell, batch=2, seq_len=64))
    x = np.random.default_rng(1).normal(size=(2, 64, 4)).astype(np.float32)
    lengths = np.array([64, 40], np.int32)
    cf = fn.get_concrete_function(x, lengths)
    return cf, [x, lengths] + list(cf._resolved_captures())


def test_the_serial_walk_is_one_line_per_step(sources):
    cf, args = _rnn_plan()
    plan = cf._bound.plan
    # 515 ops, less the 64 ``ZerosLike`` the masking ``where`` no longer
    # reads (``optimize_graph``'s ``Select`` rewrite).
    assert len(plan.steps) == 451
    before = _emitted()
    cf._bound.execute_flat(args)
    assert _emitted() - before == 1
    source, = sources
    lines = source.splitlines()
    assert len(lines) == len(plan.steps) + FIXED_LINES
    # One line per step, and nothing else on a step's line.
    calls = [line for line in lines
             if "= k" in line or "= u" in line or "_inplace(" in line]
    assert len(calls) == len(plan.steps)
    assert sum("_inplace(" in line for line in calls) == plan.inplace_steps


def test_a_plan_writes_each_walk_once_and_keeps_no_source(sources):
    cf, args = _rnn_plan()
    want = cf._bound.execute_flat(args)
    before = _emitted()
    for _ in range(3):
        got = cf._bound.execute_flat(args)
    assert _emitted() == before
    assert len(sources) == 1
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    # An error through a walk formats without caching generated source.
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [None, None])
        y = ops.matmul(x, x)
    with pytest.raises(fw.errors.ExecutionError) as info:
        BoundPlan(compile_plan(g, [y], [x]), [x]).execute_flat(
            [np.ones((2, 3), np.float32)])
    info.getrepr()
    assert not [name for name in linecache.cache
                if name.startswith("<repro.plan")]


def _every_step_kind():
    """A plan with single- and multi-output (the ``While``), in-place
    and fused steps, a ``While`` and a ``Cond`` (whose sub-graphs are
    plans too)."""
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [4, 4])
        n = ops.placeholder(fw.int32, [])
        fused = ops.tanh(ops.multiply(ops.exp(x), 2.0))
        inplace = ops.add(ops.matmul(fused, x), 1.0)
        _, looped = fw.while_loop(
            lambda i, acc: i < n,
            lambda i, acc: (i + 1, ops.tanh(ops.matmul(acc, x))),
            (np.int32(0), x))
        branched = fw.cond(n > 1, lambda: ops.reduce_sum(looped),
                           lambda: ops.reduce_max(looped))
        y = ops.add(ops.reduce_sum(ops.multiply(inplace, x)), branched)
    plan = compile_plan(g, [y, looped], [x, n])
    kinds = {s[4] for s in plan.steps}
    assert any(name.startswith("fused[") for name in kinds)
    assert any(s[3] == 2 for s in plan.steps)
    assert plan.inplace_steps
    return plan, [x, n]


def test_every_emitted_walk_parses_as_python_3_9(sources):
    plan, feeds = _every_step_kind()
    args = [np.eye(4, dtype=np.float32) / 2, np.int32(2)]
    g = fw.Graph()
    with g.as_default():
        z = ops.placeholder(fw.float32, [2])
    empty = compile_plan(g, [z], [z])
    assert empty.steps == ()
    with BlockScheduler(num_workers=2) as pool:
        for recording in (False, True):
            if recording:
                observe.enable()
            try:
                for scheduler in (None, pool):
                    BoundPlan(plan, feeds, scheduler).execute_flat(args)
                    BoundPlan(empty, [z], scheduler).execute_flat(
                        [np.zeros(2, np.float32)])
            finally:
                if recording:
                    observe.disable()
                    observe.RECORDER.clear()
    assert all(walk is not None for walk in plan._walks)
    # The outer plan's four walks, the empty plan's two (one step or
    # none runs no levels) and the sub-graphs' serial and recorded ones.
    assert len(sources) >= 6
    # Each of the outer plan's four walks writes its reusing fused group
    # with a walrus.
    kinds = {("scheduler.map(" in source, "_step(" in source)
             for source in sources if ":= u_" in source}
    assert kinds == {(False, False), (True, False), (False, True),
                     (True, True)}
    for source in sources:
        ast.parse(source, feature_version=(3, 9))


def test_the_walk_is_the_one_source_a_fusing_plan_compiles(monkeypatch):
    compiled, real = [], builtins.compile

    def spy(source, *args, **kwargs):
        compiled.append(source)
        return real(source, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", spy)
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [4])
        y = ops.tanh(ops.add(ops.multiply(x, x), 1.0))
        z = ops.exp(ops.negative(ops.multiply(x, 2.0)))
    plan = compile_plan(g, [y, z], [x])
    assert len(plan.fused_groups) == 2
    assert compiled == []
    BoundPlan(plan, [x]).execute_flat([np.ones(4, np.float32)])
    source, = compiled
    assert source.startswith("def walk(")


def test_a_fused_group_refused_its_buffer_recomputes_only_its_root():
    """An armed group's members run once, as the root's operands; when
    the root's ``out=`` write is refused (an operand arrived as float64
    behind the binder's back), the fallback is the root's own ufunc."""
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [3, 3])
        c = ops.placeholder(fw.float32, [3, 3])
        y = ops.tanh(ops.add(ops.matmul(x, x), c))
    plan = compile_plan(g, [y], [x, c])
    assert [s[4] for s in plan.steps] == ["MatMul", "fused[add+tanh]"]
    assert plan.steps[1][5] is not None
    xv, cv = np.eye(3, dtype=np.float32), np.full((3, 3), 0.5)
    before = observe.counters().get("runtime.inplace_refusals", 0)
    got = plan.walk()([xv, cv])[0]
    assert observe.counters()["runtime.inplace_refusals"] == before + 1
    assert got.tobytes() == np.tanh(xv @ xv + cv).tobytes()
    assert plan._walks[0].__globals__["r1"][1] is np.tanh


def test_a_long_chain_splits_into_groups_the_parser_takes(sources):
    """A group is one expression, each member nested in its consumer's
    call, and CPython parses at most 200 nested parentheses: a 300-op
    chain splits into groups of at most 65 members, whose walks compile
    and match the unfused plan byte for byte in every walk kind."""
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [8])
        a = x
        for _ in range(150):
            a = ops.add(ops.multiply(a, 0.5), 1.0)
        b = ops.tanh(x)
        for _ in range(65):
            b = ops.add(ops.multiply(b, 0.5), 1.0)
    plan = compile_plan(g, [a, b], [x])
    groups = [len(s[1]) for s in plan.steps if type(s[1]) is tuple]
    assert sorted(groups) == [40] + [65] * 6
    assert list(plan.standalone.values()) == ["depth cap"]
    v = np.linspace(-3, 3, 8, dtype=np.float32)
    want = BoundPlan(compile_plan(g, [a, b], [x], fuse=False),
                     [x]).execute_flat([v])
    with BlockScheduler(num_workers=2) as pool:
        for walk, run in walks(plan, [x], pool):
            assert_same(run([v]), want, walk)
    assert sum(":= u_" in source for source in sources) == 4
    # Where a walrus binds a walk local, its line drops it again.
    serial = next(source for source in sources if ":= u_" in source)
    assert "_step(" not in serial and "scheduler.map(" not in serial
    assert all(line.endswith("; del t0") for line in serial.splitlines()
               if ":= u_" in line)
    for source in sources:
        ast.parse(source, feature_version=(3, 9))


def _staged_loop(branch):
    """A ``While`` whose body fuses, arms a buffer, carries a
    ``TensorArray`` and, with ``branch``, runs a ``Cond`` (a branch is
    bound and walked per run, so per turn), under a
    ``repro.function``."""

    def loop(x, n):
        out = fw.TensorArray(fw.float32, size=0)
        i = np.int32(0)
        while i < n:
            x = ops.add(ops.matmul(ops.tanh(x), x), 1.0)
            if branch and ops.reduce_sum(x) > 0.0:
                x = x * 0.5
            out = out.write(i, x)
            i = i + 1
        return x, out.stack()

    return repro.function(loop), np.eye(3, dtype=np.float32) / 4


def test_a_loop_walk_is_written_once_per_kind_and_keeps_no_source(sources):
    fn, x = _staged_loop(branch=True)
    fn(x, np.int32(3))
    loops = [s for s in sources if s.startswith("def loop(")]
    assert len(loops) == 1
    before = _emitted()
    for n in (3, 5, 0):
        fn(x, np.int32(n))
    assert _emitted() == before
    observe.enable()
    try:
        fn(x, np.int32(3))
        fn(x, np.int32(4))
    finally:
        observe.disable()
        observe.RECORDER.clear()
    loops = [s for s in sources if s.startswith("def loop(")]
    assert len(loops) == 2
    assert sum("_step(" in s for s in loops) == 1
    for source in sources:
        ast.parse(source, feature_version=(3, 9))
    assert not [name for name in linecache.cache
                if name.startswith("<repro.plan")]


def test_a_loop_turn_enters_no_binder_and_no_walk():
    """A 10-turn and a 20-turn run of the same staged loop enter the
    same number of ``BoundPlan.bind`` and generated-code frames: the
    loop walk binds once per run, and a turn calls neither."""
    import sys

    fn, x = _staged_loop(branch=False)

    def frames(n):
        fn(x, np.int32(n))
        seen = []

        def profile(frame, event, arg):
            if event == "call":
                code = frame.f_code
                if code.co_filename.startswith("<repro.plan") or (
                        code.co_name == "bind"
                        and code.co_filename.endswith("engine.py")):
                    seen.append((code.co_filename, code.co_name))

        sys.setprofile(profile)
        try:
            fn(x, np.int32(n))
        finally:
            sys.setprofile(None)
        return seen

    ten, twenty = frames(10), frames(20)
    assert sorted(name for _f, name in ten).count("loop") == 1
    assert len(ten) == len(twenty)
