"""Level-parallel plan execution and buffer reuse across levels.

``compile_plan`` now buckets steps into wavefront levels (every step's
data, control and stateful-order dependencies live in strictly earlier
levels), and ``ExecutionPlan.execute`` fans a level's steps out on a
scheduler.  These tests pin the two properties that make that safe:

- scheduling never changes results (levels respect all three dependency
  kinds, and the fixed combination trees make the math order-free);
- a kernel that is not elementwise (MatMul's BLAS ``out=``) only takes
  buffers whose last read is in a strictly earlier *level*, so a
  concurrently-running sibling step can never observe the overwrite.
"""

import numpy as np
import pytest

from repro import framework as fw
from repro import observe
from repro.blocks import BlockScheduler
from repro.framework import ops
from repro.framework.errors import ExecutionError
from repro.runtime import BoundPlan, compile_plan
from test_oracle import walks


def _plan_for(fetches, feeds=()):
    # These tests pin the *per-step* level machinery, so they compile
    # unfused — elementwise fusion would (correctly) collapse the wide
    # diamond into one composite step.  Fusion×levels interaction is
    # covered in test_fusion.py and the oracle.
    graph = (fetches[0] if isinstance(fetches, (list, tuple)) else fetches).graph
    flat = list(fetches) if isinstance(fetches, (list, tuple)) else [fetches]
    return compile_plan(graph, flat, list(feeds), fuse=False)


def _wide_graph():
    """A fan-out/fan-in diamond: 4 independent branches, then a merge."""
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [16, 16])
        branches = [ops.tanh(ops.multiply(x, float(i + 1))) for i in range(4)]
        merged = branches[0]
        for b in branches[1:]:
            merged = ops.add(merged, b)
        y = ops.matmul(merged, x)
    return x, y


class TestLevels:
    def test_levels_partition_all_steps(self):
        x, y = _wide_graph()
        plan = _plan_for(y, [x])
        indices = sorted(i for level in plan.levels for i in level)
        assert indices == list(range(len(plan.steps)))

    def test_levels_respect_data_dependencies(self):
        x, y = _wide_graph()
        plan = _plan_for(y, [x])
        level_of = {i: lv for lv, level in enumerate(plan.levels)
                    for i in level}
        producer = {step[0]: i for i, step in enumerate(plan.steps)}
        for i, step in enumerate(plan.steps):
            for loc in step[2]:
                slot = loc if isinstance(loc, int) else loc[0]
                if slot in producer and producer[slot] != i:
                    assert level_of[producer[slot]] < level_of[i]

    def test_independent_branches_share_a_level(self):
        x, y = _wide_graph()
        plan = _plan_for(y, [x])
        widths = [len(level) for level in plan.levels]
        # The 4 multiply steps (then the 4 tanh steps) are independent.
        assert max(widths) >= 4

    def test_stateful_steps_never_share_a_level(self):
        g = fw.Graph()
        with g.as_default():
            a = ops.random_normal([4])
            b = ops.random_normal([4])
            y = ops.add(a, b)
        plan = _plan_for(y)
        level_of = {i: lv for lv, level in enumerate(plan.levels)
                    for i in level}
        stateful = [i for i, op in enumerate(["rand", "rand", "add"])
                    if op == "rand"]
        assert level_of[stateful[0]] != level_of[stateful[1]]


def _three_walks(plan, feeds, values):
    """Run ``plan`` through every walk; yields ``(walk, flat results or
    the ExecutionError raised, runtime.inplace_refusals delta)``."""
    with BlockScheduler(num_workers=4) as pool:
        for walk, run in walks(plan, feeds, pool):
            before = observe.counters().get("runtime.inplace_refusals", 0)
            try:
                got = run(values)
            except ExecutionError as e:
                got = e
            yield walk, got, observe.counters().get(
                "runtime.inplace_refusals", 0) - before


class TestParallelExecution:
    def test_a_refused_in_place_write_is_counted_by_every_walk(self):
        """Serial, 4-worker level walk and recorder-on — every walk of
        the one step body — refuse, count and recompute the same write,
        to the same bytes; fused, ``Negative`` + ``Add`` are one
        composite kernel with no temporary to donate, so nothing is
        refused.  (That every walk computes what eager execution does is
        the oracle's: ``tests/test_oracle.py``.)

        ``Add`` is armed with ``Negative``'s float32 buffer; the variable
        it also reads holds float64 behind its declaration."""
        v = fw.Variable(np.ones(3, np.float32), name="one_body_refused")
        v._state.value = np.array([0.1, 0.2, 0.3], np.float64)
        g = fw.Graph()
        with g.as_default():
            x = ops.placeholder(fw.float32, [3])
            y = ops.add(ops.negative(x), v.value())
        want, refusals = None, {}
        for fuse in (True, False):
            plan = compile_plan(g, [y], [x], fuse=fuse)
            for walk, got, refused in _three_walks(
                    plan, [x], [np.array([1, 2, 3], np.float32)]):
                assert not isinstance(got, ExecutionError), (walk, got)
                got = [(a.dtype, a.shape, a.tobytes()) for a in got]
                want = want or got
                assert got == want, (fuse, walk)
                assert refused == refusals.setdefault(fuse, refused), walk
        assert refusals == {True: 0, False: 1}

    @pytest.mark.parametrize("fuse", [True, False])
    def test_a_raising_kernel_is_the_same_error_from_every_walk(self, fuse):
        g = fw.Graph()
        with g.as_default():
            x = ops.placeholder(fw.float32, [None, None])
            sides = [ops.tanh(ops.multiply(x, float(i + 1)))
                     for i in range(3)]
            bad = ops.matmul(x, x, name="bad_matmul")
            y = ops.add(ops.add(sides[0], sides[1]),
                        ops.add(sides[2], ops.reduce_sum(bad)))
        plan = compile_plan(g, [y], [x], fuse=fuse)
        feed = np.ones((2, 3), np.float32)     # (2, 3) @ (2, 3): refused
        errors = {walk: got for walk, got, _ in _three_walks(
            plan, [x], [feed])}
        assert len(errors) == 4
        for walk, err in errors.items():
            assert isinstance(err, ExecutionError), walk
            assert err.op_name == "bad_matmul", walk
            assert str(err) == str(errors["serial"]), walk
            assert str(err).startswith(
                "Error executing op 'bad_matmul': "), walk

    @pytest.mark.parametrize("fuse", [True, False])
    @pytest.mark.parametrize("nest", ["while_loop", "cond"])
    def test_a_raising_kernel_in_a_nested_walk_is_the_same_error(
            self, nest, fuse):
        """The bad op inside a loop body or a branch: each walk of the
        outer plan runs the sub-graph's own generated walk, and the
        error is still the one naming the op, with the kernel's own
        exception as its cause."""
        feed = np.ones((2, 3), np.float32)     # (2, 3) @ (2, 3): refused
        with pytest.raises(ValueError) as direct:
            np.matmul(feed, feed)
        g = fw.Graph()
        with g.as_default():
            x = ops.placeholder(fw.float32, [None, None])
            n = ops.placeholder(fw.int32, [])

            def bad():
                return ops.reduce_sum(ops.matmul(x, x, name="bad_matmul"))

            if nest == "while_loop":
                _, y = fw.while_loop(
                    lambda i, acc: i < n,
                    lambda i, acc: (i + 1, acc + bad()),
                    (np.int32(0), ops.reduce_sum(x)))
            else:
                y = fw.cond(n > 0, bad, lambda: ops.reduce_sum(x))
            y = ops.add(ops.tanh(y), ops.exp(ops.reduce_sum(x)))
        plan = compile_plan(g, [y], [x, n], fuse=fuse)
        errors = {walk: got for walk, got, _ in _three_walks(
            plan, [x, n], [feed, np.int32(2)])}
        assert len(errors) == 4
        for walk, err in errors.items():
            assert isinstance(err, ExecutionError), walk
            assert err.op_name == "bad_matmul", walk
            assert str(err) == str(errors["serial"]), walk
            assert type(err.__cause__) is ValueError, walk
            assert str(err.__cause__) == str(direct.value), walk

    def test_a_refused_in_place_write_in_a_loop_body_counts_per_turn(self):
        """A loop body's ``Add`` is armed with its ``MatMul``'s float32
        buffer, and the variable it also reads holds float64 behind its
        declaration: every turn of every walk refuses the write once and
        computes the allocating kernel's bytes."""
        v = fw.Variable(np.ones((2, 2), np.float32), name="loop_refused")
        v._state.value = np.full((2, 2), 0.25, np.float64)
        w = np.array([[1, 2], [3, 4]], np.float32) / 8
        turns = 3
        g = fw.Graph()
        with g.as_default():
            x = ops.placeholder(fw.float32, [2, 2])
            n = ops.placeholder(fw.int32, [])
            _, y = fw.while_loop(
                lambda i, acc: i < n,
                lambda i, acc: (i + 1, ops.add(ops.matmul(acc, w),
                                               v.value())),
                (np.int32(0), x))
            y = ops.add(ops.tanh(y), ops.exp(x))
        xv = np.eye(2, dtype=np.float32)
        acc = xv
        for _ in range(turns):
            # Each turn's feed check coerces the carried value back to
            # its declared float32.
            acc = np.add(np.matmul(np.asarray(acc, np.float32), w),
                         v._state.value)
        want = np.add(np.tanh(acc), np.exp(xv))
        for fuse in (True, False):
            plan = compile_plan(g, [y], [x, n], fuse=fuse)
            for walk, got, refused in _three_walks(
                    plan, [x, n], [xv, np.int32(turns)]):
                assert not isinstance(got, ExecutionError), (walk, got)
                assert got[0].dtype == want.dtype, (fuse, walk)
                assert got[0].tobytes() == want.tobytes(), (fuse, walk)
                assert refused == turns, (fuse, walk)

    def test_scheduler_matches_serial_bitwise(self):
        x, y = _wide_graph()
        plan = _plan_for(y, [x])
        rng = np.random.default_rng(0)
        feed = rng.standard_normal((16, 16)).astype(np.float32)
        serial = BoundPlan(plan, [x]).execute_flat([feed])[0]
        with BlockScheduler(num_workers=4) as sched:
            bound = BoundPlan(plan, [x], sched)
            for _ in range(3):
                np.testing.assert_array_equal(
                    bound.execute_flat([feed])[0], serial)

    def test_parallel_plan_with_control_deps(self):
        g = fw.Graph()
        with g.as_default():
            x = ops.placeholder(fw.float32, [8])
            a = ops.tanh(x)
            b = ops.exp(x)
            b.op.add_control_input(a.op)
            y = ops.add(a, b)
        plan = _plan_for(y, [x])
        feed = np.linspace(-1, 1, 8, dtype=np.float32)
        with BlockScheduler(num_workers=2) as sched:
            out = BoundPlan(plan, [x], sched).execute_flat([feed])[0]
        np.testing.assert_allclose(out, np.tanh(feed) + np.exp(feed),
                                   rtol=1e-6)


class TestNoAliasDonation:
    def test_matmul_reuses_a_dead_buffer(self):
        g = fw.Graph()
        with g.as_default():
            x = ops.placeholder(fw.float32, [8, 8])
            # `dead` is consumed by `h` and never again; its buffer has
            # matmul's output shape/dtype and dies a level before it.
            dead = ops.multiply(x, 2.0)
            h = ops.tanh(dead)
            y = ops.matmul(h, h)
        plan = _plan_for(y, [x])
        donations = [s[5] for s in plan.steps if s[5] is not None]
        assert donations, "expected at least one in-place reuse record"
        rng = np.random.default_rng(1)
        feed = rng.standard_normal((8, 8)).astype(np.float32)
        out = BoundPlan(plan, [x]).execute_flat([feed])[0]
        expect = np.tanh(feed * 2.0) @ np.tanh(feed * 2.0)
        np.testing.assert_allclose(out, expect, rtol=1e-5)

    def test_same_level_buffer_is_not_taken(self):
        g = fw.Graph()
        with g.as_default():
            x = ops.placeholder(fw.float32, [8, 8])
            h = ops.tanh(x)
            # Both consume only `h`: they land in the same level, so
            # neither's input may be donated to the other's matmul.
            left = ops.matmul(h, h)
            right = ops.multiply(h, 3.0)
            y = ops.add(left, right)
        plan = _plan_for(y, [x])
        level_of = {i: lv for lv, level in enumerate(plan.levels)
                    for i in level}
        for i, step in enumerate(plan.steps):
            rec = step[5]
            if rec is None or not isinstance(rec, tuple):
                continue
            donor_slot = rec[0]
            producer = {s[0]: j for j, s in enumerate(plan.steps)}
            if donor_slot in producer:
                assert level_of[producer[donor_slot]] < level_of[i]
        rng = np.random.default_rng(2)
        feed = rng.standard_normal((8, 8)).astype(np.float32)
        with BlockScheduler(num_workers=4) as sched:
            out = BoundPlan(plan, [x], sched).execute_flat([feed])[0]
        h = np.tanh(feed)
        np.testing.assert_allclose(out, h @ h + h * 3.0, rtol=1e-5)

    def test_fetched_buffer_is_never_taken_for_matmul(self):
        g = fw.Graph()
        with g.as_default():
            x = ops.placeholder(fw.float32, [8, 8])
            inter = ops.multiply(x, 2.0)
            h = ops.tanh(inter)
            y = ops.matmul(h, h)
        plan = _plan_for([y, inter], [x])
        rng = np.random.default_rng(3)
        feed = rng.standard_normal((8, 8)).astype(np.float32)
        out, kept = BoundPlan(plan, [x]).execute_flat([feed])
        np.testing.assert_array_equal(kept, feed * 2.0)
