"""Level-parallel plan execution and the no-alias donation discipline.

``compile_plan`` now buckets steps into wavefront levels (every step's
data, control and stateful-order dependencies live in strictly earlier
levels), and ``ExecutionPlan.execute`` fans a level's steps out on a
scheduler.  These tests pin the two properties that make that safe:

- scheduling never changes results (levels respect all three dependency
  kinds, and the fixed combination trees make the math order-free);
- ``inplace_no_alias`` donation (MatMul's BLAS ``out=``) only takes
  buffers whose last use is in a strictly earlier *level*, so a
  concurrently-running sibling step can never observe the overwrite.
"""

import numpy as np
import pytest

import repro
from repro import framework as fw
from repro import observe
from repro.blocks import BlockArray, BlockGrid, BlockScheduler
from repro.blocks.lowering import lower_blocked_graph
from repro.framework import TensorArray, ops
from repro.framework.errors import ExecutionError
from repro.runtime import BoundPlan, compile_plan


def _plan_for(fetches, feeds=()):
    # These tests pin the *per-step* level machinery, so they compile
    # unfused — elementwise fusion would (correctly) collapse the wide
    # diamond into one composite step.  Fusion×levels interaction is
    # covered in test_fusion.py.
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
        level_of = {}
        for lv, level in enumerate(plan.levels):
            for i in level:
                level_of[i] = lv
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
        level_of = {}
        for lv, level in enumerate(plan.levels):
            for i in level:
                level_of[i] = lv
        stateful = [i for i, op in enumerate(["rand", "rand", "add"])
                    if op == "rand"]
        assert level_of[stateful[0]] != level_of[stateful[1]]


# -- graph families for the one-body test: each returns (feeds, fetches,
# feed values, reset) — ``reset()`` restores any state a run mutates. ------


def _fused_chain(g):
    with g.as_default():
        x = ops.placeholder(fw.float32, [5])
        h = ops.tanh(ops.multiply(ops.add(x, 1.0), 2.0))
        y = ops.subtract(ops.exp(h), ops.abs(x))
    return [x], [y], [np.linspace(-2, 2, 5).astype(np.float32)], None


def _cond_family(g):
    with g.as_default():
        x = ops.placeholder(fw.float32, [4])
        y = fw.cond(ops.greater(ops.reduce_sum(x), 0.0),
                    lambda: ops.tanh(ops.multiply(x, 10.0)),
                    lambda: ops.subtract(x, 10.0))
    return [x], [y], [np.linspace(-1, 2, 4).astype(np.float32)], None


def _while_tensor_array(g):
    with g.as_default():
        x = ops.placeholder(fw.float32, [3, 4])
        n = ops.placeholder(fw.int32, [])
        _, ta = fw.while_loop(
            lambda i, ta: ops.less(i, n),
            lambda i, ta: (ops.add(i, 1), ta.write(i, ops.tanh(x) * 2.0)),
            [ops.constant(0), TensorArray(fw.float32, size=0)])
        y = ops.transpose(ta.stack(), [1, 0, 2])
    return [x, n], [y], [np.arange(12, dtype=np.float32).reshape(3, 4),
                         np.int32(3)], None


def _variable_assign_and_read(g):
    v = fw.Variable(np.zeros(3, np.float32), name="one_body_v")
    with g.as_default():
        x = ops.placeholder(fw.float32, [3])
        updated = v.assign_add(ops.exp(x))
        y = ops.multiply(v.value(), 2.0)
    return ([x], [updated, y], [np.ones(3, np.float32)],
            lambda: v.assign(np.zeros(3, np.float32)))


def _donated_matmul(g):
    with g.as_default():
        x = ops.placeholder(fw.float32, [8, 8])
        h = ops.tanh(ops.multiply(x, 2.0))
        y = ops.matmul(h, h)
    feed = np.random.default_rng(1).standard_normal((8, 8))
    return [x], [y], [feed.astype(np.float32)], None


def _multi_output(g):
    with g.as_default():
        x = ops.placeholder(fw.float32, [4, 6])
        values, indices = ops.top_k(ops.tanh(x), k=2)
        y = ops.add(values, ops.cast(indices, fw.float32))
    feed = np.random.default_rng(2).standard_normal((4, 6))
    return [x], [values, indices, y], [feed.astype(np.float32)], None


def _refused_in_place_write(g):
    """``Add`` is armed with ``Negative``'s float32 buffer; the variable
    it also reads holds float64 behind its declaration, so every walk
    must refuse the write, count it and recompute."""
    v = fw.Variable(np.ones(3, np.float32), name="one_body_refused")
    v._state.value = np.array([0.1, 0.2, 0.3], np.float64)
    with g.as_default():
        x = ops.placeholder(fw.float32, [3])
        y = ops.add(ops.negative(x), v.value())
    return [x], [y], [np.array([1, 2, 3], np.float32)], None


def _blocked_function(_g):
    @repro.function
    def f(a, b):
        h = ops.tanh(ops.add(ops.matmul(a, b), 0.5))
        return ops.reduce_sum(ops.multiply(h, h), axis=0)

    rng = np.random.default_rng(7)
    x = rng.standard_normal((8, 6)).astype(np.float32)
    w = rng.standard_normal((6, 4)).astype(np.float32)
    blocked = BlockArray.from_dense(
        x, grid=BlockGrid.regular((8, 6), (4, 3)))
    cf = f.get_concrete_function(blocked, w)
    lowered = lower_blocked_graph(
        cf.optimized_graph, cf._runtime_feeds, cf._run_fetches,
        cf._block_grids)
    return (list(lowered.feeds), list(lowered.fetches),
            blocked.block_list() + [w], None)


FAMILIES = {
    "fused_chain": _fused_chain,
    "cond": _cond_family,
    "while_tensor_array": _while_tensor_array,
    "variable_assign_and_read": _variable_assign_and_read,
    "donated_matmul": _donated_matmul,
    "multi_output": _multi_output,
    "refused_in_place_write": _refused_in_place_write,
    "blocked_function": _blocked_function,
}


def _three_walks(plan, feeds, values, reset=None):
    """Run ``plan`` through every walk; yields ``(walk, flat results or
    the ExecutionError raised, runtime.inplace_refusals delta)``."""
    with BlockScheduler(num_workers=4) as sched:
        for walk, scheduler, recording in [
                ("serial", None, False), ("levels", sched, False),
                ("recorded", None, True), ("recorded levels", sched, True)]:
            if reset is not None:
                reset()
            bound = BoundPlan(plan, feeds, scheduler)
            before = observe.counters().get("runtime.inplace_refusals", 0)
            if recording:
                observe.enable()
            try:
                got = bound.execute_flat(values)
            except ExecutionError as e:
                got = e
            finally:
                if recording:
                    observe.disable()
                    observe.RECORDER.clear()
            yield walk, got, observe.counters().get(
                "runtime.inplace_refusals", 0) - before


class TestParallelExecution:
    @pytest.mark.parametrize("family", FAMILIES.values(), ids=FAMILIES.keys())
    def test_every_walk_is_the_one_step_body(self, family):
        """Serial, 4-worker level walk and recorder-on, fused and
        unfused: same bytes, same refusals."""
        g = fw.Graph()
        feeds, fetches, values, reset = family(g)
        graph = feeds[0].graph
        want, refusals = None, {}
        for fuse in (True, False):
            plan = compile_plan(graph, fetches, feeds, fuse=fuse)
            for walk, got, refused in _three_walks(
                    plan, feeds, values, reset):
                assert not isinstance(got, ExecutionError), (walk, got)
                got = [(np.asarray(a).dtype, np.asarray(a).shape,
                        np.asarray(a).tobytes()) for a in got]
                want = want or got
                assert got == want, (fuse, walk)
                assert refused == refusals.setdefault(fuse, refused), walk
        # Only the family built to be refused is, and only where the
        # armed step survives (fused, ``Negative`` + ``Add`` are one
        # composite kernel with no temporary to donate).
        assert refusals == {
            True: 0, False: int(family is _refused_in_place_write)}

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
        level_of = {}
        for lv, level in enumerate(plan.levels):
            for i in level:
                level_of[i] = lv
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
