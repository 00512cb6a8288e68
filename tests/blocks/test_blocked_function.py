"""Blocked feeds through ``@repro.function``: lowering + level-parallel
execution behind the normal tracing-JIT surface."""

import os

import numpy as np
import pytest

import repro
from repro.blocks import BlockArray, BlockGrid, BlockSpec
from repro.framework import Variable, ops
from repro.framework.eager.tape import GradientTape
from repro.framework.errors import StagingError


def _ints(shape, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return rng.integers(-4, 5, size=shape).astype(dtype)


GRID = BlockGrid.regular((8, 6), (4, 3))


def _blocked(x):
    return BlockArray.from_dense(x, grid=GRID)


class TestBlockedCalls:
    def test_blocked_feed_matches_dense(self):
        @repro.function
        def f(a, b):
            return ops.reduce_sum(ops.relu(ops.matmul(a, b)), axis=1)

        x, w = _ints((8, 6)), _ints((6, 4), seed=1)
        dense = np.asarray(f(x, w))
        blocked = np.asarray(f(_blocked(x), w))
        # Integer-valued floats: the blocked tree accumulation is exact,
        # so the lowered plan must reproduce the dense result bitwise.
        np.testing.assert_array_equal(blocked, dense)

    def test_blocked_and_dense_are_separate_traces(self):
        @repro.function
        def f(a):
            return ops.add(a, 1.0)

        x = _ints((8, 6))
        f(x)
        assert f.trace_count == 1
        f(_blocked(x))
        assert f.trace_count == 2
        # Both signatures cached: repeat calls do not retrace.
        f(x)
        f(_blocked(x))
        assert f.trace_count == 2

    def test_different_grid_is_a_different_executable(self):
        @repro.function
        def f(a):
            return ops.multiply(a, 2.0)

        x = _ints((8, 6))
        f(_blocked(x))
        other = BlockArray.from_dense(x, block_shape=(2, 6))
        np.testing.assert_array_equal(np.asarray(f(other)), x * 2.0)
        assert f.trace_count == 2

    def test_num_workers_does_not_change_bits(self):
        def body(a, b):
            h = ops.tanh(ops.add(ops.matmul(a, b), 0.5))
            return ops.reduce_sum(ops.multiply(h, h), axis=0)

        serial = repro.function(body, num_workers=1)
        parallel = repro.function(body, num_workers=4)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((8, 6)).astype(np.float32)
        w = rng.standard_normal((6, 4)).astype(np.float32)
        a, b = _blocked(x), w
        first = np.asarray(serial(a, b))
        np.testing.assert_array_equal(np.asarray(parallel(a, b)), first)
        np.testing.assert_array_equal(np.asarray(parallel(a, b)), first)

    def test_traced_signatures_share_the_functions_one_scheduler(self):
        @repro.function
        def f(a):
            return ops.multiply(a, 2.0)

        x = _ints((8, 6))
        dense = f.get_concrete_function(x)
        first = f.get_concrete_function(_blocked(x))
        second = f.get_concrete_function(
            BlockArray.from_dense(x, block_shape=(2, 6)))
        # Dense stays serial unless asked; blocked defaults to a pool —
        # the same pool for every blocked signature of this function.
        assert dense._bound.scheduler is None
        assert first._bound.scheduler is second._bound.scheduler
        if (os.cpu_count() or 1) > 1:
            assert first._bound.scheduler is not None

        asked = repro.function(lambda a: ops.add(a, 1.0), num_workers=4,
                               autograph=False)
        one = asked.get_concrete_function(x)
        two = asked.get_concrete_function(_blocked(x))
        assert one._bound.scheduler is two._bound.scheduler is not None
        assert one._bound.scheduler.num_workers == 4
        serial = repro.function(lambda a: ops.add(a, 1.0), num_workers=1,
                                autograph=False)
        assert serial.get_concrete_function(
            _blocked(x))._bound.scheduler is None

    def test_blocked_output_structure(self):
        @repro.function
        def f(a):
            return {"sum": ops.reduce_sum(a), "double": ops.add(a, a)}

        x = _ints((8, 6))
        out = f(_blocked(x))
        assert set(out) == {"sum", "double"}
        np.testing.assert_array_equal(np.asarray(out["sum"]), x.sum())
        np.testing.assert_array_equal(np.asarray(out["double"]), x + x)

    def test_wrong_grid_at_call_time_raises(self):
        @repro.function
        def f(a):
            return ops.add(a, 1.0)

        cf = f.get_concrete_function(_blocked(_ints((8, 6))))
        other = BlockArray.from_dense(_ints((8, 6)), block_shape=(2, 2))
        with pytest.raises(StagingError, match="expects BlockSpec"):
            cf(other)


class TestBlockSpec:
    def test_get_concrete_function_from_spec(self):
        @repro.function
        def f(a, b):
            return ops.matmul(a, b)

        w = _ints((6, 4), seed=3)
        cf = f.get_concrete_function(
            BlockSpec(GRID, "float32"), repro.TensorSpec.from_value(w))
        x = _ints((8, 6))
        np.testing.assert_array_equal(np.asarray(cf(_blocked(x), w)), x @ w)
        assert f.trace_count == 1

    def test_spec_never_equals_plain_tensor_spec(self):
        spec = BlockSpec(GRID, "float32")
        plain = repro.TensorSpec(spec.shape, spec.dtype)
        assert spec != plain
        assert plain != spec
        assert spec == BlockSpec(GRID, "float32")
        assert spec != BlockSpec(
            BlockGrid.regular((8, 6), (2, 2)), "float32")

    def test_most_general_is_identity(self):
        spec = BlockSpec(GRID, "float32")
        assert spec.most_general() is spec

    def test_compatibility(self):
        spec = BlockSpec(GRID, "float32")
        assert spec.is_compatible_with(_blocked(_ints((8, 6))))
        assert not spec.is_compatible_with(_ints((8, 6)))


class TestStateAndErrors:
    def test_captured_variable_reads_track_assigns(self):
        v = Variable(np.ones((6, 4), np.float32), name="blocked_capture_w")

        @repro.function
        def g(a):
            return ops.matmul(a, v.value())

        x = _ints((8, 6))
        blocked = _blocked(x)
        np.testing.assert_array_equal(np.asarray(g(blocked)), x @ v.numpy())
        v.assign(np.full((6, 4), 2.0, np.float32))
        # No retrace: the lowered plan re-reads the capture per call.
        traces = g.trace_count
        np.testing.assert_array_equal(np.asarray(g(blocked)), x @ v.numpy())
        assert g.trace_count == traces

    def test_tape_over_blocked_call_raises(self):
        @repro.function
        def f(a):
            return ops.reduce_sum(a)

        blocked = _blocked(_ints((8, 6)))
        f(blocked)
        with pytest.raises(StagingError, match="block-partitioned"):
            with GradientTape():
                f(blocked)

    def test_lantern_backend_rejects_blocked_feeds(self):
        @repro.function(backend="lantern")
        def f(a):
            return a

        with pytest.raises(StagingError, match="graph-backend"):
            f(_blocked(_ints((8, 6))))

    def test_autograph_control_flow_lowers(self):
        # The blocked route goes through the same AutoGraph conversion;
        # data-dependent staging must still work on blocked feeds.
        @repro.function
        def f(a):
            total = ops.reduce_sum(a)
            if total > 0:  # staged via autograph cond on a traced value
                return ops.add(a, 1.0)
            return ops.subtract(a, 1.0)

        x = np.abs(_ints((8, 6))) + 1.0
        np.testing.assert_array_equal(
            np.asarray(f(_blocked(x))), np.asarray(f(x)))


class TestLoweredOpCoverage:
    """Each structural lowering route, driven through the JIT surface."""

    def test_concat_of_blocked_inputs(self):
        @repro.function
        def f(a, b):
            return ops.concat([a, b], axis=0)

        x, y = _ints((8, 6)), _ints((8, 6), seed=5)
        out = f(_blocked(x), _blocked(y))
        np.testing.assert_array_equal(
            np.asarray(out), np.concatenate([x, y], axis=0))

    def test_transpose_of_blocked_input(self):
        @repro.function
        def f(a):
            return ops.transpose(a)

        x = _ints((8, 6))
        np.testing.assert_array_equal(np.asarray(f(_blocked(x))), x.T)

    def test_mean_and_extrema_reductions(self):
        @repro.function
        def f(a):
            return (ops.reduce_mean(a, axis=0), ops.reduce_max(a),
                    ops.reduce_min(a, axis=1, keepdims=True))

        x = _ints((8, 6))
        m, mx, mn = f(_blocked(x))
        np.testing.assert_array_equal(np.asarray(m), x.mean(axis=0))
        np.testing.assert_array_equal(np.asarray(mx), x.max())
        np.testing.assert_array_equal(
            np.asarray(mn), x.min(axis=1, keepdims=True))

    def test_getitem_slice_of_blocked_input(self):
        @repro.function
        def f(a):
            return a[2:7]

        x = _ints((8, 6))
        np.testing.assert_array_equal(np.asarray(f(_blocked(x))), x[2:7])

    def test_reshape_falls_back_to_dense(self):
        @repro.function
        def f(a):
            return ops.reshape(a, [6, 8])

        x = _ints((8, 6))
        np.testing.assert_array_equal(
            np.asarray(f(_blocked(x))), x.reshape(6, 8))

    def test_mean_of_int_blocked_input_promotes(self):
        @repro.function
        def f(a):
            return ops.reduce_mean(a)

        x = np.arange(48, dtype=np.int32).reshape(8, 6)
        out = np.asarray(f(BlockArray.from_dense(x, grid=GRID)))
        np.testing.assert_allclose(out, x.mean())
