"""Declared dtypes are the kernels' own.

A ``Cond``/``While`` sub-graph is fed through ``BoundPlan``, which coerces
every capture and loop variable to the dtype the graph builder *declared*
for it — so a declaration narrower than what the kernel returns is not a
cosmetic error, it truncates values at the branch boundary.  The oracle
(``tests/test_oracle.py``) sweeps every op over the dtype grid and runs
the programs whose answers a guessed dtype used to change; here, the
declarations that sweep must not pass by skipping, and the values those
programs used to get wrong.
"""

import numpy as np

import repro
from repro import framework as fw
from repro.framework import ops
from test_oracle import fill_captured_by_branch, mean_then_branch


def test_scan_reaches_the_ops_it_is_meant_to_guard():
    """The oracle's op × dtype sweep skips whatever a kernel refuses;
    make sure that is not how the interesting ops pass."""
    g = fw.Graph()
    with g.as_default():
        i32 = ops.placeholder(fw.int32, [2, 2])
        f32 = ops.placeholder(fw.float32, [2, 2])
        b = ops.placeholder(fw.bool_, [2, 2])
        assert ops.subtract(f32, i32).dtype == fw.float64
        assert ops.reduce_sum(i32).dtype == fw.int64
        assert ops.reduce_mean(i32).dtype == fw.float64
        assert ops.reduce_mean(f32).dtype == fw.float32
        assert ops.sqrt(i32).dtype == fw.float64
        assert ops.divide(i32, i32).dtype == fw.float64
        assert ops.matmul(i32, f32).dtype == fw.float64
        assert ops.concat([f32, i32], axis=0).dtype == fw.float64
        assert ops.fill([3], 0.5).dtype == fw.float32
        assert ops.greater(i32, f32).dtype == fw.bool_
        # NumPy refuses bool negation: nothing can be promised.
        assert ops.negative(b).dtype == fw.variant


def test_the_motivation_values():
    got = repro.function(mean_then_branch)(
        np.array([1, 2, 4], np.int32), np.int32(1)).numpy()
    assert got.dtype == np.float64 and abs(got - (7 / 3 + 0.25)) < 1e-12
    got = repro.function(fill_captured_by_branch)(
        np.ones(3, np.float32), np.int32(1)).numpy()
    np.testing.assert_array_equal(got, np.full(3, 1.5, np.float32))
