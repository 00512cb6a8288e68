"""Unit tests: eager tensors, eager execution, GradientTape."""

import threading

import numpy as np
import pytest

from repro import framework as fw
from repro.framework import GradientTape, ops
from repro.framework.eager.tensor import EagerTensor, convert_to_eager_tensor
from repro.framework.errors import InvalidArgumentError


class TestEagerTensor:
    def test_wraps_numpy(self):
        t = EagerTensor(np.arange(4))
        assert t.shape == (4,)
        assert t.numpy().tolist() == [0, 1, 2, 3]

    def test_python_float_defaults_float32(self):
        assert convert_to_eager_tensor(1.5).dtype is fw.float32

    def test_python_int_defaults_int32(self):
        assert convert_to_eager_tensor(3).dtype is fw.int32

    def test_bool_scalar(self):
        assert bool(ops.constant(True)) is True
        assert bool(ops.constant(0)) is False

    def test_bool_nonscalar_raises(self):
        with pytest.raises(InvalidArgumentError):
            bool(ops.constant([1, 2]))

    def test_iteration(self):
        rows = list(ops.constant([[1, 2], [3, 4]]))
        assert len(rows) == 2
        assert rows[0].numpy().tolist() == [1, 2]

    def test_iter_scalar_raises(self):
        with pytest.raises(TypeError):
            iter(ops.constant(1))

    def test_len(self):
        assert len(ops.constant([1, 2, 3])) == 3

    def test_index_protocol(self):
        data = [10, 20, 30]
        assert data[ops.constant(1)] == 20

    def test_index_float_raises(self):
        with pytest.raises(TypeError):
            [1, 2][ops.constant(1.0)]

    def test_equality_is_identity(self):
        a = ops.constant(1.0)
        b = ops.constant(1.0)
        assert a == a
        assert not (a == b)
        assert a != b
        # so tensors are usable in sets/dicts:
        assert len({a, b}) == 2

    def test_operator_overloads(self):
        a = ops.constant([1.0, 2.0])
        b = ops.constant([3.0, 4.0])
        assert np.allclose((a + b).numpy(), [4, 6])
        assert np.allclose((a - b).numpy(), [-2, -2])
        assert np.allclose((a * b).numpy(), [3, 8])
        assert np.allclose((b / a).numpy(), [3, 2])
        assert np.allclose((-a).numpy(), [-1, -2])
        assert np.allclose(abs(-a).numpy(), [1, 2])
        assert np.allclose((a ** 2).numpy(), [1, 4])

    def test_reflected_overloads(self):
        a = ops.constant([1.0, 2.0])
        assert np.allclose((10.0 + a).numpy(), [11, 12])
        assert np.allclose((10.0 - a).numpy(), [9, 8])
        assert np.allclose((10.0 / a).numpy(), [10, 5])

    def test_comparisons(self):
        a = ops.constant([1.0, 5.0])
        assert (a > 2.0).numpy().tolist() == [False, True]
        assert (a <= 1.0).numpy().tolist() == [True, False]

    def test_matmul_operator(self):
        a = ops.constant(np.eye(2, dtype=np.float32))
        b = ops.constant([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose((a @ b).numpy(), b.numpy())

    def test_getitem(self):
        a = ops.constant([[1, 2], [3, 4]])
        assert a[0].numpy().tolist() == [1, 2]
        assert a[0, 1].numpy() == 2
        assert a[:, 1].numpy().tolist() == [2, 4]

    def test_getitem_tensor_index(self):
        a = ops.constant([10, 20, 30])
        i = ops.constant(2)
        assert a[i].numpy() == 30


class TestEagerExecution:
    def test_kernel_error_wrapped(self):
        with pytest.raises(InvalidArgumentError):
            ops.matmul(ops.constant([1.0]), ops.constant([2.0]))

    def test_python_scalars_autoconvert(self):
        out = ops.add(1, 2)
        assert out.numpy() == 3

    def test_numpy_inputs_autoconvert(self):
        out = ops.multiply(np.array([2.0]), np.array([3.0]))
        assert isinstance(out, EagerTensor)
        assert out.numpy().tolist() == [6.0]


class TestGradientTape:
    def test_simple_gradient(self):
        x = ops.constant([2.0, 3.0])
        with GradientTape() as tape:
            tape.watch(x)
            y = ops.reduce_sum(ops.multiply(x, x))
        g = tape.gradient(y, x)
        assert np.allclose(g.numpy(), [4.0, 6.0])

    def test_chain_rule(self):
        x = ops.constant(0.5)
        with GradientTape() as tape:
            tape.watch(x)
            y = ops.exp(ops.multiply(x, 2.0))
        g = tape.gradient(y, x)
        assert np.isclose(float(g), 2.0 * np.exp(1.0))

    def test_unconnected_source_returns_none(self):
        x = ops.constant(1.0)
        z = ops.constant(2.0)
        with GradientTape() as tape:
            tape.watch(x)
            tape.watch(z)
            y = ops.multiply(x, 3.0)
        gx, gz = tape.gradient(y, [x, z])
        assert gx is not None
        assert gz is None

    def test_unwatched_returns_none(self):
        x = ops.constant(1.0)
        with GradientTape() as tape:
            y = ops.multiply(x, 3.0)
        assert tape.gradient(y, x) is None

    def test_nonpersistent_single_use(self):
        x = ops.constant(1.0)
        with GradientTape() as tape:
            tape.watch(x)
            y = x * x
        tape.gradient(y, x)
        with pytest.raises(fw.FrameworkError):
            tape.gradient(y, x)

    def test_persistent_reuse(self):
        x = ops.constant(3.0)
        with GradientTape(persistent=True) as tape:
            tape.watch(x)
            y = x * x
            z = y * x
        assert np.isclose(float(tape.gradient(y, x)), 6.0)
        assert np.isclose(float(tape.gradient(z, x)), 27.0)

    def test_matmul_gradient(self):
        w = ops.constant(np.random.default_rng(0).normal(size=(3, 2)).astype(np.float32))
        x = ops.constant(np.random.default_rng(1).normal(size=(4, 3)).astype(np.float32))
        with GradientTape() as tape:
            tape.watch(w)
            y = ops.reduce_sum(ops.matmul(x, w))
        g = tape.gradient(y, w)
        expected = x.numpy().T @ np.ones((4, 2), np.float32)
        assert np.allclose(g.numpy(), expected, atol=1e-5)

    def test_broadcast_gradient_unbroadcasts(self):
        b = ops.constant([1.0, 2.0])
        x = ops.constant(np.ones((5, 2), np.float32))
        with GradientTape() as tape:
            tape.watch(b)
            y = ops.reduce_sum(ops.add(x, b))
        g = tape.gradient(b=None, target=y, sources=b) if False else tape.gradient(y, b)
        assert g.numpy().tolist() == [5.0, 5.0]

    def test_gradient_through_where(self):
        x = ops.constant([-1.0, 2.0])
        with GradientTape() as tape:
            tape.watch(x)
            y = ops.reduce_sum(ops.where(ops.greater(x, 0.0), x * 3.0, x))
        g = tape.gradient(y, x)
        assert g.numpy().tolist() == [1.0, 3.0]

    def test_variable_watching(self):
        v = fw.Variable(np.array([1.0, 2.0], np.float32))
        with GradientTape() as tape:
            tape.watch(v)
            y = ops.reduce_sum(ops.multiply(v.value(), v.value()))
        g = tape.gradient(y, v)
        assert np.allclose(g.numpy(), [2.0, 4.0])

    def test_each_thread_records_on_its_own_tape(self):
        """Two threads, each inside its own tape, run an op on one
        watched tensor while both tapes are active: each tape records
        its own thread's op and not the other's."""
        x = ops.constant(np.float64(2.0))
        both = threading.Barrier(2)
        seen = {}

        def run(scale):
            with GradientTape() as tape:
                tape.watch(x)
                both.wait()
                y = x * scale
                both.wait()
            seen[scale] = ([r.inputs[1].numpy() for r in tape._records],
                           float(tape.gradient(y, x)))

        threads = [threading.Thread(target=run, args=(s,)) for s in (3.0, 5.0)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == {3.0: ([3.0], 3.0), 5.0: ([5.0], 5.0)}

    def test_second_tape_independent(self):
        x = ops.constant(2.0)
        with GradientTape() as t1:
            t1.watch(x)
            with GradientTape() as t2:
                t2.watch(x)
                y = x * x
            g2 = t2.gradient(y, x)
        assert np.isclose(float(g2), 4.0)
