"""Kernel-level coverage: every public op against a NumPy reference,
in both execution modes."""

import numpy as np
import pytest

from repro import framework as fw
from repro.framework import ops


def both_modes(build):
    """Evaluate ``build()`` eagerly and staged; assert equal; return value."""
    eager = build()
    g = fw.Graph()
    with g.as_default():
        staged_t = build()
    staged = fw.Session(g).run(staged_t)
    e = np.asarray(eager)
    assert np.allclose(e, staged, rtol=1e-5, atol=1e-6, equal_nan=True)
    return e


RNG = np.random.default_rng(0)
A = RNG.normal(size=(3, 4)).astype(np.float32)
V = RNG.normal(size=(6,)).astype(np.float32)


class TestArrayOps:
    def test_shape_size_rank(self):
        assert both_modes(lambda: ops.shape(ops.constant(A))).tolist() == [3, 4]
        assert both_modes(lambda: ops.size(ops.constant(A))) == 12
        assert both_modes(lambda: ops.rank(ops.constant(A))) == 2

    def test_reshape_dynamic_shape(self):
        out = both_modes(lambda: ops.reshape(ops.constant(A), [2, 6]))
        assert out.shape == (2, 6)
        out2 = both_modes(lambda: ops.reshape(
            ops.constant(A), ops.constant(np.array([4, 3], np.int32))))
        assert out2.shape == (4, 3)

    def test_expand_squeeze(self):
        out = both_modes(lambda: ops.expand_dims(ops.constant(V), 0))
        assert out.shape == (1, 6)
        out = both_modes(lambda: ops.squeeze(
            ops.expand_dims(ops.constant(V), 1), axis=1))
        assert out.shape == (6,)

    def test_transpose_perm(self):
        out = both_modes(lambda: ops.transpose(ops.constant(A), (1, 0)))
        assert np.allclose(out, A.T)

    def test_concat_stack_unstack(self):
        out = both_modes(lambda: ops.concat(
            [ops.constant(A), ops.constant(A)], axis=0))
        assert out.shape == (6, 4)
        out = both_modes(lambda: ops.stack(
            [ops.constant(V), ops.constant(V)], axis=1))
        assert out.shape == (6, 2)
        parts = ops.unstack(ops.constant(A), axis=0)
        assert len(parts) == 3
        assert np.allclose(np.asarray(parts[1]), A[1])

    def test_tile(self):
        out = both_modes(lambda: ops.tile(ops.constant(V), [2]))
        assert out.shape == (12,)

    def test_gather(self):
        idx = np.array([2, 0], np.int64)
        out = both_modes(lambda: ops.gather(ops.constant(A), ops.constant(idx)))
        assert np.allclose(out, A[idx])

    def test_boolean_mask(self):
        mask = np.array([True, False, True], bool)
        out = both_modes(lambda: ops.boolean_mask(
            ops.constant(A), ops.constant(mask)))
        assert np.allclose(out, A[mask])

    def test_fill_zeros_ones_eye(self):
        assert both_modes(lambda: ops.fill([2, 2], 7.0)).tolist() == [[7, 7], [7, 7]]
        assert both_modes(lambda: ops.zeros((2,))).tolist() == [0, 0]
        assert both_modes(lambda: ops.ones((2,))).tolist() == [1, 1]
        assert both_modes(lambda: ops.eye(2)).tolist() == [[1, 0], [0, 1]]

    def test_zeros_ones_like(self):
        assert both_modes(lambda: ops.zeros_like(ops.constant(V))).sum() == 0
        assert both_modes(lambda: ops.ones_like(ops.constant(V))).sum() == 6

    def test_range_variants(self):
        assert both_modes(lambda: ops.range(4)).tolist() == [0, 1, 2, 3]
        assert both_modes(lambda: ops.range(1, 7, 2)).tolist() == [1, 3, 5]

    def test_one_hot(self):
        out = both_modes(lambda: ops.one_hot(
            ops.constant(np.array([0, 2], np.int64)), 3))
        assert out.tolist() == [[1, 0, 0], [0, 0, 1]]

    def test_one_hot_invalid_index_all_off(self):
        out = both_modes(lambda: ops.one_hot(
            ops.constant(np.array([-1, 5], np.int64)), 3))
        assert out.sum() == 0

    def test_where_rowwise_cond(self):
        """Legacy tf.where: rank-1 cond over rank-2 operands selects rows."""
        cond = np.array([True, False, True])
        x = np.ones((3, 2), np.float32)
        y = np.zeros((3, 2), np.float32)
        out = both_modes(lambda: ops.where(
            ops.constant(cond), ops.constant(x), ops.constant(y)))
        assert out.tolist() == [[1, 1], [0, 0], [1, 1]]

    @pytest.mark.parametrize("cond, x, y, want", [
        ([3], [3, 2], [3, 2], [3, 2]),      # rank-1 cond selects rows
        ([], [], [3, 2], [3, 2]),           # scalar arm broadcasts
        ([3, 2], [], [], [3, 2]),           # cond alone carries the shape
        ([None, 2], [1, 2], [], [None, 2]),
        (None, [3, 2], [3, 2], None),
    ])
    def test_where_static_shape_is_the_broadcast_shape(self, cond, x, y, want):
        g = fw.Graph()
        with g.as_default():
            out = ops.where(ops.placeholder(fw.bool_, cond),
                            ops.placeholder(fw.float32, x),
                            ops.placeholder(fw.float32, y))
        assert out.shape == fw.TensorShape(want)

    def test_getitem_variants(self):
        c = lambda: ops.constant(A)  # noqa: E731
        assert np.allclose(both_modes(lambda: ops.get_item(c(), 1)), A[1])
        assert np.allclose(both_modes(lambda: ops.get_item(c(), (1, 2))), A[1, 2])
        assert np.allclose(
            both_modes(lambda: ops.get_item(c(), slice(0, 2))), A[0:2])
        assert np.allclose(
            both_modes(lambda: ops.get_item(c(), (slice(None), 0))), A[:, 0])
        assert np.allclose(
            both_modes(lambda: ops.get_item(c(), (Ellipsis, 0))), A[..., 0])
        i = ops.constant(np.int32(2))

    def test_getitem_dynamic_slice_bound(self):
        def build():
            k = ops.constant(2)
            return ops.get_item(ops.constant(V), slice(None, k))

        assert np.allclose(both_modes(build), V[:2])

    def test_setitem(self):
        def build():
            return ops.set_item(ops.constant(V), 0, 42.0)

        out = both_modes(build)
        assert out[0] == 42.0


class TestMathOps:
    def test_floordiv_mod_pow(self):
        x = np.array([7, -7], np.int32)
        assert both_modes(lambda: ops.floordiv(ops.constant(x), 2)).tolist() == [3, -4]
        assert both_modes(lambda: ops.mod(ops.constant(x), 3)).tolist() == [1, 2]
        assert both_modes(lambda: ops.pow(ops.constant(2.0), 10.0)) == 1024.0

    def test_sign_floor_sqrt_log(self):
        assert both_modes(lambda: ops.sign(ops.constant([-2.0, 0.0, 5.0]))).tolist() == [-1, 0, 1]
        assert both_modes(lambda: ops.floor(ops.constant([1.7, -1.2]))).tolist() == [1, -2]
        assert both_modes(lambda: ops.sqrt(ops.constant(16.0))) == 4.0
        assert np.isclose(both_modes(lambda: ops.log(ops.constant(np.e, dtype=fw.float64))), 1.0)

    def test_reductions_with_axes(self):
        c = lambda: ops.constant(A)  # noqa: E731
        assert np.allclose(both_modes(lambda: ops.reduce_sum(c(), axis=0)), A.sum(0))
        assert np.allclose(both_modes(lambda: ops.reduce_mean(c(), axis=1)), A.mean(1))
        assert np.allclose(
            both_modes(lambda: ops.reduce_max(c(), axis=1, keepdims=True)),
            A.max(1, keepdims=True))
        assert np.allclose(both_modes(lambda: ops.reduce_min(c())), A.min())
        assert np.allclose(both_modes(lambda: ops.reduce_prod(
            ops.constant([1.0, 2.0, 3.0]))), 6.0)

    def test_reduce_all_any(self):
        b = np.array([True, False], bool)
        assert both_modes(lambda: ops.reduce_all(ops.constant(b))) == False  # noqa: E712
        assert both_modes(lambda: ops.reduce_any(ops.constant(b))) == True  # noqa: E712

    def test_argmax_argmin(self):
        assert both_modes(lambda: ops.argmax(ops.constant(V))) == V.argmax()
        assert both_modes(lambda: ops.argmin(ops.constant(V))) == V.argmin()

    def test_top_k(self):
        def build():
            vals, idx = ops.top_k(ops.constant(V), 3)
            return ops.stack([vals, ops.cast(idx, "float32")])

        out = both_modes(build)
        assert np.allclose(out[0], np.sort(V)[::-1][:3])

    def test_cast_chain(self):
        out = both_modes(lambda: ops.cast(ops.cast(ops.constant(3.9), "int32"),
                                          "float64"))
        assert out == 3.0

    def test_logical_ops(self):
        t = ops.constant(np.array([True, False]))
        f = ops.constant(np.array([True, True]))
        assert both_modes(lambda: ops.logical_and(
            ops.constant(np.array([True, False])),
            ops.constant(np.array([True, True])))).tolist() == [True, False]
        assert both_modes(lambda: ops.logical_not(
            ops.constant(np.array([True, False])))).tolist() == [False, True]

    def test_tensordot(self):
        out = both_modes(lambda: ops.tensordot(
            ops.constant(A), ops.constant(A.T.copy()), axes=1))
        assert np.allclose(out, A @ A.T, atol=1e-5)


class TestNNOps:
    def test_softmax_rows_sum_to_one(self):
        out = both_modes(lambda: ops.softmax(ops.constant(A)))
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    def test_log_softmax_consistent(self):
        ls = both_modes(lambda: ops.log_softmax(ops.constant(A)))
        s = both_modes(lambda: ops.softmax(ops.constant(A)))
        assert np.allclose(np.exp(ls), s, atol=1e-6)

    def test_softmax_stability(self):
        big = np.array([[1000.0, 1000.0]], np.float32)
        out = both_modes(lambda: ops.softmax(ops.constant(big)))
        assert np.allclose(out, [[0.5, 0.5]])

    def test_xent_matches_manual(self):
        logits = A
        labels = np.eye(4, dtype=np.float32)[[0, 1, 2]]
        out = both_modes(lambda: ops.softmax_cross_entropy_with_logits(
            ops.constant(labels), ops.constant(logits)))
        manual = -(labels * np.log(
            np.exp(logits - logits.max(-1, keepdims=True)) /
            np.exp(logits - logits.max(-1, keepdims=True)).sum(-1, keepdims=True)
        )).sum(-1)
        assert np.allclose(out, manual, atol=1e-5)

    def test_sparse_xent_matches_dense(self):
        labels = np.array([1, 3, 0], np.int64)
        dense = np.eye(4, dtype=np.float32)[labels]
        sparse_loss = both_modes(
            lambda: ops.sparse_softmax_cross_entropy_with_logits(
                ops.constant(labels), ops.constant(A)))
        dense_loss = both_modes(
            lambda: ops.softmax_cross_entropy_with_logits(
                ops.constant(dense), ops.constant(A)))
        assert np.allclose(sparse_loss, dense_loss, atol=1e-5)

    def test_embedding_lookup(self):
        ids = np.array([1, 1, 0], np.int64)
        out = both_modes(lambda: ops.embedding_lookup(
            ops.constant(A), ops.constant(ids)))
        assert np.allclose(out, A[ids])


class TestRandomOps:
    def test_seeded_determinism_across_modes(self):
        ops.set_seed(123)
        eager = ops.random_normal([4]).numpy()
        ops.set_seed(123)
        g = fw.Graph()
        with g.as_default():
            t = ops.random_normal([4])
        staged = fw.Session(g).run(t)
        assert np.allclose(eager, staged)

    def test_uniform_bounds(self):
        ops.set_seed(0)
        out = ops.random_uniform([1000], minval=2.0, maxval=3.0).numpy()
        assert out.min() >= 2.0 and out.max() < 3.0

    def test_uniform_int(self):
        ops.set_seed(0)
        out = ops.random_uniform([100], minval=0, maxval=5, dtype=fw.int32)
        assert out.numpy().min() >= 0 and out.numpy().max() < 5

    def test_stateful_not_cached_between_runs(self):
        g = fw.Graph()
        with g.as_default():
            t = ops.random_normal([2])
        sess = fw.Session(g)
        ops.set_seed(9)
        a = sess.run(t)
        b = sess.run(t)
        assert not np.allclose(a, b)


class TestPrintAndGroup:
    def test_print_v2_eager(self, capsys):
        ops.print_v2("x =", ops.constant([1.0, 2.0]))
        out = capsys.readouterr().out
        assert "x =" in out and "1." in out

    def test_print_v2_staged(self, capsys):
        g = fw.Graph()
        with g.as_default():
            p = ops.print_v2("staged", ops.constant(5))
        assert capsys.readouterr().out == ""  # nothing at build time
        fw.Session(g).run(p)
        assert "staged" in capsys.readouterr().out

    def test_group_runs_all_inputs(self):
        g = fw.Graph()
        with g.as_default():
            v1 = fw.Variable(np.zeros(1, np.float32), name="gv1")
            v2 = fw.Variable(np.zeros(1, np.float32), name="gv2")
            grp = ops.group(v1.assign([1.0]), v2.assign([2.0]))
        fw.Session(g).run(grp)
        assert v1.numpy().tolist() == [1.0]
        assert v2.numpy().tolist() == [2.0]
