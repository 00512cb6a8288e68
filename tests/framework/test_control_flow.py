"""Unit tests: graph cond/while_loop, capture, TensorArray, staging errors."""

import numpy as np
import pytest

from repro import framework as fw
from repro.framework import TensorArray, ops
from repro.framework.errors import StagingError


def _run(graph, fetches, feeds=None):
    return fw.Session(graph).run(fetches, feeds or {})


class TestCond:
    def test_branch_selection(self):
        g = fw.Graph()
        with g.as_default():
            p = ops.placeholder(fw.float32, [])
            out = fw.cond(ops.greater(p, 0.0), lambda: p * 2.0, lambda: p - 1.0)
        sess = fw.Session(g)
        assert sess.run(out, {p: 3.0}) == 6.0
        assert sess.run(out, {p: -3.0}) == -4.0

    def test_only_taken_branch_executes(self):
        g = fw.Graph()
        with g.as_default():
            p = ops.placeholder(fw.bool_, [])
            # The false branch fails at *run* time if executed (both
            # branches are traced, but only the taken one runs).
            out = fw.cond(
                p,
                lambda: ops.constant(1.0),
                lambda: ops.multiply(
                    ops.constant(0.0),
                    ops.cast(ops.assert_op(ops.constant(False)), "float32"),
                ),
            )
        sess = fw.Session(g)
        assert sess.run(out, {p: True}) == 1.0
        with pytest.raises(fw.ExecutionError):
            sess.run(out, {p: False})

    def test_capture_of_outer_tensor(self):
        g = fw.Graph()
        with g.as_default():
            x = ops.constant([1.0, 2.0])
            out = fw.cond(ops.constant(True), lambda: x * 2.0, lambda: x)
        assert np.allclose(_run(g, out), [2.0, 4.0])

    def test_structure_mismatch_raises(self):
        g = fw.Graph()
        with g.as_default():
            with pytest.raises(StagingError, match="structure"):
                fw.cond(ops.constant(True),
                        lambda: (ops.constant(1.0), ops.constant(2.0)),
                        lambda: ops.constant(1.0))

    def test_dtype_mismatch_is_declared_variant(self):
        """Dtype is relaxed like shape: what the branches do not agree on
        is decided by whichever runs (structure mismatches still raise)."""
        g = fw.Graph()
        with g.as_default():
            p = ops.placeholder(fw.bool_, [])
            out = fw.cond(p,
                          lambda: ops.constant(1.5),
                          lambda: ops.constant(1))
        assert out.dtype == fw.variant
        sess = fw.Session(g)
        for pred, want in ((True, np.float32(1.5)), (False, np.int32(1))):
            got = sess.run(out, {p: pred})
            assert got.dtype == want.dtype and got == want

    def test_nested_cond(self):
        g = fw.Graph()
        with g.as_default():
            p = ops.placeholder(fw.int32, [])
            out = fw.cond(
                ops.greater(p, 0),
                lambda: fw.cond(ops.greater(p, 10),
                                lambda: ops.constant(2.0),
                                lambda: ops.constant(1.0)),
                lambda: ops.constant(0.0),
            )
        sess = fw.Session(g)
        assert sess.run(out, {p: 20}) == 2.0
        assert sess.run(out, {p: 5}) == 1.0
        assert sess.run(out, {p: -1}) == 0.0

    def test_multiple_outputs(self):
        g = fw.Graph()
        with g.as_default():
            a, b = fw.cond(ops.constant(False),
                           lambda: (ops.constant(1.0), ops.constant(2.0)),
                           lambda: (ops.constant(3.0), ops.constant(4.0)))
        assert _run(g, (a, b)) == (3.0, 4.0)

    def test_eager_cond_runs_directly(self):
        out = ops.cond(ops.constant(True), lambda: ops.constant(5.0),
                       lambda: ops.constant(1.0))
        assert float(out) == 5.0


class TestWhileLoop:
    def test_counting(self):
        g = fw.Graph()
        with g.as_default():
            i, total = fw.while_loop(
                lambda i, t: ops.less(i, 5),
                lambda i, t: (ops.add(i, 1), ops.add(t, i)),
                (ops.constant(0), ops.constant(0)),
            )
        assert _run(g, (i, total)) == (5, 10)

    def test_zero_iterations(self):
        g = fw.Graph()
        with g.as_default():
            (i,) = fw.while_loop(
                lambda i: ops.less(i, 0), lambda i: (ops.add(i, 1),),
                (ops.constant(10),),
            )
        assert _run(g, i) == 10

    def test_capture(self):
        g = fw.Graph()
        with g.as_default():
            step = ops.placeholder(fw.int32, [])
            (i,) = fw.while_loop(
                lambda i: ops.less(i, 10),
                lambda i: (ops.add(i, step),),
                (ops.constant(0),),
            )
        assert _run(g, i, {step: 3}) == 12

    def test_maximum_iterations(self):
        g = fw.Graph()
        with g.as_default():
            (i,) = fw.while_loop(
                lambda i: ops.constant(True),
                lambda i: (ops.add(i, 1),),
                (ops.constant(0),),
                maximum_iterations=7,
            )
        assert _run(g, i) == 7

    def test_dtype_consistency_enforced(self):
        """Enforced by declaring less: a variable the body hands back at
        another dtype is re-traced declared variant, so no turn coerces
        it (structure mismatches still raise)."""
        g = fw.Graph()
        with g.as_default():
            n = ops.placeholder(fw.int32, [])
            (i,) = fw.while_loop(
                lambda i: ops.less(i, n),
                lambda i: (ops.add(ops.cast(i, "float32"), 1.5),),
                (ops.constant(0),),
            )
        assert i.dtype == fw.variant
        got = fw.Session(g).run(i, {n: 3})
        assert got.dtype == np.float32 and got == 3.0
        # No turn: the int32 initial value comes back untouched.
        got = fw.Session(g).run(i, {n: 0})
        assert got.dtype == np.int32 and got == 0

    def test_structure_mismatch(self):
        g = fw.Graph()
        with g.as_default():
            with pytest.raises(StagingError, match="structure"):
                fw.while_loop(
                    lambda i, j: ops.less(i, 3),
                    lambda i, j: (ops.add(i, 1),),
                    (ops.constant(0), ops.constant(0)),
                )

    def test_nested_while(self):
        g = fw.Graph()
        with g.as_default():
            def outer_body(i, total):
                def inner_body(j, t):
                    return ops.add(j, 1), ops.add(t, 1)

                _, total = fw.while_loop(
                    lambda j, t: ops.less(j, 3), inner_body,
                    (ops.constant(0), total),
                )
                return ops.add(i, 1), total

            _, total = fw.while_loop(
                lambda i, t: ops.less(i, 4), outer_body,
                (ops.constant(0), ops.constant(0)),
            )
        assert _run(g, total) == 12

    def test_while_with_cond_inside(self):
        g = fw.Graph()
        with g.as_default():
            def body(i, t):
                add = fw.cond(ops.equal(ops.mod(i, 2), 0),
                              lambda: ops.constant(10),
                              lambda: ops.constant(1))
                return ops.add(i, 1), ops.add(t, add)

            _, t = fw.while_loop(lambda i, t: ops.less(i, 4), body,
                                 (ops.constant(0), ops.constant(0)))
        assert _run(g, t) == 22  # 10 + 1 + 10 + 1

    def test_eager_while_runs_directly(self):
        i, = ops.while_loop(lambda i: i < 3, lambda i: (ops.add(i, 1),),
                            (ops.constant(0),))
        assert int(i) == 3

    def test_matrix_loop_state(self):
        g = fw.Graph()
        with g.as_default():
            m0 = ops.constant(np.eye(2, dtype=np.float32))
            a = ops.constant(np.array([[1.0, 1.0], [0.0, 1.0]], np.float32))
            _, m = fw.while_loop(
                lambda i, m: ops.less(i, 3),
                lambda i, m: (ops.add(i, 1), ops.matmul(m, a)),
                (ops.constant(0), m0),
            )
        out = _run(g, m)
        assert np.allclose(out, np.linalg.matrix_power(
            np.array([[1, 1], [0, 1]]), 3))


class TestTensorArray:
    def test_write_read_eager(self):
        ta = TensorArray(fw.float32, size=0)
        ta = ta.write(0, ops.constant([1.0]))
        ta = ta.write(1, ops.constant([2.0]))
        assert float(ta.read(0)[0]) == 1.0
        assert int(ta.size()) == 2

    def test_stack_eager(self):
        ta = TensorArray(fw.float32, size=0)
        for i in range(3):
            ta = ta.write(i, ops.constant([float(i)]))
        assert ta.stack().numpy().tolist() == [[0.0], [1.0], [2.0]]

    def test_value_semantics(self):
        ta = TensorArray(fw.float32, size=0)
        ta2 = ta.write(0, ops.constant(1.0))
        assert int(ta.size()) == 0
        assert int(ta2.size()) == 1

    def test_read_unwritten_raises(self):
        ta = TensorArray(fw.float32, size=0)
        with pytest.raises(fw.InvalidArgumentError):
            ta.read(0)

    def test_unstack(self):
        ta = TensorArray.unstack(ops.constant([[1.0], [2.0]]))
        assert int(ta.size()) == 2
        assert float(ta.read(1)[0]) == 2.0

    def test_as_while_loop_state(self):
        g = fw.Graph()
        with g.as_default():
            ta = TensorArray(fw.float32, size=0)

            def body(i, ta):
                return ops.add(i, 1), ta.write(i, ops.cast(i, "float32"))

            _, ta_final = fw.while_loop(
                lambda i, ta: ops.less(i, 4), body, (ops.constant(0), ta)
            )
            stacked = ta_final.stack()
        assert _run(g, stacked).tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_through_cond(self):
        g = fw.Graph()
        with g.as_default():
            ta = TensorArray(fw.float32, size=0).write(0, ops.constant(1.0))
            ta_out = fw.cond(
                ops.constant(True),
                lambda: ta.write(1, ops.constant(2.0)),
                lambda: ta,
            )
            out = ta_out.stack()
        assert _run(g, out).tolist() == [1.0, 2.0]


class TestVariables:
    def test_eager_lifecycle(self):
        v = fw.Variable(np.array([1.0], np.float32))
        v.assign([5.0])
        assert v.numpy().tolist() == [5.0]
        v.assign_add([1.0])
        assert v.numpy().tolist() == [6.0]
        v.assign_sub([2.0])
        assert v.numpy().tolist() == [4.0]

    def test_graph_requires_init(self):
        g = fw.Graph()
        with g.as_default():
            v = fw.Variable(np.zeros((2,), np.float32), name="v_init")
            read = v.value()
        with pytest.raises(fw.UninitializedVariableError):
            _run(g, read)

    def test_graph_init_and_update(self):
        g = fw.Graph()
        with g.as_default():
            v = fw.Variable(np.array([1.0, 2.0], np.float32), name="v_upd")
            init = fw.global_variables_initializer()
            upd = v.assign_add([10.0, 10.0])
            read = v.value()
        sess = fw.Session(g)
        sess.run(init)
        assert sess.run(read).tolist() == [1.0, 2.0]
        sess.run(upd)
        assert sess.run(read).tolist() == [11.0, 12.0]

    def test_read_cached_per_graph(self):
        g = fw.Graph()
        with g.as_default():
            v = fw.Variable(np.zeros((1,), np.float32), name="v_cache")
            r1 = v.value()
            r2 = v.value()
        assert r1 is r2

    def test_variable_in_expressions(self):
        v = fw.Variable(np.array([2.0], np.float32))
        out = ops.add(v, 3.0)
        assert out.numpy().tolist() == [5.0]
        assert (v * 2.0).numpy().tolist() == [4.0]

    def test_reinitialize(self):
        v = fw.Variable(np.array([7.0], np.float32))
        v.assign([0.0])
        v.initialize()
        assert v.numpy().tolist() == [7.0]
