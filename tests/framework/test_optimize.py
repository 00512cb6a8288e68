"""Unit tests: whole-graph optimizations (folding, CSE, DCE)."""

import numpy as np

from repro import framework as fw
from repro.framework import ops
from repro.framework.graph.optimize import count_ops, optimize_graph


def test_dead_code_elimination():
    g = fw.Graph()
    with g.as_default():
        a = ops.constant([1.0])
        live = ops.multiply(a, 2.0)
        _dead = ops.add(a, 100.0)
        _dead2 = ops.exp(_dead)
    new_g, fmap = optimize_graph(g, [live])
    assert count_ops(new_g) < count_ops(g)
    assert count_ops(new_g, "Exp") == 0
    out = fw.Session(new_g).run(fmap[live])
    assert out.tolist() == [2.0]


def test_constant_folding():
    g = fw.Graph()
    with g.as_default():
        a = ops.constant(2.0)
        b = ops.constant(3.0)
        c = ops.multiply(a, b)      # foldable
        x = ops.placeholder(fw.float32, [])
        y = ops.add(x, c)
    new_g, fmap = optimize_graph(g, [y])
    assert count_ops(new_g, "Mul") == 0
    out = fw.Session(new_g).run(fmap[y], {_find_placeholder(new_g): 1.0})
    assert out == 7.0


def _find_placeholder(graph):
    for op in graph.ops:
        if op.type == "Placeholder":
            return op.outputs[0]
    raise AssertionError("no placeholder")


def test_cse_merges_duplicates():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [2])
        a = ops.tanh(x)
        b = ops.tanh(x)   # identical
        y = ops.add(a, b)
    new_g, fmap = optimize_graph(g, [y], fold_constants=False)
    assert count_ops(new_g, "Tanh") == 1
    out = fw.Session(new_g).run(fmap[y], {_find_placeholder(new_g): [0.5, 1.0]})
    assert np.allclose(out, 2 * np.tanh([0.5, 1.0]))


def test_stateful_ops_not_merged():
    g = fw.Graph()
    with g.as_default():
        r1 = ops.random_normal([2])
        r2 = ops.random_normal([2])
        y = ops.add(r1, r2)
    new_g, fmap = optimize_graph(g, [y])
    assert count_ops(new_g, "RandomNormal") == 2


def test_stateful_ops_not_folded():
    g = fw.Graph()
    with g.as_default():
        r = ops.random_normal([2])
        y = ops.multiply(r, 1.0)
    new_g, _ = optimize_graph(g, [y])
    assert count_ops(new_g, "RandomNormal") == 1


def test_identical_placeholders_not_merged():
    # Two inputs with the same dtype/shape are distinct inputs: CSE must
    # never merge Placeholder nodes, or x - y would become x - x.
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [2])
        y = ops.placeholder(fw.float32, [2])
        z = ops.subtract(x, y)
    new_g, fmap = optimize_graph(g, [z, x, y])
    assert count_ops(new_g, "Placeholder") == 2
    out = fw.Session(new_g).run(
        fmap[z], {fmap[x]: [5.0, 5.0], fmap[y]: [2.0, 1.0]})
    assert out.tolist() == [3.0, 4.0]


def test_control_flow_attrs_opaque():
    g = fw.Graph()
    with g.as_default():
        p = ops.placeholder(fw.bool_, [])
        out = fw.cond(p, lambda: ops.constant(1.0), lambda: ops.constant(2.0))
    new_g, fmap = optimize_graph(g, [out])
    sess = fw.Session(new_g)
    assert sess.run(fmap[out], {_find_placeholder(new_g): True}) == 1.0
    assert sess.run(fmap[out], {_find_placeholder(new_g): False}) == 2.0


def test_optimized_graph_equivalent_on_random_dag():
    rng = np.random.default_rng(3)
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [4])
        nodes = [x, ops.constant(rng.normal(size=4).astype(np.float32))]
        for i in range(20):
            a = nodes[rng.integers(len(nodes))]
            b = nodes[rng.integers(len(nodes))]
            op = [ops.add, ops.multiply, ops.maximum][int(rng.integers(3))]
            nodes.append(op(a, b))
        y = ops.reduce_sum(nodes[-1])
    new_g, fmap = optimize_graph(g, [y])
    feed_val = rng.normal(size=4).astype(np.float32)
    original = fw.Session(g).run(y, {x: feed_val})
    optimized = fw.Session(new_g).run(fmap[y], {_find_placeholder(new_g): feed_val})
    assert np.allclose(original, optimized)
    assert count_ops(new_g) <= count_ops(g)


def test_a_masking_select_selects_against_a_zero_of_its_dtype():
    """``where(c, x, zeros_like(x))`` reads a ``0`` of ``x``'s dtype, with
    the same bytes, dtype and shape, in every dtype and with a rank-1
    condition over rank-2 operands; the ``ZerosLike`` goes when nothing
    else reads it."""
    rng = np.random.default_rng(3)
    for dtype, cond_shape in [(fw.float32, [3, 4]), (fw.float64, [3]),
                              (fw.int32, [3, 4]), (fw.float32, [])]:
        g = fw.Graph()
        with g.as_default():
            c = ops.placeholder(fw.bool_, cond_shape)
            x = ops.placeholder(dtype, [3, 4])
            y = ops.where(c, x, ops.zeros_like(x))
        new_g, fmap = optimize_graph(g, [y])
        assert count_ops(new_g, "ZerosLike") == 0
        assert fmap[y].shape == y.shape and fmap[y].dtype == y.dtype
        cv = rng.random(cond_shape) > 0.5
        xv = (rng.standard_normal((3, 4)) * 4).astype(dtype.np_dtype)
        feeds = [t for t in new_g.ops if t.type == "Placeholder"]
        got = fw.Session(new_g).run(
            fmap[y], {feeds[0].outputs[0]: cv, feeds[1].outputs[0]: xv})
        want = fw.Session(g).run(y, {c: cv, x: xv})
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def test_a_zeros_like_another_op_reads_stays():
    g = fw.Graph()
    with g.as_default():
        c = ops.placeholder(fw.bool_, [2])
        x = ops.placeholder(fw.float32, [2])
        zeros = ops.zeros_like(x)
        y = ops.add(ops.where(c, x, zeros), zeros)
        # Not the idiom: the zeros are not the selected operand's.
        other = ops.where(c, zeros, x)
    new_g, _ = optimize_graph(g, [y, other])
    assert count_ops(new_g, "ZerosLike") == 1
    assert count_ops(new_g, "Select") == 2


def test_a_name_given_is_never_one_already_taken():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [])
        made = [ops.add(x, 1.0), ops.add(x, 2.0), ops.add(x, 3.0, name="Add_1"),
                ops.add(x, 4.0)]
    names = [t.op.name for t in made]
    assert names == ["Add", "Add_1", "Add_1_1", "Add_2"]
    assert len({op.name for op in g.ops}) == len(g.ops)


def test_an_optimized_op_keeps_its_scoped_name():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [3])
        with g.name_scope("a"):
            y = ops.add(x, 1.0)
        with g.name_scope("b"):
            z = ops.add(y, 2.0)
    new_g, fmap = optimize_graph(g, [y, z])
    assert fmap[y].op.name == "a/Add" and fmap[z].op.name == "b/Add"
    assert len({op.name for op in new_g.ops}) == len(new_g.ops)


def test_a_staged_loop_body_names_its_variable_reads():
    import repro
    from bench import models
    from repro import nn
    from repro.framework.graph.func_graph import bound_func_graph

    rng = np.random.default_rng(0)
    cell = nn.BasicRNNCell(4, input_dim=4, rng=rng)
    rnn = repro.function(models.make_rnn_staged(cell, 2))
    x = rng.normal(size=(2, 3, 4)).astype(np.float32)
    lengths = np.full(2, 3, np.int32)
    cf = rnn.get_concrete_function(x, lengths)
    (body,) = [bound_func_graph(op.attrs["body_graph"])[0].plan
               for op in cf.optimized_graph.ops if op.type == "While"]
    assert "rnn_cell_w/read" in body.describe()
