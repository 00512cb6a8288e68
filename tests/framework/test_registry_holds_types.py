"""The registry is a finite table of op *types*.

Variables name their state through an attr, and ``Cond`` / ``While`` /
``ConcatGrad`` / ``PackGrad`` carry their arity on the operation — so
building programs never adds an entry, a dropped ``Variable`` is
collected, and constructing many of them is linear.
"""

import gc
import json
import os
import sys
import weakref

import numpy as np
import pytest

import repro
import repro.autograph.operators  # noqa: F401 - registers its list/undefined ops
from repro import framework as fw
from repro.framework import ops, registry
from repro.framework.graph.variables import Variable
from repro.function.executable import ExportError
from repro.serving import load, save


def test_building_programs_adds_no_registry_entry():
    before = registry.list_ops()

    for i in range(1000):
        Variable(np.float32(i), name="w")

    for n in range(1, 6):
        g = fw.Graph()
        with g.as_default():
            c = ops.placeholder(fw.float32, [])
            xs = [ops.placeholder(fw.float32, [2, 2]) for _ in range(n)]
            branch = fw.cond(c > 0, lambda: tuple(x + 1.0 for x in xs),
                             lambda: tuple(x - 1.0 for x in xs))
            assert len(branch[0].op.outputs) == n
            assert branch[0].op.type == "Cond"
            loop = fw.while_loop(lambda *vs: ops.reduce_sum(vs[0]) < 10.0,
                                 lambda *vs: tuple(v + 1.0 for v in vs), xs)
            assert len(loop[0].op.outputs) == n
            assert loop[0].op.type == "While"

    for n in range(2, 6):
        g = fw.Graph()
        with g.as_default():
            xs = [ops.placeholder(fw.float32, [2, 2]) for _ in range(n)]
            for joined in (ops.concat(xs, axis=0), ops.stack(xs)):
                grads = fw.gradients(ops.reduce_sum(joined), xs)
                assert len(grads) == n and None not in grads
                assert len(grads[0].op.outputs) == n
        values = [fw.EagerTensor(np.full((2, 2), k, np.float32))
                  for k in range(n)]
        with fw.GradientTape() as tape:
            for v in values:
                tape.watch(v)
            y = ops.reduce_sum(ops.concat(values, axis=1) * 2.0)
        assert all(np.all(g.numpy() == 2.0)
                   for g in tape.gradient(y, values))

    assert registry.list_ops() == before


def test_a_variable_nothing_references_is_collected():
    v = Variable(np.arange(4, dtype=np.float32), name="dropped")
    v.assign_add(np.ones(4, np.float32))
    g = fw.Graph()
    with g.as_default():
        read = v.value() + 1.0
    with fw.Session(g) as sess:
        np.testing.assert_array_equal(sess.run(read), [2., 3., 4., 5.])
    wrapper, array = weakref.ref(v), weakref.ref(v.numpy())
    del v, g, read, sess
    gc.collect()
    assert wrapper() is None
    assert array() is None


def test_a_variable_read_eagerly_is_freed_by_refcount():
    v = Variable(np.arange(4, dtype=np.float32), name="read_then_dropped")
    read = v.value()
    assert read.variable is v
    wrapper, array = weakref.ref(v), weakref.ref(v.numpy())
    gc.disable()
    try:
        del v
        assert wrapper() is None
        assert read.variable is None
        del read
        assert array() is None
    finally:
        gc.enable()


def test_a_cached_concrete_function_keeps_its_variable_working():
    def make():
        v = Variable(np.float32(1.0), name="kept")

        @repro.function
        def step(x):
            v.assign_add(x)
            return v.value() * 2.0

        return step.get_concrete_function(np.float32(0.0))

    cf = make()
    gc.collect()
    assert float(cf(np.float32(1.0)).numpy()) == 4.0
    assert float(cf(np.float32(3.0)).numpy()) == 10.0   # reads the 2.0 back


def _lines_run(fn):
    """How many Python lines ``fn()`` runs (``sys.settrace`` line events)."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        count += event == "line"
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


def test_constructing_same_named_variables_is_linear():
    # Counted, not timed: one more same-named Variable runs as many
    # lines after 5,000 of them as after one, so no per-name scan grows.
    def construct():
        Variable(np.float32(0.0), name="w")

    construct()
    gc.collect()
    gc.disable()    # a collection inside a count would run finalizers
    try:
        before = _lines_run(construct)
        for _ in range(5000):
            construct()
        after = _lines_run(construct)
    finally:
        gc.enable()
    assert after == before


def _loop_reading_a_variable(v):
    def program(x, n):
        i = np.int32(0)
        a = x
        b = x * 2.0
        while i < n:
            a = a + v.value()
            b = b * 0.5 + a
            i = i + 1
        return a, b, i

    return program


def test_loop_arity_and_variable_read_survive_save_load(tmp_path):
    v = Variable(np.float32(0.25), name="loop_w")
    fn = repro.function(_loop_reading_a_variable(v))
    args = (np.arange(3, dtype=np.float32), np.int32(4))
    live = [np.asarray(t) for t in fn(*args)]
    (cf,) = fn.concrete_functions()
    (loop,) = [op for op in cf.optimized_graph.ops if op.type == "While"]
    assert len(loop.outputs) == 3
    assert any(op.type == "ReadVariable"
               for op in loop.attrs["body_graph"].ops)

    save(fn, str(tmp_path / "fn"), *args)
    v.assign(np.float32(100.0))      # the artifact froze 0.25
    loaded = [np.asarray(t) for t in load(str(tmp_path / "fn"))(*args)]
    for got, want in zip(loaded, live):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_an_artifact_of_the_old_graph_format_is_refused(tmp_path):
    fn = repro.function(lambda x: x + 1.0, autograph=False)
    path = str(tmp_path / "fn")
    save(fn, path, np.float32(1.0))
    (spec,) = [f for f in os.listdir(path) if f.endswith(".json")]
    with open(os.path.join(path, spec)) as f:
        doc = json.load(f)
    assert doc["payload"]["graph_def"]["format_version"] == 2
    doc["payload"]["graph_def"]["format_version"] = 1
    with open(os.path.join(path, spec), "w") as f:
        json.dump(doc, f)
    with pytest.raises(ExportError, match="format_version 1"):
        load(path)


# -- gradients that do not exist raise ------------------------------------------


def _rnn_closing_over(w):
    def rnn(x, n):
        h = x
        for _ in range(n):
            h = ops.tanh(h @ w)
        return ops.reduce_sum(h)

    return rnn


def test_taping_through_a_staged_loop_raises_naming_the_while_op():
    x = ops.constant(np.random.RandomState(0).randn(2, 3).astype(np.float32))
    w = Variable(np.random.RandomState(1).randn(3, 3).astype(np.float32))
    fn = repro.function(_rnn_closing_over(w))

    with fw.GradientTape() as tape:
        tape.watch(w)
        unrolled = fn(x, 3)                 # Python bound: unrolled
    assert tape.gradient(unrolled, w) is not None

    with fw.GradientTape() as tape:
        tape.watch(w)
        staged = fn(x, np.int32(3))         # tensor bound: one While op
    np.testing.assert_allclose(staged.numpy(), unrolled.numpy(), rtol=1e-6)
    # Both traces list w, the second one though only its loop body reads it.
    assert [cf.variables for cf in fn.concrete_functions()] == [[w], [w]]
    with pytest.raises(fw.StagingError,
                       match=r"while.*'While'.*no registered gradient"):
        tape.gradient(staged, w)


def test_the_bench_unrolled_rnn_can_be_taped():
    from bench import models
    from repro import nn

    cell = nn.BasicRNNCell(4, input_dim=4, rng=np.random.default_rng(0))
    fn = repro.function(models.make_rnn_unrolled(cell, batch=2, seq_len=3))
    x = np.random.default_rng(1).normal(size=(2, 3, 4)).astype(np.float32)
    with fw.GradientTape() as tape:
        tape.watch(cell.w)
        outputs, _ = fn(x, np.array([3, 2], np.int32))
        loss = ops.reduce_sum(outputs)
    assert np.any(tape.gradient(loss, cell.w).numpy() != 0.0)


def test_graph_gradients_through_a_loop_reading_the_variable_raise():
    w = Variable(np.eye(3, dtype=np.float32), name="looped_w")
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [2, 3])
        _, h = fw.while_loop(lambda i, h: i < 3,
                             lambda i, h: (i + 1, ops.tanh(h @ w)),
                             (np.int32(0), x))
        loss = ops.reduce_sum(h)
        with pytest.raises(fw.StagingError, match="'While'"):
            fw.gradients(loss, [w])
        # A path that does not cross the loop is still differentiable.
        (dw,) = fw.gradients(ops.reduce_sum(x @ w), [w])
        assert dw is not None


def test_zeros_like_and_ones_like_have_their_zero_gradient():
    x = fw.EagerTensor(np.arange(4, dtype=np.float32))
    with fw.GradientTape() as tape:
        tape.watch(x)
        y = ops.reduce_sum(x * x + ops.zeros_like(x) + ops.ones_like(x))
    np.testing.assert_array_equal(tape.gradient(y, x).numpy(), 2 * x.numpy())

    g = fw.Graph()
    with g.as_default():
        p = ops.placeholder(fw.float32, [4])
        (dp,) = fw.gradients(
            ops.reduce_sum(p * p + ops.zeros_like(p) + ops.ones_like(p)), [p])
    with fw.Session(g) as sess:
        np.testing.assert_array_equal(
            sess.run(dp, {p: x.numpy()}), 2 * x.numpy())


def test_the_optimize_knob_is_gone():
    with pytest.raises(TypeError):
        repro.function(lambda x: x, optimize=False)
