"""``@repro.function(freeze_captures=True)``: captures as baked constants.

The default (PR 4) treats closed-over state as runtime inputs — mutable
without retracing.  ``freeze_captures=True`` opts back into trace-time
baking for closures that really are constant, restoring constant folding
*across* the weights (the optimizer can fold ``w @ c`` when both are
Consts) at the price of immutability.
"""

import numpy as np
import pytest

import repro
from repro import framework as fw
from repro.framework import ops
from repro.framework.graph.optimize import count_ops


def test_frozen_variable_capture_bakes_current_value():
    w = fw.Variable(np.full((2,), 3.0, np.float32), name="frozen_w")

    @repro.function(freeze_captures=True)
    def f(x):
        return ops.multiply(x, w)

    x = np.ones(2, np.float32)
    np.testing.assert_allclose(f(x).numpy(), [3.0, 3.0])
    cf = f.get_concrete_function(x)
    assert cf.captures == []
    assert cf.capture_values() == {}

    # Later assignment is invisible: the value was baked at trace time.
    w.assign(np.zeros(2, np.float32))
    np.testing.assert_allclose(f(x).numpy(), [3.0, 3.0])
    assert f.trace_count == 1


def test_default_captures_remain_mutable():
    w = fw.Variable(np.full((2,), 3.0, np.float32), name="live_w")

    @repro.function
    def f(x):
        return ops.multiply(x, w)

    x = np.ones(2, np.float32)
    np.testing.assert_allclose(f(x).numpy(), [3.0, 3.0])
    w.assign(np.zeros(2, np.float32))
    np.testing.assert_allclose(f(x).numpy(), [0.0, 0.0])
    assert f.trace_count == 1


def test_frozen_eager_tensor_capture():
    weights = fw.EagerTensor(np.array([1.0, 2.0], np.float32))

    @repro.function(freeze_captures=True)
    def f(x):
        return ops.add(x, weights)

    x = np.zeros(2, np.float32)
    np.testing.assert_allclose(f(x).numpy(), [1.0, 2.0])
    cf = f.get_concrete_function(x)
    assert cf.captures == []


def test_freeze_restores_constant_folding_across_weights():
    """w * 2 folds into one Const at trace time when w is frozen."""
    w = fw.Variable(np.full((4,), 3.0, np.float32), name="fold_w")

    def model(x):
        scaled = ops.multiply(w, 2.0)  # constant-only when frozen
        return ops.add(x, scaled)

    frozen_cf = repro.function(
        model, freeze_captures=True).get_concrete_function(
            repro.TensorSpec([4], "float32"))
    live_cf = repro.function(model).get_concrete_function(
        repro.TensorSpec([4], "float32"))

    # Frozen: the multiply folded away; live: it must stay (w varies).
    assert count_ops(frozen_cf.optimized_graph, "Mul") == 0
    assert count_ops(live_cf.optimized_graph, "Mul") == 1

    x = np.ones(4, np.float32)
    np.testing.assert_allclose(frozen_cf(x).numpy(), np.full(4, 7.0))
    np.testing.assert_allclose(live_cf(x).numpy(), np.full(4, 7.0))


def test_frozen_swap_refuses():
    w = fw.Variable(np.ones((2,), np.float32), name="noswap_w")

    @repro.function(freeze_captures=True)
    def f(x):
        return ops.add(x, w)

    cf = f.get_concrete_function(np.zeros(2, np.float32))
    with pytest.raises(KeyError):
        cf.set_capture_values({"noswap_w": np.zeros(2, np.float32)})


def test_frozen_capture_dedup_one_const_per_source():
    w = fw.Variable(np.ones((2,), np.float32), name="dedup_frozen_w")

    @repro.function(freeze_captures=True)
    def f(x):
        return ops.add(ops.multiply(x, w), w)  # two reads, one source

    cf = f.get_concrete_function(np.ones(2, np.float32))
    consts = [op for op in cf.graph.ops if op.type == "Const"
              and np.array_equal(op.attrs["value"], np.ones(2, np.float32))]
    assert len(consts) == 1
    np.testing.assert_allclose(
        cf(np.full(2, 2.0, np.float32)).numpy(), [3.0, 3.0])


def test_variables_created_inside_frozen_trace_stay_live():
    """A variable born during the trace has no value to bake; it keeps a
    live read so in-trace initialization still works."""
    created = []

    @repro.function(freeze_captures=True, autograph=False)
    def counter(x):
        if not created:
            created.append(fw.Variable(np.zeros((), np.float32),
                                       name="frozen_trace_local"))
        v = created[0]
        v.assign_add(1.0)
        return ops.add(x, v.value())

    first = counter(np.float32(0.0))
    second = counter(np.float32(0.0))
    # The trace-local variable keeps real read/assign ops: state moves.
    assert second.numpy() == pytest.approx(first.numpy() + 1.0)


def test_frozen_capture_index_pins_sources_against_id_reuse():
    """The dedup index keys by id(); the entry must keep the source
    alive, or a recycled id would hand a new tensor a stale constant."""
    import gc

    from repro.framework.graph.func_graph import FuncGraph

    fg = FuncGraph("frozen_pin", outer_graph=None, capture_external=True,
                   freeze_captures=True)
    first = fw.EagerTensor(np.array([1.0], np.float32))
    const_a = fg._capture_concrete(first, "tensor", first.dtype,
                                   first.shape, None)
    pinned_id = id(first)
    del first
    gc.collect()
    # The source is pinned by the index entry: any tensor allocated now
    # cannot reuse its id, so a fresh capture gets a fresh constant.
    second = fw.EagerTensor(np.array([99.0], np.float32))
    const_b = fg._capture_concrete(second, "tensor", second.dtype,
                                   second.shape, None)
    assert any(id(src) == pinned_id
               for src, _ in fg._frozen_capture_index.values())
    assert const_b is not const_a
    np.testing.assert_allclose(const_b.op.attrs["value"], [99.0])


def test_frozen_export_is_self_contained(tmp_path):
    from repro.serving import saved_function

    w = fw.Variable(np.full((2, 2), 2.0, np.float32), name="export_frozen_w")

    @repro.function(freeze_captures=True)
    def f(x):
        return ops.matmul(x, w)

    path = saved_function.save(f, str(tmp_path / "artifact"),
                               repro.TensorSpec([1, 2], "float32"))
    loaded = saved_function.load(path)
    assert loaded.captures == []
    x = np.ones((1, 2), np.float32)
    np.testing.assert_allclose(
        loaded.call_flat([x]).numpy(), [[4.0, 4.0]])


def test_frozen_lantern_graph_route():
    w = fw.Variable(np.full((2,), 5.0, np.float32), name="lantern_frozen_w")

    @repro.function(backend="lantern", freeze_captures=True)
    def f(x):
        return ops.multiply(x, w)

    x = np.ones(2, np.float32)
    np.testing.assert_allclose(np.asarray(f(x).numpy()), [5.0, 5.0])
    w.assign(np.zeros(2, np.float32))
    np.testing.assert_allclose(np.asarray(f(x).numpy()), [5.0, 5.0])
