"""save/load round trips: signature + program serialization, both backends."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import framework as fw
from repro.framework import ops
from repro.function.executable import ExportError
from repro.serving import load, save


def _rng(seed=0):
    return np.random.default_rng(seed)


def full_tree(depth, rng):
    from repro.datasets.treebank import EMPTY, Tree

    if depth == 0:
        node = Tree(value=float(rng.uniform(0.9, 1.1)))
        node.left = EMPTY
        node.right = EMPTY
        return node
    return Tree(left=full_tree(depth - 1, rng),
                right=full_tree(depth - 1, rng),
                value=float(rng.uniform(0.9, 1.1)))


def ref_prod(base, tree):
    if tree.is_empty:
        return base
    return ref_prod(base, tree.left) * ref_prod(base, tree.right) * tree.value


def tree_prod(base, tree):
    if not tree.is_empty:
        l = tree_prod(base, tree.left)
        r = tree_prod(base, tree.right)
        return l * r * tree.value
    else:
        return base


# ---------------------------------------------------------------------------
# Basic round trips
# ---------------------------------------------------------------------------


def _make_mlp(backend):
    w1 = _rng(1).normal(size=(4, 8)).astype(np.float32)
    w2 = _rng(2).normal(size=(8, 2)).astype(np.float32)

    @repro.function(backend=backend)
    def mlp(x):
        return ops.matmul(ops.tanh(ops.matmul(x, w1)), w2)

    return mlp


@pytest.mark.parametrize("backend", ["graph", "lantern"])
def test_roundtrip_identical_outputs(backend, tmp_path):
    mlp = _make_mlp(backend)
    spec = repro.TensorSpec([None, 4], "float32")
    cf = mlp.get_concrete_function(spec)
    save(cf, str(tmp_path / "m"))
    loaded = load(str(tmp_path / "m"))
    assert loaded.backend == backend
    x = _rng(3).normal(size=(5, 4)).astype(np.float32)
    np.testing.assert_allclose(
        cf.call_flat([x]).numpy(), loaded.call_flat([x]).numpy(),
        rtol=1e-6)


def test_save_function_traces_signature(tmp_path):
    mlp = _make_mlp("graph")
    save(mlp, str(tmp_path / "m"), repro.TensorSpec([None, 4], "float32"))
    loaded = load(str(tmp_path / "m"))
    assert mlp.trace_count == 1
    x = _rng(4).normal(size=(2, 4)).astype(np.float32)
    np.testing.assert_allclose(
        loaded.call_flat([x]).numpy(), mlp(x).numpy(), rtol=1e-6)


def test_loaded_signature_and_structure(tmp_path):
    @repro.function
    def f(x):
        return {"double": x * 2.0, "tag": 7}

    cf = f.get_concrete_function(repro.TensorSpec([3], "float32"))
    save(cf, str(tmp_path / "m"))
    loaded = load(str(tmp_path / "m"))
    (spec,) = loaded.signature
    assert spec.dtype.name == "float32" and spec.shape.dims == (3,)
    out = loaded(np.ones(3, np.float32))
    assert out["tag"] == 7
    np.testing.assert_allclose(out["double"].numpy(), 2.0 * np.ones(3))


def test_variables_are_frozen_at_save_time(tmp_path):
    v = fw.Variable(np.array([2.0, 3.0], np.float32), name="sf_frozen_v")

    @repro.function
    def scale(x):
        return x * v.value()

    cf = scale.get_concrete_function(repro.TensorSpec([2], "float32"))
    assert cf.variables == [v]
    save(cf, str(tmp_path / "m"))
    v.assign(np.array([100.0, 100.0], np.float32))
    loaded = load(str(tmp_path / "m"))
    assert loaded.variables == []
    np.testing.assert_allclose(
        loaded(np.ones(2, np.float32)).numpy(), [2.0, 3.0])
    # The live concrete function keeps reading the live variable.
    np.testing.assert_allclose(
        cf.call_flat([np.ones(2, np.float32)]).numpy(), [100.0, 100.0])


def test_while_loop_trace_roundtrips(tmp_path):
    @repro.function
    def pow_accum(x, n):
        acc = x
        while n > 0.5:
            acc = acc * x
            n = n - 1.0
        return acc

    cf = pow_accum.get_concrete_function(
        repro.TensorSpec([], "float32"), repro.TensorSpec([], "float32"))
    save(cf, str(tmp_path / "m"))
    loaded = load(str(tmp_path / "m"))
    got = loaded(np.float32(2.0), np.float32(3.0)).numpy()
    assert got == pytest.approx(16.0)


def test_lantern_recursive_program_roundtrips(tmp_path):
    rng = _rng(7)
    tree = full_tree(3, rng)
    tp = repro.function(tree_prod, backend="lantern")
    cf = tp.get_concrete_function(1.1, tree)
    assert "(call tree_prod" in cf.program.to_string()  # recursion, staged
    save(cf, str(tmp_path / "m"))
    loaded = load(str(tmp_path / "m"))
    assert loaded.signature[1] == "Tree"
    other = full_tree(2, _rng(8))  # a different shape: program is tree-generic
    for t in (tree, other):
        got = float(np.asarray(loaded.call_flat([np.float32(1.1), t]).numpy()))
        assert got == pytest.approx(ref_prod(1.1, t), rel=1e-6)


def test_double_roundtrip_is_identity(tmp_path):
    mlp = _make_mlp("graph")
    cf = mlp.get_concrete_function(repro.TensorSpec([None, 4], "float32"))
    save(cf, str(tmp_path / "a"))
    save(load(str(tmp_path / "a")), str(tmp_path / "b"))
    x = _rng(5).normal(size=(3, 4)).astype(np.float32)
    np.testing.assert_allclose(
        load(str(tmp_path / "a")).call_flat([x]).numpy(),
        load(str(tmp_path / "b")).call_flat([x]).numpy())


# ---------------------------------------------------------------------------
# Refusals
# ---------------------------------------------------------------------------


def test_stateful_trace_refuses_export(tmp_path):
    v = fw.Variable(np.zeros((2,), np.float32), name="sf_assign_v")

    @repro.function
    def train(x):
        v.assign_add(x)
        return v.value()

    cf = train.get_concrete_function(repro.TensorSpec([2], "float32"))
    ok, reason = cf.export_compatibility()
    assert not ok and "stateful" in reason
    with pytest.raises(ExportError, match="stateful"):
        save(cf, str(tmp_path / "m"))


def test_stateful_op_inside_loop_body_refuses_export(tmp_path):
    """Diagnostics must agree with save(): statefulness hiding inside a
    while-loop subgraph is found by the pre-flight too."""

    @repro.function
    def noisy_accum(x, n):
        acc = x
        while n > 0.5:
            acc = acc + ops.random_normal([])
            n = n - 1.0
        return acc

    cf = noisy_accum.get_concrete_function(
        repro.TensorSpec([], "float32"), repro.TensorSpec([], "float32"))
    ok, reason = cf.export_compatibility()
    assert not ok and "RandomNormal" in reason
    with pytest.raises(ExportError, match="stateful"):
        save(cf, str(tmp_path / "m"))


def test_namedtuple_output_refuses_export(tmp_path):
    import collections

    Pair = collections.namedtuple("Pair", ["a", "b"])

    @repro.function
    def f(x):
        return Pair(x * 1.0, x * 2.0)

    cf = f.get_concrete_function(repro.TensorSpec([2], "float32"))
    with pytest.raises(ExportError, match="namedtuple"):
        save(cf, str(tmp_path / "m"))


def test_load_rejects_non_artifact(tmp_path):
    with pytest.raises(ExportError, match="artifact"):
        load(str(tmp_path))


def test_save_rejects_plain_callable(tmp_path):
    with pytest.raises(TypeError, match="Function or Executable"):
        save(lambda x: x, str(tmp_path / "m"))


# ---------------------------------------------------------------------------
# Property-based: save -> load -> identical outputs on random inputs
# ---------------------------------------------------------------------------

_dims = st.integers(min_value=1, max_value=4)


@st.composite
def _affine_case(draw):
    n_in = draw(_dims)
    n_hidden = draw(_dims)
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rows = draw(st.integers(min_value=1, max_value=5))
    return n_in, n_hidden, seed, rows


@pytest.mark.parametrize("backend", ["graph", "lantern"])
@settings(max_examples=20, deadline=None)
@given(case=_affine_case())
def test_property_roundtrip_random_models(backend, case, tmp_path_factory):
    n_in, n_hidden, seed, rows = case
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n_in, n_hidden)).astype(np.float32)
    b = rng.normal(size=(1, n_hidden)).astype(np.float32)

    @repro.function(backend=backend)
    def f(x):
        return ops.tanh(ops.matmul(x, w) + b)

    cf = f.get_concrete_function(repro.TensorSpec([None, n_in], "float32"))
    path = str(tmp_path_factory.mktemp("sf") / "m")
    save(cf, path)
    loaded = load(path)
    x = rng.normal(size=(rows, n_in)).astype(np.float32)
    np.testing.assert_allclose(
        cf.call_flat([x]).numpy(), loaded.call_flat([x]).numpy(),
        rtol=1e-5, atol=1e-6)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    depth=st.integers(min_value=0, max_value=3),
    base=st.floats(min_value=0.5, max_value=1.5),
)
def test_property_lantern_recursion_roundtrip(seed, depth, base,
                                              tmp_path_factory):
    """The lantern payload preserves call/if/field instruction semantics:
    one saved recursive program answers random trees exactly like the
    live compiled one."""
    tp = repro.function(tree_prod, backend="lantern")
    cf = tp.get_concrete_function(1.0, full_tree(1, _rng(0)))
    path = str(tmp_path_factory.mktemp("sf") / "m")
    save(cf, path)
    loaded = load(path)
    tree = full_tree(int(depth), np.random.default_rng(seed))
    # The live call takes `base` as a python float (float64 inside the
    # compiled program) while the loaded artifact runs on the exported
    # float32 spec — deep trees accumulate a ~1e-6 relative gap, so the
    # comparison needs float32 tolerances (matches the sibling test).
    np.testing.assert_allclose(
        np.asarray(cf(base, tree).numpy()),
        np.asarray(loaded.call_flat([np.float32(base), tree]).numpy()),
        rtol=1e-5, atol=1e-6)
