"""Property-based tests (hypothesis) on framework invariants.

Core invariant: for any program over the public ops, eager execution and
graph execution compute identical values — the modes differ only in
*when* the work happens, never in *what* is computed.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro import framework as fw
from repro.framework import nest, ops, shapes


small_floats = st.floats(min_value=-10, max_value=10, allow_nan=False,
                         width=32)


@st.composite
def float_vectors(draw, max_len=6):
    n = draw(st.integers(min_value=1, max_value=max_len))
    return np.asarray(draw(st.lists(small_floats, min_size=n, max_size=n)),
                      np.float32)


# Elementary op expressions, as (builder, n_args) pairs.
_EXPRS = [
    (lambda a, b: ops.add(a, b), 2),
    (lambda a, b: ops.subtract(a, b), 2),
    (lambda a, b: ops.multiply(a, b), 2),
    (lambda a, b: ops.maximum(a, b), 2),
    (lambda a, b: ops.minimum(a, b), 2),
    (lambda a, b: ops.where(ops.greater(a, b), a, b), 2),
    (lambda a: ops.tanh(a), 1),
    (lambda a: ops.relu(a), 1),
    (lambda a: ops.square(a), 1),
    (lambda a: ops.reduce_sum(a), 1),
    (lambda a: ops.reduce_mean(a), 1),
    (lambda a: ops.softmax(a), 1),
]


@given(data=st.data(), expr_index=st.integers(0, len(_EXPRS) - 1))
def test_eager_graph_equivalence(data, expr_index):
    builder, n_args = _EXPRS[expr_index]
    vec = data.draw(float_vectors())
    other = data.draw(st.lists(small_floats, min_size=len(vec),
                               max_size=len(vec)))
    args = [vec, np.asarray(other, np.float32)][:n_args]

    eager = builder(*[ops.constant(a) for a in args])
    g = fw.Graph()
    with g.as_default():
        staged = builder(*[ops.constant(a) for a in args])
    staged_val = fw.Session(g).run(staged)
    assert np.allclose(np.asarray(eager), staged_val, rtol=1e-5, atol=1e-6)


@given(vec=float_vectors())
def test_while_loop_matches_python_loop(vec):
    """A staged accumulation loop equals the plain Python loop."""
    n = len(vec)
    expected = np.float32(0.0)
    for v in vec:
        expected = np.float32(expected + v)

    g = fw.Graph()
    with g.as_default():
        x = ops.constant(vec)

        def body(i, acc):
            return ops.add(i, 1), ops.add(acc, ops.get_item(x, i))

        _, total = fw.while_loop(lambda i, acc: ops.less(i, n), body,
                                 (ops.constant(0), ops.constant(0.0)))
    got = fw.Session(g).run(total)
    assert np.allclose(got, vec.sum(), rtol=1e-4, atol=1e-4)


@given(a=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       b=st.lists(st.integers(1, 5), min_size=1, max_size=3))
def test_broadcast_shape_matches_numpy(a, b):
    try:
        expected = np.broadcast_shapes(tuple(a), tuple(b))
        ours = shapes.broadcast_shapes(a, b)
        assert tuple(ours.as_list()) == expected
    except ValueError:
        import pytest

        with pytest.raises(ValueError):
            shapes.broadcast_shapes(a, b)


@given(vec=float_vectors(), seed_grad=small_floats)
def test_unbroadcast_grad_shape_invariant(vec, seed_grad):
    """Gradients always match the shape of what they differentiate."""
    from repro.framework import GradientTape

    bias = ops.constant(np.float32(1.5))
    x = ops.constant(vec)
    with GradientTape() as tape:
        tape.watch(bias)
        tape.watch(x)
        y = ops.reduce_sum(ops.add(x, bias))
    gb, gx = tape.gradient(y, [bias, x])
    assert np.shape(gb.numpy()) == ()
    assert gx.numpy().shape == vec.shape
    assert np.isclose(float(gb), len(vec))


@given(structure=st.recursive(
    st.integers(0, 10),
    lambda children: st.lists(children, min_size=1, max_size=3) |
    st.dictionaries(st.sampled_from("abcd"), children, min_size=1, max_size=3),
    max_leaves=8,
))
def test_nest_flatten_pack_roundtrip(structure):
    flat = nest.flatten(structure)
    assert nest.pack_sequence_as(structure, flat) == structure


@given(vals=st.lists(small_floats, min_size=1, max_size=5))
def test_tensor_array_stack_roundtrip(vals):
    ta = fw.TensorArray(fw.float32, size=0)
    for i, v in enumerate(vals):
        ta = ta.write(i, ops.constant(np.float32(v)))
    stacked = np.asarray(ta.stack())
    assert np.allclose(stacked, np.asarray(vals, np.float32))


@given(vec=float_vectors(), k=st.integers(1, 3))
def test_top_k_agrees_with_numpy(vec, k):
    if k > len(vec):
        k = len(vec)
    values, indices = ops.top_k(ops.constant(vec), k)
    expected = np.sort(vec)[::-1][:k]
    assert np.allclose(np.asarray(values), expected)
    # Indices point at the right values.
    assert np.allclose(vec[np.asarray(indices)], np.asarray(values))
