"""A ``TensorArray`` knows its element shape and dtype even when empty.

A staged loop that runs zero turns used to stack its array to ``(0,)``
float32 whatever it held, and the next ``Transpose`` died.  The handle
now carries the element shape — declared, or learned from the first
write with a static shape — through ``cond`` / ``while_loop`` and
AutoGraph's list conversion, and ``TensorArrayStack`` declares it.
"""

import numpy as np
import pytest

import repro
import repro.autograph as ag
from repro import framework as fw
from repro import nn
from repro.framework import TensorArray, ops
from repro.serving import saved_function

X = np.arange(12, dtype=np.float32).reshape(3, 4)


def _doubled(x, n, element_shape=None):
    ta = TensorArray(fw.float32, size=0, dynamic_size=True,
                     element_shape=element_shape)
    for i in range(n):
        ta = ta.write(i, x * 2.0)
    return ta.stack()


def _doubled_transposed(x, n):
    return ops.transpose(_doubled(x, n), [1, 0, 2])


def _counted(x, n, by_index):
    ta = TensorArray(fw.int32, size=0)
    for i in range(n):
        ta = ta.write(i, x + i if by_index else x * 2)
    return ta.stack()


@pytest.mark.parametrize("n", [0, 1, 2])
def test_staged_loop_keeps_element_shape_and_dtype(n):
    stacked = np.asarray(repro.function(_doubled)(X, np.int32(n)))
    assert stacked.dtype == np.float32
    np.testing.assert_array_equal(stacked, np.stack([X * 2.0] * n)
                                  if n else np.zeros((0, 3, 4), np.float32))
    # The op that used to raise "axes don't match array" at n == 0.
    moved = np.asarray(repro.function(_doubled_transposed)(X, np.int32(n)))
    assert moved.shape == (3, n, 4) and moved.dtype == np.float32


@pytest.mark.parametrize("n", [0, 1, 2])
def test_eager_loop_with_a_declared_element_shape(n):
    stacked = np.asarray(_doubled(X, n, element_shape=(3, 4)))
    assert stacked.shape == (n, 3, 4) and stacked.dtype == np.float32
    moved = np.asarray(ops.transpose(stacked, [1, 0, 2]))
    assert moved.shape == (3, n, 4)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_int32_array_stacks_to_int32(n):
    xi = np.arange(5, dtype=np.int32)
    staged = np.asarray(repro.function(_counted)(xi, np.int32(n), False))
    eager = np.asarray(_counted(xi, n, False))
    assert staged.dtype == eager.dtype == np.int32
    assert staged.shape == (n, 5)
    # Eager, nothing was declared and nothing written: only the dtype.
    assert eager.shape == ((n, 5) if n else (0,))
    if n:
        np.testing.assert_array_equal(staged, eager)
    # A staged loop index has no static shape, so neither has ``x + i``:
    # the empty stack still leads with 0 and is still int32.
    by_index = np.asarray(repro.function(_counted)(xi, np.int32(n), True))
    assert by_index.dtype == np.int32
    assert by_index.shape == ((n, 5) if n else (0,))


def test_stack_declares_the_static_shape():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [3, 4])
        declared = TensorArray(fw.float32, element_shape=[None, 4]).stack()
        learned = TensorArray(fw.float32).write(0, x).stack()
        unknown = TensorArray(fw.float32).stack()
    assert declared.shape.dims == (None, None, 4)
    assert learned.shape.dims == (None, 3, 4)
    assert unknown.shape.rank is None
    empty, none = fw.Session(g).run([declared, unknown])
    assert empty.shape == (0, 0, 4) and none.shape == (0,)


def test_element_shape_learned_in_one_cond_branch_only():
    @repro.function
    def f(x, flag):
        ta = TensorArray(fw.float32, size=0)
        if flag > 0:
            pass
        else:
            ta = ta.write(0, x)
        return ops.transpose(ta.stack(), [1, 0, 2])

    assert np.asarray(f(X, np.int32(1))).shape == (3, 0, 4)
    assert np.asarray(f(X, np.int32(0))).shape == (3, 1, 4)


def test_nested_staged_loops_and_list_conversion():
    @repro.function
    def f(x, n, m):
        rows = []
        ag.set_element_type(rows, fw.float32)
        for i in range(n):
            for j in range(m):
                rows.append(ops.reduce_sum(x, axis=0))
        return ops.transpose(ag.stack(rows), [1, 0])

    for n, m in [(0, 0), (2, 0), (0, 2), (2, 3)]:
        out = np.asarray(f(X, np.int32(n), np.int32(m)))
        assert out.shape == (4, n * m) and out.dtype == np.float32


@pytest.mark.parametrize("staging", ["session", "function"])
def test_dynamic_rnn_with_all_zero_sequence_lengths(staging):
    """What ``bench/models.py::make_rnn_staged`` works around by never
    running fewer than one step."""
    batch, seq, dim, units = 3, 5, 4, 6
    data = np.random.default_rng(0).standard_normal(
        (batch, seq, dim)).astype(np.float32)
    lengths = np.zeros((batch,), np.int32)
    cell = nn.BasicRNNCell(units, input_dim=dim, rng=np.random.default_rng(0))

    def run(x, lens):
        return nn.dynamic_rnn(cell, x, cell.zero_state(batch),
                              sequence_length=lens)

    if staging == "session":
        g = fw.Graph()
        with g.as_default():
            x = ops.placeholder(fw.float32, list(data.shape))
            lens = ops.placeholder(fw.int32, [batch])
            fetches = run(x, lens)
        out, state = fw.Session(g).run(fetches, {x: data, lens: lengths})
    else:
        out, state = (np.asarray(t) for t in repro.function(run)(
            data, lengths))
    assert out.shape == (batch, 0, units) and out.dtype == np.float32
    np.testing.assert_array_equal(state, np.zeros((batch, units)))


def test_zero_turn_function_survives_save_and_load(tmp_path):
    fn = repro.function(_doubled_transposed)
    live = fn.get_concrete_function(X, np.int32(0))
    saved_function.save(live, str(tmp_path))
    loaded = saved_function.load(str(tmp_path))
    for n in (0, 2):
        got = np.asarray(loaded(X, np.int32(n)))
        want = np.asarray(live(X, np.int32(n)))
        assert got.shape == (3, n, 4) and got.dtype == np.float32
        assert got.tobytes() == want.tobytes()
