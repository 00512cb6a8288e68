"""Static shapes inferred by the registry's rules from the operands'
shapes, attrs and — where a result's shape is spelled in an operand
(a reshape's target, a fill's dims, a one-hot depth) — that operand's
known value, so a staged loop carrying a value through them keeps its
declared shape."""

import numpy as np
import pytest

from repro import framework as fw
from repro.framework import ops


def _shape(build, *declared):
    g = fw.Graph()
    with g.as_default():
        return build(*[ops.placeholder(fw.float32, d) for d in declared]).shape


@pytest.mark.parametrize("build,declared,want", [
    (lambda x: ops.expand_dims(x, 0), [[2, 3]], [1, 2, 3]),
    (lambda x: ops.expand_dims(x, -1), [[2, 3]], [2, 3, 1]),
    (lambda x: ops.expand_dims(x, 1), [[None, 3]], [None, 1, 3]),
    (lambda x: ops.expand_dims(x, 0), [None], None),
    (lambda x: ops.squeeze(x, axis=0), [[1, 2, 3]], [2, 3]),
    (lambda x: ops.squeeze(x, axis=-1), [[None, 1]], [None]),
    (lambda x: ops.squeeze(x), [[1, 2, 1]], [2]),
    (lambda x: ops.squeeze(x), [[1, None]], None),
    (lambda x: ops.squeeze(x, axis=1), [[2, 3]], None),
    (lambda x, y: ops.stack([x, y]), [[2, 3], [None, 3]], [2, 2, 3]),
    (lambda x, y: ops.stack([x, y], axis=-1), [[2, 3], [2, 3]], [2, 3, 2]),
    (lambda x, y: ops.stack([x, y], axis=1), [[2], None], [2, 2]),
    (lambda x, y: ops.stack([x, y]), [[2], [3]], None),
    # A value-shaped result: the operand's known value, read by the rule.
    (lambda x: ops.reshape(x, [3, -1]), [[2, 6]], [3, 4]),
    (lambda x: ops.reshape(x, [3, -1]), [[None, 6]], [3, None]),
    (lambda x: ops.reshape(x, [3, -1]), [None], [3, None]),
    (lambda x: ops.reshape(x, [-1]), [[2, 6]], [12]),
    (lambda x, y: ops.reshape(x, ops.shape(y)), [[2, 6], [None, 6]],
     [None, 6]),
    (lambda x, y: ops.reshape(x, ops.shape(y)), [[2, 6], None], None),
    (lambda x: ops.reshape(x, ops.stack([ops.size(x) // 4, 4])), [[2, 6]],
     [None, 4]),
    (lambda x: ops.tile(x, [2, 1]), [[2, 6]], [4, 6]),
    (lambda x: ops.tile(x, [3]), [[2, None]], [2, None]),
    (lambda x: ops.tile(x, [2, 1, 1]), [[2, 6]], [2, 2, 6]),
    (lambda x: ops.tile(x, [2, 1]), [None], None),
    (lambda x: ops.gather(x, np.array([0, 5, 1, 1, 2]), axis=1), [[2, 6]],
     [2, 5]),
    (lambda x: ops.gather(x, np.array([[0, 1]])), [[None, 6]], [1, 2, 6]),
    (lambda x: ops.gather(x, np.array([0])), [None], None),
    (lambda x: ops.one_hot(ops.cast(x, fw.int32), 4), [[5]], [5, 4]),
    (lambda x: ops.one_hot(ops.cast(x, fw.int32), 4), [[None, 2]],
     [None, 2, 4]),
    (lambda x: ops.argmax(x, axis=1), [[2, 6]], [2]),
    (lambda x: ops.argmin(x, axis=-1), [[2, None, 3]], [2, None]),
    (lambda x: ops.argmax(x), [None], None),
    (lambda: ops.fill([2, 3], 1.0), [], [2, 3]),
    (lambda x: ops.fill(ops.shape(x), 1.0), [[None, 3]], [None, 3]),
    (lambda x: ops.top_k(x, 2)[0], [[2, 6]], [2, 2]),
    (lambda x: ops.top_k(x, 2)[1], [[None, 6]], [None, 2]),
    (lambda x: ops.tensordot(x, np.ones((6, 4), np.float32), 1), [[2, 6]],
     [2, 4]),
    (lambda x: ops.tensordot(x, np.ones((2, 6, 3), np.float32),
                             [[0, 1], [0, 1]]), [[2, 6]], [3]),
    (lambda x: ops.tensordot(x, np.ones((3,), np.float32), 0), [[None, 6]],
     [None, 6, 3]),
    (lambda x: ops.sparse_softmax_cross_entropy_with_logits(
        np.array([0, 5]), x), [[2, 6]], [2]),
    (lambda x: ops.boolean_mask(x, np.array([True, False])), [[2, 6]],
     [None, 6]),
    (lambda: ops.random_normal([2, 3]), [], [2, 3]),
    (lambda: ops.random_uniform([4]), [], [4]),
    (lambda: ops.range(0, 10, 2), [], [5]),
    (lambda: ops.range(10, 0, -3), [], [4]),
    (lambda: ops.range(0.0, 1.0, 0.3), [], [4]),
    (lambda x: ops.range(ops.size(x)), [[2, None]], [None]),
    # A TensorArray's size is a scalar; a read or a pop
    # declares the element shape its handle knows.
    (lambda x: fw.TensorArray(size=1).write(0, x).read(0), [[2, 6]], [2, 6]),
    (lambda x: fw.TensorArray(size=1).write(0, x).pop()[1], [[None, 6]],
     [None, 6]),
    (lambda x: fw.TensorArray(size=1).write(0, x).size(), [[2, 6]], []),
    (lambda x: fw.TensorArray.unstack(x).read(1), [[2, None]], [None]),
])
def test_the_static_shape_is_the_kernels(build, declared, want):
    """The declared shape, and — where every rank is known — that of
    what the kernel computes at the declared sizes (2 where unknown)."""
    got = _shape(build, *declared)
    assert got == fw.TensorShape(want)
    if got.rank is not None and None not in declared:
        values = [np.ones([d or 2 for d in s], np.float32)
                  for s in declared]
        g = fw.Graph()
        with g.as_default():
            phs = [ops.placeholder(fw.float32, v.shape) for v in values]
            out = build(*phs)
        value = fw.Session(g).run(out, dict(zip(phs, values)))
        assert got.is_compatible_with(value.shape)
        assert out.shape.is_compatible_with(value.shape)


def _run_loop(step):
    """Two turns of ``h = step(h)`` over a ``[2, 3]`` placeholder: the
    loop's declared result shape and the value it computes."""
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [2, 3])
        n = ops.placeholder(fw.int32, [])
        _, h = fw.while_loop(lambda i, h: i < n,
                             lambda i, h: (i + 1, step(h)), (np.int32(0), x))
    xv = np.linspace(-1, 1, 6, dtype=np.float32).reshape(2, 3)
    got = fw.Session(g).run(h, {x: xv, n: np.int32(2)})
    assert got.tobytes() == np.tanh(np.tanh(xv)).tobytes()
    return h.shape


def test_a_loop_through_expand_dims_and_squeeze_keeps_its_shape():
    assert _run_loop(lambda h: ops.squeeze(
        ops.expand_dims(ops.tanh(h), 0), axis=0)) == fw.TensorShape([2, 3])


def test_a_loop_through_reshape_keeps_its_shape():
    assert _run_loop(lambda h: ops.reshape(ops.tanh(h), [2, 3])) == (
        fw.TensorShape([2, 3]))


#: The stateless ops no rule is written for, each with its reason.  Any
#: other stateless op declares what it can (unknown dimensions where a
#: value decides them, as ``BooleanMask``'s count).
NO_RULE = {
    "UndefinedConst": "stands for a return value no path defined: it "
                      "has no value, so no shape, and nothing consumes it",
}


def test_every_stateless_op_but_the_listed_has_a_shape_rule():
    import repro.autograph.operators  # noqa: F401 - registers its ops
    from repro.framework import registry

    missing = {name for name in registry.list_ops()
               if not registry.get_op_def(name).stateful
               and registry.get_op_def(name).shape_fn is None}
    assert missing == set(NO_RULE)
