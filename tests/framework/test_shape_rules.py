"""Static shapes of ``ExpandDims``, ``Squeeze`` and ``Pack``, inferred
from their operands' shapes and attrs, so a staged loop carrying a
value through them keeps its declared shape."""

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
])
def test_the_static_shape_is_the_kernels(build, declared, want):
    got = _shape(build, *declared)
    assert got == fw.TensorShape(want)
    if got.is_fully_defined and None not in declared:
        values = [np.zeros([d or 2 for d in s], np.float32)
                  for s in declared]
        g = fw.Graph()
        with g.as_default():
            phs = [ops.placeholder(fw.float32, v.shape) for v in values]
            out = build(*phs)
        assert fw.Session(g).run(out, dict(zip(phs, values))).shape == (
            got.as_tuple())


def test_a_loop_through_expand_dims_and_squeeze_keeps_its_shape():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [2, 3])
        n = ops.placeholder(fw.int32, [])
        _, h = fw.while_loop(
            lambda i, h: i < n,
            lambda i, h: (i + 1, ops.squeeze(
                ops.expand_dims(ops.tanh(h), 0), axis=0)),
            (np.int32(0), x))
    assert h.shape == fw.TensorShape([2, 3])
    xv = np.linspace(-1, 1, 6, dtype=np.float32).reshape(2, 3)
    got = fw.Session(g).run(h, {x: xv, n: np.int32(2)})
    assert got.tobytes() == np.tanh(np.tanh(xv)).tobytes()
