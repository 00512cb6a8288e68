"""``TensorArrayValue`` keeps value semantics while appends to the newest
version share one list: n appends cost O(n), an older version still
reads only its own elements, and any other write copies."""

import numpy as np
import pytest

from repro.framework.errors import InvalidArgumentError
from repro.framework.graph.tensor_array import TensorArrayValue


def test_appending_to_the_newest_version_copies_nothing():
    versions = [TensorArrayValue()]
    for k in range(100):
        versions.append(versions[-1].write(k, np.float32(k)))
    # One list behind every version: no append copied it.
    assert len({id(v._store) for v in versions}) == 1
    assert len(versions[-1]._store) == 100
    for n, v in enumerate(versions):
        assert len(v) == n
        assert v.items == tuple(np.float32(k) for k in range(n))


def test_an_older_version_reads_only_its_own_elements():
    a = TensorArrayValue().write(0, "a0")
    b = a.write(1, "b1")
    # ``a`` is no longer the newest: its append copies.
    c = a.write(1, "c1")
    assert c._store is not a._store
    assert (a.items, b.items, c.items) == (
        ("a0",), ("a0", "b1"), ("a0", "c1"))
    assert b.read(1) == "b1" and c.read(1) == "c1"
    with pytest.raises(InvalidArgumentError):
        a.read(1)


def test_overwrites_pops_and_sparse_writes_keep_value_semantics():
    a = TensorArrayValue().write(0, 1).write(1, 2)
    b = a.write(0, 9)
    assert (a.items, b.items) == ((1, 2), (9, 2))
    shorter, last = a.pop()
    assert (shorter.items, last) == ((1,), 2)
    d = shorter.write(1, 5)
    assert (a.items, d.items) == ((1, 2), (1, 5))
    sparse = a.write(4, 7)
    assert sparse.items == (1, 2, None, None, 7)
    assert a.items == (1, 2)
    with pytest.raises(InvalidArgumentError):
        sparse.read(2)
    assert int(sparse.size()) == 5
