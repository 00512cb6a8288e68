"""Unit tests: dtypes, shapes and nest structure utilities."""

import numpy as np
import pytest

from repro.framework import dtypes, nest, shapes


class TestDTypes:
    def test_singletons(self):
        assert dtypes.float32.is_floating
        assert dtypes.int32.is_integer
        assert dtypes.bool_.is_bool
        assert dtypes.string.is_string
        assert not dtypes.variant.is_numeric

    def test_as_dtype_from_string(self):
        assert dtypes.as_dtype("float32") is dtypes.float32
        assert dtypes.as_dtype("int64") is dtypes.int64

    def test_as_dtype_from_python_types(self):
        assert dtypes.as_dtype(float) is dtypes.float32
        assert dtypes.as_dtype(int) is dtypes.int32
        assert dtypes.as_dtype(bool) is dtypes.bool_

    def test_as_dtype_from_numpy(self):
        assert dtypes.as_dtype(np.float64) is dtypes.float64
        assert dtypes.as_dtype(np.dtype(np.int32)) is dtypes.int32

    def test_as_dtype_identity(self):
        assert dtypes.as_dtype(dtypes.float32) is dtypes.float32

    def test_unknown_name_raises(self):
        with pytest.raises(TypeError):
            dtypes.as_dtype("float128xyz")

    def test_from_numpy_normalizes_narrow_ints(self):
        assert dtypes.from_numpy(np.int8) is dtypes.int32
        assert dtypes.from_numpy(np.uint8) is dtypes.int32

    def test_equality_with_string(self):
        assert dtypes.float32 == "float32"
        assert dtypes.float32 != "float64"

    def test_promotion_lattice(self):
        # The lattice is NumPy's own, read off the op's NumPy callable.
        rule = dtypes.numpy_dtype_fn(np.add)
        assert rule([dtypes.int32, dtypes.float32], {}) == [dtypes.float64]
        assert rule([dtypes.bool_, dtypes.int64], {}) == [dtypes.int64]
        assert rule([dtypes.float32, dtypes.float64], {}) == [dtypes.float64]
        assert dtypes.numpy_result_dtype(
            np.add, (np.dtype(np.int32), np.dtype(np.float32))) == np.float64

    def test_promotion_rejects_string(self):
        # Nothing is promised: the dtype is decided at run time.
        rule = dtypes.numpy_dtype_fn(np.add)
        assert rule([dtypes.string, dtypes.float32], {}) == [dtypes.variant]
        # ... nor for a mix NumPy itself refuses.
        assert dtypes.numpy_dtype_fn(np.subtract)(
            [dtypes.bool_, dtypes.bool_], {}) == [dtypes.variant]


class TestShapes:
    def test_fully_defined(self):
        s = shapes.TensorShape([2, 3])
        assert s.is_fully_defined
        assert s.num_elements() == 6
        assert s.as_list() == [2, 3]
        assert s.rank == 2

    def test_unknown_rank(self):
        s = shapes.TensorShape(None)
        assert s.rank is None
        assert not s.is_fully_defined
        with pytest.raises(ValueError):
            s.as_list()

    def test_partial(self):
        s = shapes.TensorShape([None, 4])
        assert s.rank == 2
        assert not s.is_fully_defined
        assert s.num_elements() is None
        assert s[1] == 4

    def test_negative_dim_rejected(self):
        with pytest.raises(ValueError):
            shapes.TensorShape([-1, 2])

    def test_merge(self):
        a = shapes.TensorShape([None, 4])
        b = shapes.TensorShape([3, None])
        assert a.merge_with(b).as_list() == [3, 4]

    def test_merge_conflict(self):
        with pytest.raises(ValueError):
            shapes.TensorShape([3]).merge_with(shapes.TensorShape([4]))

    def test_merge_with_unknown(self):
        a = shapes.TensorShape(None)
        b = shapes.TensorShape([2])
        assert a.merge_with(b).as_list() == [2]

    def test_compatibility(self):
        assert shapes.TensorShape([None]).is_compatible_with([5])
        assert not shapes.TensorShape([4]).is_compatible_with([5])

    def test_concatenate(self):
        s = shapes.TensorShape([2]).concatenate([3, 4])
        assert s.as_list() == [2, 3, 4]

    def test_equality_with_tuple(self):
        assert shapes.TensorShape([2, 3]) == (2, 3)

    def test_broadcast(self):
        out = shapes.broadcast_shapes([2, 1], [1, 3])
        assert out.as_list() == [2, 3]

    def test_broadcast_rank_extension(self):
        out = shapes.broadcast_shapes([3], [4, 3])
        assert out.as_list() == [4, 3]

    def test_broadcast_unknown_dims(self):
        out = shapes.broadcast_shapes([None, 3], [5, 3])
        assert out.as_list() == [5, 3]

    def test_broadcast_error(self):
        with pytest.raises(ValueError):
            shapes.broadcast_shapes([2], [3])


class TestNest:
    def test_flatten_nested(self):
        assert nest.flatten([1, (2, [3, 4]), 5]) == [1, 2, 3, 4, 5]

    def test_flatten_dict_sorted(self):
        assert nest.flatten({"b": 2, "a": 1}) == [1, 2]

    def test_flatten_leaf(self):
        assert nest.flatten(42) == [42]

    def test_pack_roundtrip(self):
        structure = {"x": [1, (2, 3)], "y": 4}
        flat = nest.flatten(structure)
        assert nest.pack_sequence_as(structure, flat) == structure

    def test_pack_wrong_count(self):
        with pytest.raises(ValueError):
            nest.pack_sequence_as([1, 2], [1, 2, 3])

    def test_map_structure(self):
        out = nest.map_structure(lambda a, b: a + b, (1, [2, 3]), (10, [20, 30]))
        assert out == (11, [22, 33])

    def test_assert_same_structure_mismatch(self):
        with pytest.raises(ValueError):
            nest.assert_same_structure([1, 2], [1, [2]])

    def test_namedtuple_support(self):
        import collections

        Point = collections.namedtuple("Point", ["x", "y"])
        p = Point(1, (2, 3))
        flat = nest.flatten(p)
        assert flat == [1, 2, 3]
        rebuilt = nest.pack_sequence_as(p, flat)
        assert isinstance(rebuilt, Point)
        assert rebuilt == p
