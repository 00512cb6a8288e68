"""The binary tensor wire codec: round-trips and strict rejection."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.framework.eager.tensor import EagerTensor
from repro.serving import wire

# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------

_DTYPES = st.sampled_from([
    np.dtype("bool"), np.dtype("int8"), np.dtype("uint8"),
    np.dtype("int16"), np.dtype("int32"), np.dtype("int64"),
    np.dtype("float16"), np.dtype("float32"), np.dtype("float64"),
    np.dtype("complex64"),
])

_ARRAYS = _DTYPES.flatmap(lambda dt: hnp.arrays(
    dtype=dt,
    shape=hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=5),
    elements=hnp.from_dtype(dt, allow_nan=False),
))


@settings(max_examples=120, deadline=None)
@given(_ARRAYS)
def test_roundtrip_arbitrary_dtype_and_shape(arr):
    out = wire.decode(wire.encode({"inputs": [arr]}))["inputs"][0]
    assert out.dtype == arr.dtype
    assert out.shape == arr.shape
    np.testing.assert_array_equal(out, arr)
    # Decoded leaves are views into the frame, and immutable.
    assert not out.flags.writeable


@settings(max_examples=40, deadline=None)
@given(st.lists(_ARRAYS, min_size=0, max_size=4),
       st.dictionaries(
           st.text(min_size=1, max_size=8).filter(
               lambda s: s != "__tensor__"),
           st.one_of(st.integers(-10, 10), st.floats(-1, 1), st.text(),
                     st.booleans(), st.none()),
           max_size=4))
def test_roundtrip_mixed_document(arrays, extras):
    doc = {"inputs": arrays, "meta": extras, "n": len(arrays)}
    out = wire.decode(wire.encode(doc))
    assert out["meta"] == extras
    assert out["n"] == len(arrays)
    assert len(out["inputs"]) == len(arrays)
    for got, want in zip(out["inputs"], arrays):
        np.testing.assert_array_equal(got, want)


def test_roundtrip_nested_and_eager_and_scalars():
    doc = {
        "weights": {
            "w": np.arange(6, dtype=np.float32).reshape(2, 3),
            "b": EagerTensor(np.ones((3,), np.float64)),
        },
        "scalar": np.float32(2.5),
        "plain": [1, "two", None, True, 3.5],
    }
    out = wire.decode(wire.encode(doc))
    np.testing.assert_array_equal(
        out["weights"]["w"],
        np.arange(6, dtype=np.float32).reshape(2, 3))
    np.testing.assert_array_equal(out["weights"]["b"], np.ones(3))
    assert out["weights"]["b"].dtype == np.float64
    np.testing.assert_array_equal(out["scalar"], np.float32(2.5))
    assert out["plain"] == [1, "two", None, True, 3.5]


def test_buffers_are_aligned_and_zero_copy():
    a = np.arange(7, dtype=np.int8)  # odd size forces padding
    b = np.arange(4, dtype=np.float64)
    frame = wire.encode([a, b])
    hlen = int.from_bytes(frame[4:8], "little")
    header = json.loads(frame[8:8 + hlen])
    for entry in header["tensors"]:
        assert entry["offset"] % 16 == 0
    out = wire.decode(frame)
    # decode(memoryview) keeps leaves as views over the caller's buffer.
    view = memoryview(frame)
    from_view = wire.decode(view)
    assert from_view[1].base is not None
    np.testing.assert_array_equal(out[0], a)
    np.testing.assert_array_equal(out[1], b)


def test_zero_d_and_non_contiguous_frames_are_byte_identical():
    """encode() joins views of the arrays' own buffers; whatever their
    layout, the frame is the one ``tobytes()`` (C order) would give."""
    base = np.arange(24, dtype=np.float32).reshape(4, 6)
    cases = [
        np.float64(2.5) * np.ones(()),          # 0-d keeps shape ()
        base.T,                                 # F-ordered view
        base[::2, 1::2],                        # strided slice
        np.broadcast_to(np.int16(7), (3, 2)),   # zero strides, read-only
        np.arange(6, dtype=">i4"),              # non-native byte order
        np.zeros((0, 3), np.float32),           # no bytes at all
    ]
    frame = wire.encode(cases)
    header, payload = _header_and_payload(frame)
    for arr, entry in zip(cases, header["tensors"]):
        assert entry["shape"] == list(arr.shape)
        assert entry["dtype"] == arr.dtype.str
        raw = payload[entry["offset"]:entry["offset"] + entry["nbytes"]]
        assert raw == arr.tobytes()  # C order
    for got, want in zip(wire.decode(frame), cases):
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_decode_accepts_memoryview():
    frame = wire.encode({"x": np.ones((2, 2), np.float32)})
    out = wire.decode(memoryview(frame))
    np.testing.assert_array_equal(out["x"], np.ones((2, 2)))


# ---------------------------------------------------------------------------
# Strict rejection of malformed frames
# ---------------------------------------------------------------------------


def _header_and_payload(frame):
    hlen = int.from_bytes(frame[4:8], "little")
    return (json.loads(frame[8:8 + hlen].decode("utf-8")),
            frame[8 + hlen:])


def _reframe(header, payload):
    raw = json.dumps(header).encode("utf-8")
    return wire.MAGIC + len(raw).to_bytes(4, "little") + raw + payload


def test_rejects_bad_magic_and_truncation():
    frame = wire.encode({"x": np.ones(3, np.float32)})
    with pytest.raises(wire.WireError, match="magic or truncated"):
        wire.decode(b"NOPE" + frame[4:])
    with pytest.raises(wire.WireError, match="magic or truncated"):
        wire.decode(frame[:6])
    with pytest.raises(wire.WireError, match="overruns"):
        wire.decode(frame[:12])


def test_rejects_oversized_header_claim():
    huge = (1 << 27).to_bytes(4, "little")
    with pytest.raises(wire.WireError, match="exceeds"):
        wire.decode(wire.MAGIC + huge + b"\x00" * 64)


def test_rejects_non_json_and_non_object_headers():
    bad = b"{not json"
    with pytest.raises(wire.WireError, match="malformed wire header"):
        wire.decode(wire.MAGIC + len(bad).to_bytes(4, "little") + bad)
    arr_header = b"[1, 2]"
    with pytest.raises(wire.WireError, match="object with 'doc'"):
        wire.decode(
            wire.MAGIC + len(arr_header).to_bytes(4, "little") + arr_header)


def test_rejects_malformed_tensor_entries():
    frame = wire.encode({"x": np.ones((2, 2), np.float32)})
    header, payload = _header_and_payload(frame)

    bad_dtype = json.loads(json.dumps(header))
    bad_dtype["tensors"][0]["dtype"] = "not-a-dtype"
    with pytest.raises(wire.WireError, match="unknown dtype"):
        wire.decode(_reframe(bad_dtype, payload))

    obj_dtype = json.loads(json.dumps(header))
    obj_dtype["tensors"][0]["dtype"] = "|O"
    with pytest.raises(wire.WireError, match="refused dtype"):
        wire.decode(_reframe(obj_dtype, payload))

    bad_shape = json.loads(json.dumps(header))
    bad_shape["tensors"][0]["shape"] = [2, -2]
    with pytest.raises(wire.WireError, match="malformed shape"):
        wire.decode(_reframe(bad_shape, payload))

    bad_nbytes = json.loads(json.dumps(header))
    bad_nbytes["tensors"][0]["nbytes"] = 4
    with pytest.raises(wire.WireError, match="does not match shape"):
        wire.decode(_reframe(bad_nbytes, payload))

    out_of_range = json.loads(json.dumps(header))
    out_of_range["tensors"][0]["offset"] = 1 << 20
    with pytest.raises(wire.WireError, match="past the"):
        wire.decode(_reframe(out_of_range, payload))

    missing = json.loads(json.dumps(header))
    del missing["tensors"][0]["shape"]
    with pytest.raises(wire.WireError, match="lacks 'shape'"):
        wire.decode(_reframe(missing, payload))

    not_obj = json.loads(json.dumps(header))
    not_obj["tensors"][0] = 7
    with pytest.raises(wire.WireError, match="not an object"):
        wire.decode(_reframe(not_obj, payload))


def test_rejects_dangling_placeholder():
    header = {"doc": {"__tensor__": 3}, "tensors": []}
    with pytest.raises(wire.WireError, match="out of range"):
        wire.decode(_reframe(header, b""))


def test_encode_rejects_object_dtype_and_reserved_key():
    with pytest.raises(wire.WireError, match="cannot travel"):
        wire.encode({"x": np.array([object()])})
    with pytest.raises(wire.WireError, match="reserved key"):
        wire.encode({"payload": {"__tensor__": 0}})
