"""The binary tensor wire format: ``application/x-repro-tensor``.

JSON is the serving fallback, not the serving format: encoding a float32
tensor as nested decimal lists costs ~10x the bytes and dominates
large-input latency end to end (the client pays ``tolist`` + ``dumps``,
the server pays ``loads`` + ``asarray``, and ``swap_weights`` ships full
weight matrices that way).  This module frames the same JSON-shaped
documents with their tensor leaves carried as **raw buffers**:

::

    magic   b"RPT1"                      (4 bytes)
    hlen    uint32 little-endian         (4 bytes)
    header  JSON, utf-8                  (hlen bytes)
    payload raw tensor buffers           (16-byte aligned each)

The header is ``{"doc": ..., "tensors": [...]}`` — ``doc`` is the
message with every tensor leaf replaced by ``{"__tensor__": i}``, and
``tensors[i]`` records ``{"dtype", "shape", "offset", "nbytes"}`` for
the raw C-order buffer at ``payload[offset : offset + nbytes]``.
Everything JSON can say still travels verbatim, so the predict /
swap_weights envelopes are byte-layout changes only, not schema changes.

Decoding is strict: bad magic, truncated frames, oversized or malformed
headers, non-numeric dtypes (no object arrays over the wire), shape /
byte-count mismatches and out-of-range buffers all raise
:class:`WireError` — a malformed request must be a 400, never a crash or
an allocation amplifier.  Decoded arrays are **zero-copy, read-only
views** into the received buffer (also how the shared-memory weight
store maps fleet weights without materializing per-worker copies).
"""

from __future__ import annotations

import json

import numpy as np

__all__ = ["CONTENT_TYPE", "WireError", "encode", "decode", "jsonify"]

#: Negotiated via ``Content-Type`` (request) / ``Accept`` (response).
CONTENT_TYPE = "application/x-repro-tensor"

MAGIC = b"RPT1"
_ALIGN = 16
#: Upper bound on the JSON header; a frame claiming more is malformed
#: (the header holds metadata, never tensor data).
_MAX_HEADER = 1 << 26
#: Tensor dtypes allowed over the wire: bool, (u)ints, floats, complex.
_DTYPE_KINDS = frozenset("biufc")

_PLACEHOLDER = "__tensor__"


class WireError(ValueError):
    """The frame is not a well-formed ``application/x-repro-tensor``
    message (mapped to HTTP 400 at the server boundary)."""


def jsonify(value):
    """The JSON-fallback form of a message: tensor leaves (ndarrays,
    numpy scalars, anything with ``.numpy``) as nested lists."""
    tolist = getattr(value, "tolist", None)
    if tolist is not None and not isinstance(value, (str, bytes)):
        return tolist()
    numpy_fn = getattr(value, "numpy", None)
    if numpy_fn is not None:
        return numpy_fn().tolist()
    if isinstance(value, dict):
        return {k: jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    return value


def _as_wire_array(value):
    """The ndarray for a tensor leaf, or None for plain JSON values."""
    if isinstance(value, (np.ndarray, np.generic)):
        arr = np.asarray(value)
    else:
        numpy_fn = getattr(value, "numpy", None)  # EagerTensor duck-type
        if numpy_fn is None or isinstance(value, (bool, int, float, str)):
            return None
        arr = np.asarray(numpy_fn())
    if arr.dtype.kind not in _DTYPE_KINDS:
        raise WireError(
            f"dtype {arr.dtype!s} cannot travel on the binary wire; "
            "only bool/int/uint/float/complex tensors are supported"
        )
    return arr


def _strip(value, tensors):
    """Replace tensor leaves with placeholders, collecting the arrays."""
    arr = _as_wire_array(value)
    if arr is not None:
        tensors.append(arr)
        return {_PLACEHOLDER: len(tensors) - 1}
    if isinstance(value, dict):
        if _PLACEHOLDER in value:
            raise WireError(
                f"{_PLACEHOLDER!r} is a reserved key in wire messages"
            )
        return {str(k): _strip(v, tensors) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strip(v, tensors) for v in value]
    return value


def encode(doc):
    """Frame ``doc`` (JSON-shaped, tensor leaves as ndarrays /
    ``EagerTensor``s / numpy scalars) as one binary message."""
    tensors = []
    stripped = _strip(doc, tensors)
    entries = []
    buffers = []
    offset = 0
    for arr in tensors:
        if not arr.flags.c_contiguous:
            # (ascontiguousarray unconditionally would also promote 0-d
            # arrays to 1-d and lose their shape.)
            arr = np.ascontiguousarray(arr)
        pad = -offset % _ALIGN
        if pad:
            buffers.append(b"\x00" * pad)
            offset += pad
        entries.append({
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": arr.nbytes,
        })
        # The array's own (C-order) bytes, copied once: by the join.
        buffers.append(arr.reshape(-1).view("u1").data)
        offset += arr.nbytes
    header = json.dumps(
        {"doc": stripped, "tensors": entries},
        separators=(",", ":"),
    ).encode("utf-8")
    if len(header) > _MAX_HEADER:
        raise WireError(
            f"wire header of {len(header)} bytes exceeds the "
            f"{_MAX_HEADER}-byte bound"
        )
    parts = [MAGIC, len(header).to_bytes(4, "little"), header]
    parts.extend(buffers)
    return b"".join(parts)


def _fill(node, arrays):
    if isinstance(node, dict):
        index = node.get(_PLACEHOLDER)
        if index is not None and len(node) == 1:
            if not isinstance(index, int) or not 0 <= index < len(arrays):
                raise WireError(f"tensor placeholder {index!r} out of range")
            return arrays[index]
        return {k: _fill(v, arrays) for k, v in node.items()}
    if isinstance(node, list):
        return [_fill(v, arrays) for v in node]
    return node


def _decode_entry(entry, payload, index):
    if not isinstance(entry, dict):
        raise WireError(f"tensor entry {index} is not an object")
    try:
        dtype_str = entry["dtype"]
        shape = entry["shape"]
        offset = entry["offset"]
        nbytes = entry["nbytes"]
    except KeyError as e:
        raise WireError(f"tensor entry {index} lacks {e.args[0]!r}") from None
    try:
        dtype = np.dtype(dtype_str)
    except TypeError:
        raise WireError(f"tensor entry {index} has unknown dtype "
                        f"{dtype_str!r}") from None
    if dtype.kind not in _DTYPE_KINDS:
        raise WireError(
            f"tensor entry {index} has refused dtype {dtype!s}; only "
            "bool/int/uint/float/complex tensors travel on the wire"
        )
    if (not isinstance(shape, list)
            or any(not isinstance(d, int) or d < 0 for d in shape)):
        raise WireError(f"tensor entry {index} has malformed shape {shape!r}")
    count = 1
    for d in shape:
        count *= d
    if (not isinstance(nbytes, int) or not isinstance(offset, int)
            or offset < 0 or nbytes != count * dtype.itemsize):
        raise WireError(
            f"tensor entry {index}: {nbytes!r} bytes at offset {offset!r} "
            f"does not match shape {shape} of {dtype!s}"
        )
    if offset + nbytes > len(payload):
        raise WireError(
            f"tensor entry {index} reaches byte {offset + nbytes}, past "
            f"the {len(payload)}-byte payload"
        )
    arr = np.frombuffer(payload, dtype=dtype, count=count,
                        offset=offset).reshape(shape)
    if arr.flags.writeable:
        # Views into shared buffers must not let a kernel scribble on
        # every other reader's weights.
        arr = arr.view()
        arr.flags.writeable = False
    return arr


def decode(data):
    """Parse one binary message back into its document.

    ``data`` may be ``bytes`` or a ``memoryview`` (e.g. straight over a
    shared-memory segment); tensor leaves come back as read-only ndarray
    views into it — zero copies either way.
    """
    view = memoryview(data)
    if len(view) < 8 or bytes(view[:4]) != MAGIC:
        raise WireError(
            f"not a {CONTENT_TYPE} message (bad magic or truncated frame)"
        )
    hlen = int.from_bytes(view[4:8], "little")
    if hlen > _MAX_HEADER:
        raise WireError(f"declared header of {hlen} bytes exceeds the "
                        f"{_MAX_HEADER}-byte bound")
    if 8 + hlen > len(view):
        raise WireError(
            f"declared header of {hlen} bytes overruns the "
            f"{len(view)}-byte frame"
        )
    try:
        header = json.loads(bytes(view[8:8 + hlen]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise WireError(f"malformed wire header: {e}") from None
    if not isinstance(header, dict) or "doc" not in header:
        raise WireError("wire header must be an object with 'doc'")
    entries = header.get("tensors", [])
    if not isinstance(entries, list):
        raise WireError("wire header 'tensors' must be a list")
    payload = view[8 + hlen:]
    arrays = [_decode_entry(entry, payload, i)
              for i, entry in enumerate(entries)]
    return _fill(header["doc"], arrays)
