"""Lantern program serialization: the staged IR to/from plain data.

A :class:`~repro.lantern.ir.Program` is already close to its wire form —
functions of instruction tuples plus constant and parameter pools — so
encoding is mostly a faithful transcription: instructions become JSON
arrays, ndarray constants and parameter values move to an out-of-band
array pool, and nested ``if`` blocks encode recursively.

``program_from_payload`` rebuilds a :class:`Program` that
:func:`~repro.lantern.compiler.compile_program` compiles exactly like a
freshly staged one, so a saved artifact re-generates its executable
source on load instead of shipping code.
"""

from __future__ import annotations

import numpy as np

from .ir import OPS, Block, FunctionDef, Param, Program

__all__ = ["LanternSerializationError", "program_to_payload",
           "program_from_payload"]

FORMAT_VERSION = 1


class LanternSerializationError(ValueError):
    """The program cannot be encoded (or the payload is malformed)."""


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def _store_array(value, arrays):
    key = f"lt_{len(arrays)}"
    arrays[key] = np.asarray(value, dtype=np.float32)
    return key


def _encode_instr(instr, arrays):
    tag = instr[0]
    if tag in ("op", "param", "field", "call"):
        # Symbol names and lists of them: already wire-shaped.
        return [list(f) if isinstance(f, (list, tuple)) else f for f in instr]
    if tag == "const":
        _, out, value = instr
        if np.isscalar(value):
            return ["const", out, {"scalar": float(value)}]
        return ["const", out, {"array": _store_array(value, arrays)}]
    if tag == "if":
        _, outs, cond, then_block, else_block = instr
        return ["if", list(outs), cond,
                _encode_block(then_block, arrays),
                _encode_block(else_block, arrays)]
    raise LanternSerializationError(f"Unknown instruction {instr!r}")


def _encode_block(block, arrays):
    return {
        "instructions": [_encode_instr(i, arrays) for i in block.instructions],
        "result_syms": list(block.result_syms),
    }


def program_to_payload(program, arrays=None):
    """Encode ``program`` as JSON-able data plus an ndarray pool.

    Parameter *values* are frozen (current ``Param.value``); gradient
    slots are not serialized and come back zeroed.

    Returns:
      ``(payload, arrays)``.
    """
    arrays = {} if arrays is None else arrays
    payload = {
        "format_version": FORMAT_VERSION,
        "functions": [
            {
                "name": fdef.name,
                "param_syms": list(fdef.param_syms),
                "param_kinds": list(fdef.param_kinds),
                "n_outputs": fdef.n_outputs,
                "block": _encode_block(fdef.block, arrays),
            }
            for fdef in program.functions.values()
        ],
        "params": {
            name: _store_array(param.value, arrays)
            for name, param in program.params.items()
        },
    }
    return payload, arrays


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def _decode_instr(data, arrays, program):
    tag = data[0]
    if tag in ("op", "param", "field", "call"):
        if tag == "op" and data[2] not in OPS:
            raise LanternSerializationError(
                f"Payload uses unknown Lantern op {data[2]!r}; the artifact "
                "was exported by a build with more ops than this one"
            )
        return tuple(list(f) if isinstance(f, list) else f for f in data)
    if tag == "const":
        _, out, enc = data
        if "scalar" in enc:
            value = enc["scalar"]
        else:
            value = np.asarray(arrays[enc["array"]], dtype=np.float32)
        program.consts[out] = value
        return ("const", out, value)
    if tag == "if":
        _, outs, cond, then_data, else_data = data
        return ("if", list(outs), cond,
                _decode_block(then_data, arrays, program),
                _decode_block(else_data, arrays, program))
    raise LanternSerializationError(f"Unknown encoded instruction {data!r}")


def _decode_block(data, arrays, program):
    block = Block()
    block.instructions = [
        _decode_instr(i, arrays, program) for i in data["instructions"]
    ]
    block.result_syms = tuple(data["result_syms"])
    return block


def program_from_payload(payload, arrays):
    """Rebuild a :class:`Program` from :func:`program_to_payload` data."""
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise LanternSerializationError(
            f"Unsupported lantern payload format_version {version!r} "
            f"(this build reads {FORMAT_VERSION})"
        )
    program = Program()
    for fn_data in payload["functions"]:
        fdef = FunctionDef(
            fn_data["name"],
            list(fn_data["param_syms"]),
            list(fn_data["param_kinds"]),
            fn_data["n_outputs"],
        )
        fdef.block = _decode_block(fn_data["block"], arrays, program)
        program.functions[fdef.name] = fdef
    for name, key in payload["params"].items():
        program.params[name] = Param(
            name, np.asarray(arrays[key], dtype=np.float32))
    return program
