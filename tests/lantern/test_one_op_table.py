"""``ir.OPS`` is the only place a Lantern op is described.

A toy op added as ONE entry — nothing else touched — is an IR op to the
builder, computes immediately, stages from its graph op type, compiles
forward and backward, and round-trips serialization.
"""

import json

import numpy as np

from repro.framework.ops import dispatch as fw_dispatch
from repro.framework.registry import get_op_def
from repro.lantern import compiler, ir, ops as lt
from repro.lantern.serialize import program_from_payload, program_to_payload
from repro.lantern.staging import Stager


def cube_plus_one(x):
    return fw_dispatch.run_op("Cube", [x], {}) + 1.0


def test_a_new_op_is_one_table_entry(monkeypatch):
    monkeypatch.setitem(ir.OPS, "cube", ir.LanternOp(
        1, "{0} ** 3", ("{g} * 3.0 * {0} ** 2",), ("Cube", {})))
    x = np.array([[0.5, -1.5, 2.0]], np.float32)

    # Immediate mode.
    np.testing.assert_array_equal(lt.numpy_kernel("cube")(x), x ** 3)

    # Staged from the *graph* op type, through the framework-op hook.
    stager = Stager()
    with stager.active():
        stager.def_staged(cube_plus_one, ["tensor"], n_outputs=1)
    staged = stager.program.functions["cube_plus_one"].block.instructions
    assert [i[2] for i in staged if i[0] == "op"] == ["cube", "add"]

    # Forward and backward, against finite differences.
    compiled = compiler.compile_program(stager.program)
    value, bwd = compiled.namespace["cube_plus_one"](x)
    np.testing.assert_allclose(value, x ** 3 + 1.0, rtol=1e-6)
    (dx,) = bwd(np.ones_like(x))
    eps = 1e-3
    numeric = ((x + eps) ** 3 - (x - eps) ** 3) / (2 * eps)
    np.testing.assert_allclose(dx, numeric, rtol=1e-3)

    # Serialization: the name is the wire form, the table decodes it.
    payload, arrays = program_to_payload(stager.program)
    reloaded = program_from_payload(json.loads(json.dumps(payload)), arrays)
    assert compiler.compile_program(reloaded).source == compiled.source


def test_every_other_view_of_the_vocabulary_is_read_off_the_table():
    for name, op in ir.OPS.items():
        # The framework op it stages from is a registered type.
        if op.graph is not None:
            get_op_def(op.graph[0])
        operands = [f"a{i}" for i in range(op.arity)]
        # Each entry's expressions are well-formed over its own operands.
        op.forward.format(*operands)
        if not callable(op.adjoints):
            assert len(op.adjoints) == op.arity
            for adjoint in op.adjoints:
                if adjoint is not None:
                    adjoint.format(*operands, g="g", out="out")
        assert callable(lt.numpy_kernel(name))
