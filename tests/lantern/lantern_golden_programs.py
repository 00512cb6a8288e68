"""The Lantern programs whose generated source is pinned byte for byte.

``PROGRAMS`` maps a name to a zero-argument callable returning the
source ``compile_program`` generates: the two staged models, every
program ``test_lowering.py`` builds, and one function using each IR op
once (so every forward and adjoint expression is covered).

The checked-in ``goldens/<name>.txt`` files are what the parent of the
commit that introduced them emitted when the program was the first one
compiled in a fresh interpreter.  To print what this checkout emits::

    PYTHONPATH=src python tests/lantern/lantern_golden_programs.py NAME
"""

import sys

import numpy as np

from repro import lantern
from repro.framework.graph.graph import Graph
from repro.lantern import compiler, ir
from repro.lantern.lowering import lower_graph


def _lowered(build, with_grad=True):
    def source():
        g = Graph("t")
        with g.as_default():
            inputs, out = build(g)
        program, _, _ = lower_graph(g, inputs, [out], name="f")
        return compiler.compile_program(program, with_grad=with_grad).source
    return source


def _emitted(*op_names):
    """One IR function applying ``op_names`` in turn to its arguments."""
    def source():
        program = ir.Program()
        b = ir.Builder(program)
        fdef = ir.FunctionDef("f", ["x", "y"], ["tensor", "tensor"], 1)
        program.functions["f"] = fdef
        b.push_block(fdef.block)
        x, y = ir.StagedTensor("x", b), ir.StagedTensor("y", b)
        total = x
        for name in op_names:
            total = total + b.emit(name, *(x, y)[:ir.OPS[name].arity])
        fdef.block.result_syms = (total.sym,)
        b.pop_block()
        return compiler.compile_program(program).source
    return source


def _arith_chain(g):
    a = g.placeholder("float32", (), name="a")
    prod = g.create_op("Mul", [a, g.constant(2.0)], {}).outputs[0]
    return [a], g.create_op("Tanh", [prod], {}).outputs[0]


def _matmul_transpose(g):
    pa = g.placeholder("float32", (3, 2), name="x")
    pb = g.placeholder("float32", (3, 4), name="w")
    return [pa, pb], g.create_op(
        "MatMul", [pa, pb], {"transpose_a": True}).outputs[0]


def _identity(g):
    a = g.placeholder("float32", (), name="a")
    ident = g.create_op("Identity", [a], {}).outputs[0]
    return [a], g.create_op("Neg", [ident], {}).outputs[0]


def _reduction(op_type, attrs, then_sum=False):
    def build(g):
        a = g.placeholder("float32", (2, 3), name="a")
        out = g.create_op(op_type, [a], attrs).outputs[0]
        if then_sum:
            out = g.create_op("Sum", [out], {}).outputs[0]
        return [a], out
    return build


def _concat3(axis):
    def build(g):
        ps = [g.placeholder("float32", (2, 2), name=n) for n in "abc"]
        return ps, g.create_op("Concat", ps, {"axis": axis}).outputs[0]
    return build


def _treelstm(with_grad):
    return lambda: lantern.LanternTreeLSTM(8).compile(
        with_grad=with_grad).source


def _params():
    program = ir.Program()
    b = ir.Builder(program)
    fdef = ir.FunctionDef("f", ["x"], ["tensor"], 1)
    program.functions["f"] = fdef
    p = ir.Param("w", np.ones((1, 2), np.float32))
    b.push_block(fdef.block)
    out = b.as_staged(ir.StagedTensor("x", b) + p)
    fdef.block.result_syms = (out.sym,)
    b.pop_block()
    return compiler.compile_program(program).source


PROGRAMS = {
    "treelstm": _treelstm(True),
    "treelstm_forward": _treelstm(False),
    "tree_prod": lambda: lantern.stage_tree_prod()[0].source,
    "every_op": _emitted(*sorted(
        name for name in ir.OPS if name != "not")),
    "arith_chain": _lowered(_arith_chain),
    "matmul_transpose": _lowered(_matmul_transpose, with_grad=False),
    "identity": _lowered(_identity, with_grad=False),
    "concat3_axis0": _lowered(_concat3(0)),
    "concat3_axis1": _lowered(_concat3(1)),
    "params": _params,
}
for _op in ("Sum", "Mean"):
    for _axis in (None, 0, 1, -1, -2):
        for _keep in (False, True):
            PROGRAMS[f"{_op.lower()}_axis{_axis}_keepdims{_keep}"] = _lowered(
                _reduction(_op, {"axis": _axis, "keepdims": _keep},
                           then_sum=True))


if __name__ == "__main__":
    sys.stdout.write(PROGRAMS[sys.argv[1]]())
