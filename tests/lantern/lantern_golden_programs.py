"""The Lantern programs whose generated source is pinned byte for byte.

``PROGRAMS`` maps a name to a zero-argument callable returning the
source ``compile_program`` generates: the two staged models, every
``ops.*`` program ``test_lowering.py`` stages through
``repro.function(backend="lantern")``, and one function using each IR
op once (so every forward and adjoint expression is covered).

The checked-in ``goldens/<name>.txt`` files are what this checkout
emits when the program is the first one compiled in a fresh
interpreter.  To print it::

    PYTHONPATH=src python tests/lantern/lantern_golden_programs.py NAME
"""

import sys

import numpy as np

import repro
from repro import lantern
from repro.framework import ops
from repro.lantern import compiler, ir


def _staged(fn, *shapes, with_grad=True):
    """``fn`` staged by ``repro.function(backend="lantern")`` on float32
    arguments of ``shapes``."""
    def source():
        cf = repro.function(fn, backend="lantern").get_concrete_function(
            *(repro.TensorSpec(shape, "float32") for shape in shapes))
        return compiler.compile_program(cf.program,
                                        with_grad=with_grad).source
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


# Each program is a function named ``f``: the IR function's name.


def _arith_chain():
    def f(a):
        return ops.tanh(ops.multiply(a, 2.0))
    return f


def _matmul_transpose():
    def f(x, w):
        return ops.matmul(x, w, transpose_a=True)
    return f


def _identity():
    def f(a):
        return ops.negative(ops.identity(a))
    return f


def _reduction(reduce, axis, keepdims):
    def f(a):
        return ops.reduce_sum(reduce(a, axis=axis, keepdims=keepdims))
    return f


def _concat3(axis):
    def f(a, b, c):
        return ops.concat([a, b, c], axis=axis)
    return f


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
    "arith_chain": _staged(_arith_chain(), ()),
    "matmul_transpose": _staged(_matmul_transpose(), (3, 2), (3, 4),
                                with_grad=False),
    "identity": _staged(_identity(), (), with_grad=False),
    "concat3_axis0": _staged(_concat3(0), (2, 2), (2, 2), (2, 2)),
    "concat3_axis1": _staged(_concat3(1), (2, 2), (2, 2), (2, 2)),
    "params": _params,
}
for _name, _reduce in (("sum", ops.reduce_sum), ("mean", ops.reduce_mean)):
    for _axis in (None, 0, 1, -1, -2):
        for _keep in (False, True):
            PROGRAMS[f"{_name}_axis{_axis}_keepdims{_keep}"] = _staged(
                _reduction(_reduce, _axis, _keep), (2, 3))


if __name__ == "__main__":
    sys.stdout.write(PROGRAMS[sys.argv[1]]())
