"""Declared dtypes are the kernels' own: the op × dtype scan, and the
programs whose answers a guessed dtype used to change.

A ``Cond``/``While`` sub-graph is fed through ``BoundPlan``, which coerces
every capture and loop variable to the dtype the graph builder *declared*
for it — so a declaration narrower than what the kernel returns is not a
cosmetic error, it truncates values at the branch boundary.  The scan
proves there is none left; the programs are the wrong answers it caused.
"""

import itertools

import numpy as np
import pytest

import repro
import repro.autograph.operators  # noqa: F401 - registers UndefinedConst
from repro import framework as fw
from repro.framework import dtypes, ops
from repro.framework.registry import get_op_def, list_ops
from repro.serving import load, save

DTYPES = (dtypes.bool_, dtypes.int32, dtypes.int64, dtypes.float32,
          dtypes.float64)

#: Operand shapes for kernels that read an operand as a size, an index
#: vector or a per-row quantity; every other operand is a (2, 2) array.
SHAPES = {
    "Fill": [(2,), ()],
    "Range": [(), (), ()],
    "OneHot": [(2,), ()],
    "TopK": [(2, 2), ()],
    "Reshape": [(2, 2), (1,)],
    "TensorArrayNewDynamic": [()],
    "SparseSoftmaxCrossEntropyWithLogits": [(2,), (2, 2)],
    "SoftmaxXentGrad": [(2,), (2, 2), (2, 2)],
    "SparseSoftmaxXentGrad": [(2,), (2,), (2, 2)],
}

#: Ops that take no tensor operand (their kernels read attrs only).
SOURCES = {"Const", "UndefinedConst", "Placeholder", "TensorArrayNew"}

#: The only allowlist: kernels that need a structured attr to run at all.
ATTRS = {
    "PackGrad": [{"num": 2}],
    "SumGrad": [{}, {"mean": True}],
}
REDUCTIONS = ("Sum", "Prod", "Max", "Min", "Mean", "All", "Any")
for _name in REDUCTIONS:
    ATTRS[_name] = [{}, {"axis": 0}]


def _operand(dtype, shape, fill):
    return np.full(shape, fill, dtype.np_dtype)


def _actual(value):
    if isinstance(value, (np.ndarray, np.generic)) and (
            value.dtype != np.float16):  # no framework name: never declared
        return dtypes.from_numpy(value.dtype)
    return dtypes.variant


def scan():
    """``(checked, mismatches)`` over every stateless registered op."""
    checked, mismatches = 0, []
    for name in list_ops():
        op_def = get_op_def(name)
        if op_def.stateful or name in SOURCES:
            continue
        for arity, attrs in itertools.product((1, 2, 3),
                                              ATTRS.get(name, [{}])):
            shapes = SHAPES.get(name, [(2, 2)] * arity)
            if len(shapes) != arity or op_def.elementwise not in (0, arity):
                continue  # (a ufunc would take a third operand as out=)
            for in_dtypes in itertools.product(DTYPES, repeat=arity):
                # Reshape's second operand is the new shape: 4.
                fills = [4 if name == "Reshape" and i == 1 else 1
                         for i in range(arity)]
                values = [_operand(dt, sh, f)
                          for dt, sh, f in zip(in_dtypes, shapes, fills)]
                try:
                    with np.errstate(all="ignore"):
                        out = op_def.kernel(*values, **attrs)
                except Exception:
                    continue  # the kernel refuses these operands
                g = fw.Graph()
                with g.as_default():
                    op = g.create_op(
                        name,
                        [ops.placeholder(dt, sh)
                         for dt, sh in zip(in_dtypes, shapes)],
                        attrs)
                outs = (out,) if len(op.outputs) == 1 else tuple(out)
                for t, value in zip(op.outputs, outs):
                    checked += 1
                    if t.dtype != _actual(value):
                        mismatches.append(
                            f"{name}{tuple(d.name for d in in_dtypes)} "
                            f"{attrs or ''} declares {t.dtype.name}, kernel "
                            f"returns {np.asarray(value).dtype}")
    return checked, mismatches


def test_every_declared_dtype_is_what_the_kernel_returns():
    checked, mismatches = scan()
    assert checked > 900
    assert not mismatches, (
        f"{len(mismatches)} of {checked} declarations differ from their "
        "kernels:\n" + "\n".join(mismatches))


def test_scan_reaches_the_ops_it_is_meant_to_guard():
    """The scan skips whatever a kernel refuses; make sure that is not
    how the interesting ops pass."""
    g = fw.Graph()
    with g.as_default():
        i32 = ops.placeholder(fw.int32, [2, 2])
        f32 = ops.placeholder(fw.float32, [2, 2])
        b = ops.placeholder(fw.bool_, [2, 2])
        assert ops.subtract(f32, i32).dtype == fw.float64
        assert ops.reduce_sum(i32).dtype == fw.int64
        assert ops.reduce_mean(i32).dtype == fw.float64
        assert ops.reduce_mean(f32).dtype == fw.float32
        assert ops.sqrt(i32).dtype == fw.float64
        assert ops.divide(i32, i32).dtype == fw.float64
        assert ops.matmul(i32, f32).dtype == fw.float64
        assert ops.concat([f32, i32], axis=0).dtype == fw.float64
        assert ops.fill([3], 0.5).dtype == fw.float32
        assert ops.greater(i32, f32).dtype == fw.bool_
        # NumPy refuses bool negation: nothing can be promised.
        assert ops.negative(b).dtype == fw.variant


# ---------------------------------------------------------------------------
# Programs a guessed dtype answered wrongly
# ---------------------------------------------------------------------------


def mean_then_branch(x, c):
    m = ops.reduce_mean(x)
    z = m
    if c > 0:
        z = m + 0.25
    return z


def fill_captured_by_branch(x, c):
    h = ops.fill([3], 0.5)
    z = x
    if c > 0:
        z = x + h
    return z


def widened_then_branch(x, c):
    y = x * 3
    z = y
    if c > 0:
        z = y + 1.0
    return z


def tensordot_then_branch(a, b, c):
    t = ops.tensordot(a, b)
    z = t
    if c > 0:
        z = t * 2
    return z


def while_inside_cond_capture(x, c, n):
    m = ops.reduce_mean(x)
    z = m
    if c > 0:
        i = np.int32(0)
        while i < n:
            z = z + m * 0.5
            i = i + 1
    return z


_I32 = np.array([1, 2, 3, 5, 7, 8], np.int32)
_F32 = np.array([0.1, 0.2, 0.3], np.float32)
PROGRAMS = [
    pytest.param(mean_then_branch, (np.array([1, 2, 4], np.int32),),
                 id="int-mean-captured"),
    pytest.param(fill_captured_by_branch, (np.ones(3, np.float32),),
                 id="fill-captured"),
    pytest.param(widened_then_branch, (_F32,), id="float32-times-int"),
    pytest.param(tensordot_then_branch,
                 (np.arange(4, dtype=np.int32).reshape(2, 2),
                  np.full((2, 2), 0.5, np.float32)),
                 id="tensordot-mixed"),
    pytest.param(while_inside_cond_capture, (_I32,),
                 id="while-in-cond-capture"),
]


def _run(program, arrays, c):
    tail = (np.int32(c),)
    if program is while_inside_cond_capture:
        tail += (np.int32(3),)
    eager = program(*(ops.constant(a) for a in arrays + tail))
    return np.asarray(eager.numpy()), arrays + tail


@pytest.mark.parametrize("c", [1, -1])
@pytest.mark.parametrize("program, arrays", PROGRAMS)
def test_staged_equals_eager_bitwise_live_and_loaded(program, arrays, c,
                                                     tmp_path):
    want, args = _run(program, arrays, c)
    fn = repro.function(program)
    live = np.asarray(fn(*args).numpy())
    save(fn, str(tmp_path / "fn"), *args)
    loaded = np.asarray(load(str(tmp_path / "fn"))(*args).numpy())
    for got in (live, loaded):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_the_motivation_values():
    got = repro.function(mean_then_branch)(
        np.array([1, 2, 4], np.int32), np.int32(1)).numpy()
    assert got.dtype == np.float64 and abs(got - (7 / 3 + 0.25)) < 1e-12
    got = repro.function(fill_captured_by_branch)(
        np.ones(3, np.float32), np.int32(1)).numpy()
    np.testing.assert_array_equal(got, np.full(3, 1.5, np.float32))
