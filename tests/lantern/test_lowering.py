"""Framework ops staged into Lantern, new IR ops, and S-expression
round-tripping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import lantern
from repro.framework import GradientTape, ops
from repro.lantern import compiler, ir, ops as lt, sexpr
from repro.lantern.lowering import LanternLoweringError

# ---------------------------------------------------------------------------
# S-expression round-tripping (parse ∘ format == identity)
# ---------------------------------------------------------------------------

_atoms = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=-1e6, max_value=1e6).map(
        # repr/parse round-trips floats; integers-as-floats parse back
        # as ints, so keep a fractional part.
        lambda f: f + 0.5),
    st.text(alphabet=st.characters(
        whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=0x7F),
        min_size=0, max_size=8),
    st.text(alphabet="abcdefgxyz_-+*/?.", min_size=1, max_size=10).filter(
        lambda s: not _parses_numeric(s)).map(sexpr.Sym),
)


def _parses_numeric(token):
    for cast in (int, float):
        try:
            cast(token)
            return True
        except ValueError:
            pass
    return False


_sexprs = st.recursive(
    _atoms, lambda children: st.tuples(children, children, children),
    max_leaves=20)


class TestSexprRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_sexprs)
    def test_parse_format_roundtrip(self, expr):
        assert sexpr.parse_sexpr(sexpr.format_sexpr(expr)) == expr

    def test_roundtrip_real_program(self):
        _, program, _ = lantern.stage_tree_prod()
        text = program.to_string()
        assert sexpr.format_sexpr(sexpr.parse_sexpr(text)) == text

    def test_escaped_strings_roundtrip(self):
        expr = (sexpr.Sym("f"), 'say "hi"', 1, 2.5)
        assert sexpr.parse_sexpr(sexpr.format_sexpr(expr)) == expr


# ---------------------------------------------------------------------------
# New IR primitives: forward + CPS adjoints
# ---------------------------------------------------------------------------


class TestNewOps:
    @pytest.mark.parametrize("name,fn,np_fn", [
        ("sqrt", lt.sqrt, np.sqrt),
        ("square", lt.square, np.square),
        ("abs", lt.abs_, np.abs),
        ("mean", lt.mean, np.mean),
    ])
    def test_numpy_mode(self, name, fn, np_fn):
        x = np.asarray([[1.0, 4.0]], np.float32)
        assert np.allclose(fn(x), np_fn(x))

    def test_transpose_and_maximum_numpy(self):
        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        assert lt.transpose(x).shape == (3, 2)
        assert np.allclose(lt.maximum(x, 3.0), np.maximum(x, 3.0))

    @pytest.mark.parametrize("op,np_ref,dref", [
        ("sqrt", np.sqrt, lambda x: 0.5 / np.sqrt(x)),
        ("square", np.square, lambda x: 2.0 * x),
        ("abs", np.abs, np.sign),
        ("mean", np.mean, lambda x: np.ones_like(x) / x.size),
        ("sum", np.sum, np.ones_like),
    ])
    def test_adjoints_match_analytic(self, op, np_ref, dref):
        program = ir.Program()
        b = ir.Builder(program)
        fdef = ir.FunctionDef("f", ["x"], ["tensor"], 1)
        program.functions["f"] = fdef
        b.push_block(fdef.block)
        out = b.emit(op, ir.StagedTensor("x", b))
        fdef.block.result_syms = (out.sym,)
        b.pop_block()
        compiled = compiler.compile_program(program)
        x = np.asarray([[0.7, 2.3]], np.float32)
        value, bwd = compiled.namespace["f"](x)
        assert np.allclose(value, np_ref(x), atol=1e-6)
        (dx,) = bwd(1.0)
        assert np.allclose(dx, dref(x), atol=1e-5)


# ---------------------------------------------------------------------------
# ops.* on staged values: repro.function(backend="lantern")
# ---------------------------------------------------------------------------


def _lantern(fn):
    # ops.* programs: nothing for AutoGraph to convert.
    return repro.function(fn, backend="lantern", autograph=False)


def _value_and_grad(fn, x):
    x = ops.constant(x)
    with GradientTape() as tape:
        tape.watch(x)
        y = _lantern(fn)(x)
    return y.numpy(), tape.gradient(y, x).numpy()


class TestOpsStageThroughTheStager:
    def test_arith_chain_matches_session_semantics(self):
        def f(a):
            return ops.tanh(ops.multiply(a, 2.0))

        value, da = _value_and_grad(f, np.float32(0.5))
        assert np.isclose(value, np.tanh(1.0))
        assert np.isclose(da, 2.0 * (1.0 - np.tanh(1.0) ** 2))

    def test_matmul_transpose_attrs(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 2)).astype(np.float32)
        w = rng.normal(size=(3, 4)).astype(np.float32)

        def f(x, w):
            return ops.matmul(x, w, transpose_a=True)

        got = _lantern(f)(x, w).numpy()
        assert np.allclose(got, x.T @ w, atol=1e-6)

    def test_identity_passthrough(self):
        def f(a):
            return ops.negative(ops.identity(a))

        assert _lantern(f)(np.float32(3.0)).numpy() == -3.0

    def test_unsupported_op_raises(self):
        def f(a):
            return ops.floor(a)

        with pytest.raises(LanternLoweringError, match="Floor"):
            _lantern(f)(np.float32(1.5))

    def test_axis_reductions_lower(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3)).astype(np.float32)
        for reduce, np_fn in ((ops.reduce_sum, np.sum),
                              (ops.reduce_mean, np.mean)):
            for axis in (0, 1):
                got = _lantern(lambda a: reduce(a, axis=axis))(x)
                np.testing.assert_allclose(
                    got.numpy(), np_fn(x, axis=axis), rtol=1e-6)

    def test_keepdims_reductions_lower(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3)).astype(np.float32)
        for reduce, np_fn in ((ops.reduce_sum, np.sum),
                              (ops.reduce_mean, np.mean)):
            for axis in (None, 0, 1):
                got = _lantern(
                    lambda a: reduce(a, axis=axis, keepdims=True))(x)
                np.testing.assert_allclose(
                    got.numpy(), np_fn(x, axis=axis, keepdims=True),
                    rtol=1e-6)

    def test_negative_axis_reductions_lower(self):
        # The argument's spec gives the rank the axis normalises with.
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 3)).astype(np.float32)
        for axis in (-1, -2):
            for keepdims in (False, True):
                got = _lantern(lambda a: ops.reduce_sum(
                    a, axis=axis, keepdims=keepdims))(x)
                np.testing.assert_allclose(
                    got.numpy(), np.sum(x, axis=axis, keepdims=keepdims),
                    rtol=1e-6)

    def test_negative_axis_after_an_op_lowers(self):
        # ... and the registry's shape_fn carries it through an op.
        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        got = _lantern(lambda a: ops.concat(
            [ops.tanh(a), a], axis=-1))(x)
        np.testing.assert_allclose(
            got.numpy(), np.concatenate([np.tanh(x), x], axis=-1),
            rtol=1e-6)

    def test_negative_axis_without_rank_refused(self):
        f = _lantern(lambda a: ops.reduce_sum(a, axis=-1))
        with pytest.raises(LanternLoweringError, match="rank"):
            f.get_concrete_function(repro.TensorSpec(None, "float32"))

    def test_keepdims_reduction_adjoints(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3)).astype(np.float32)
        for reduce, name in ((ops.reduce_sum, "Sum"),
                             (ops.reduce_mean, "Mean")):
            for axis in (None, 0, 1):
                _, dx = _value_and_grad(lambda a: ops.reduce_sum(
                    reduce(a, axis=axis, keepdims=True)), x)
                # d(sum of reduction)/dx: ones for Sum, 1/n along the
                # reduced axis (or 1/size overall) for Mean.
                if name == "Sum":
                    expect = np.ones_like(x)
                elif axis is None:
                    expect = np.ones_like(x) / x.size
                else:
                    expect = np.ones_like(x) / x.shape[axis]
                np.testing.assert_allclose(
                    np.broadcast_to(dx, x.shape), expect, rtol=1e-6)

    def test_error_is_execution_error(self):
        from repro.framework.errors import ExecutionError

        assert issubclass(LanternLoweringError, ExecutionError)


class TestProgramParams:
    def test_builder_registers_params(self):
        program = ir.Program()
        b = ir.Builder(program)
        fdef = ir.FunctionDef("f", ["x"], ["tensor"], 1)
        program.functions["f"] = fdef
        p = ir.Param("w", np.ones((1, 2), np.float32))
        b.push_block(fdef.block)
        out = b.as_staged(ir.StagedTensor("x", b) + p)
        fdef.block.result_syms = (out.sym,)
        b.pop_block()
        assert program.params == {"w": p}
        compiled = compiler.compile_program(program, with_grad=False)
        got = compiled.run("f", np.zeros((1, 2), np.float32))
        assert np.allclose(got, p.value)

    def test_duplicate_param_names_rejected(self):
        program = ir.Program()
        b = ir.Builder(program)
        b.push_block(ir.Block())
        b.as_staged(ir.Param("w", np.ones(1)))
        with pytest.raises(ValueError, match="unique"):
            b.as_staged(ir.Param("w", np.zeros(1)))
