"""The CPS adjoints' fast paths, and the gradients a continuation is
handed for outputs nobody reads.

A matmul's operand gradients are ``_dot`` over ``.T``: ``np.dot`` where
it gives the bytes of ``@`` (``np.matmul`` has a slow path for a
contraction dimension of 1, which every weight gradient of a batch-1
product is); the premise that this moves no bit is checked here by
Hypothesis.  ``np.dot`` of a Python ``0.0`` and a matrix is a matrix of
the wrong shape, so a dropped output's gradient must be a zero of the
output's shape, and a broadcasting op's operand gradient is summed back
onto the operand's shape.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.lantern import compiler, ops as lt
from repro.lantern.ir import Param
from repro.lantern.staging import Stager

RNG = np.random.default_rng(7)
X = RNG.standard_normal((1, 3)).astype(np.float32)


def _compile(helper, loss):
    stager = Stager()
    with stager.active():
        stager.def_staged(helper, ["tensor"], n_outputs=2)
        stager.def_staged(loss, ["tensor"], n_outputs=1)
    return compiler.compile_program(stager.program)


def _dx_and_dw(helper, w):
    def loss(x):
        _, t = helper(x)
        return lt.sum_(t)

    compiled = _compile(helper, loss)
    compiled.zero_grads()
    # A dropped matmul output once made this raise: its gradient was a
    # bare 0.0.
    compiled.run_with_grad("loss", X)
    dw = compiled.grads()[w.name].copy()
    _, bwd = compiled.func("loss")(X)
    (dx,) = bwd(1.0)
    return dx, dw


class TestDroppedOutputs:
    def test_a_dropped_matmul_output_contributes_nothing(self):
        w = Param("w_dropped_matmul", RNG.standard_normal((3, 4)))

        def helper(x):
            return lt.matmul(x, w), lt.tanh(x)

        dx, dw = _dx_and_dw(helper, w)
        assert dx.shape == X.shape
        np.testing.assert_allclose(dx, 1 - np.tanh(X) ** 2, rtol=1e-6)
        assert dw.shape == (3, 4) and not dw.any()

    def test_a_dropped_elementwise_output_contributes_nothing(self):
        w = Param("w_dropped_mul", RNG.standard_normal((1, 3)))

        def helper(x):
            return x * w, lt.tanh(x)

        dx, dw = _dx_and_dw(helper, w)
        assert dx.shape == X.shape
        np.testing.assert_allclose(dx, 1 - np.tanh(X) ** 2, rtol=1e-6)
        assert dw.shape == (1, 3) and not dw.any()

    def test_the_generated_code_passes_no_bare_zero(self):
        w = Param("w_dropped_source", RNG.standard_normal((3, 4)))

        def helper(x):
            return lt.matmul(x, w), lt.tanh(x)

        def loss(x):
            _, t = helper(x)
            return lt.sum_(t)

        source = _compile(helper, loss).source
        assert "_zeros_like(" in source
        assert "(0.0," not in source and ", 0.0)" not in source


class TestBroadcastOperands:
    """A broadcasting op's operand gets a gradient of its own shape,
    not the result's."""

    W = Param("w_broadcast", RNG.standard_normal((2, 3)))

    def test_an_operand_broadcast_over_rows_sums_its_gradient(self):
        def f(x):
            return lt.sum_(x + self.W)

        stager = Stager()
        with stager.active():
            stager.def_staged(f, ["tensor"], n_outputs=1)
        _, bwd = compiler.compile_program(stager.program).func("f")(X)
        (dx,) = bwd(1.0)
        np.testing.assert_array_equal(dx, [[2.0, 2.0, 2.0]])

    def test_a_dropped_broadcast_output_leaves_the_shapes_alone(self):
        """``helper(h) = (h + w, tanh(h))`` with ``h`` [1,3] and ``w``
        [2,3]: the caller reads only the ``tanh``, so the zero handed
        back for ``h + w`` is [2,3]; ``h`` and the Param ``u`` upstream
        of it must still get their own shapes and values."""
        u = Param("u_broadcast", RNG.standard_normal((1, 3)))

        def helper(h):
            return h + self.W, lt.tanh(h)

        def loss(x):
            _, t = helper(x * u)
            return lt.sum_(t)

        stager = Stager()
        with stager.active():
            stager.def_staged(helper, ["tensor"], n_outputs=2)
            stager.def_staged(loss, ["tensor"], n_outputs=1)
        compiled = compiler.compile_program(stager.program)
        compiled.zero_grads()
        _, bwd = compiled.func("loss")(X)
        (dx,) = bwd(1.0)
        dh = 1 - np.tanh(X * u.value) ** 2
        assert dx.shape == X.shape
        np.testing.assert_allclose(dx, dh * u.value, rtol=1e-6)
        du = compiled.grads()["u_broadcast"]
        assert du.shape == (1, 3)
        np.testing.assert_allclose(du, dh * X, rtol=1e-6)
        assert not compiled.grads()["w_broadcast"].any()


def test_a_matrix_output_is_seeded_with_a_matrix():
    """``run_with_grad`` seeds every element of a tensor output: the
    gradients are those of the output's sum."""
    w = Param("w_seeded", RNG.standard_normal((3, 4)))

    def f(x):
        return lt.matmul(x, w)

    stager = Stager()
    with stager.active():
        stager.def_staged(f, ["tensor"], n_outputs=1)
    compiled = compiler.compile_program(stager.program)
    compiled.zero_grads()
    compiled.run_with_grad("f", X, seed=2.0)
    np.testing.assert_allclose(compiled.grads()["w_seeded"],
                               np.dot(X.T, np.full((1, 4), 2.0)), rtol=1e-6)


def test_unbroadcast_returns_a_gradient_of_the_right_shape_as_is():
    g = np.ones((2, 3), np.float32)
    assert compiler._unb(g, np.zeros((2, 3), np.float32)) is g
    np.testing.assert_array_equal(
        compiler._unb(g, np.zeros((1, 3), np.float32)), [[2.0, 2.0, 2.0]])
    # A Python scalar (a staged constant) takes the sum of everything.
    assert compiler._unb(g, 2.0) == 6.0
    assert compiler._unb(0.5, 2.0) == 0.5


_SIZES = st.one_of(st.just(1), st.integers(1, 300))
_DTYPES = st.sampled_from([np.float32, np.float64])
# Signed zeros, infinities and nan, sprinkled over the operands of some
# draws.
_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


@given(m=_SIZES, k=_SIZES, n=_SIZES, dtype_a=_DTYPES, dtype_b=_DTYPES,
       transpose_a=st.booleans(), transpose_b=st.booleans(),
       specials=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(suppress_health_check=[HealthCheck.too_slow])
def test_the_adjoint_product_is_matmul_bit_for_bit(
        m, k, n, dtype_a, dtype_b, transpose_a, transpose_b, specials,
        seed):
    """The adjoints' premise: for 2-D operands, C- or F-ordered (a ``.T``
    view), of one dtype or two, with or without signed zeros,
    infinities and nan, ``_dot`` returns the bytes of ``@``.  Where it
    takes ``np.dot`` (one dtype, more than one element per operand),
    this checks that BLAS gives ``np.dot`` and ``@`` the same bytes."""
    rng = np.random.default_rng(seed)

    def operand(rows, cols, transposed, dtype):
        values = rng.standard_normal((cols, rows) if transposed
                                     else (rows, cols))
        if specials:
            values.flat[::3] = rng.choice(_SPECIALS, values.flat[::3].size)
        values = values.astype(dtype)
        return values.T if transposed else values

    a = operand(m, k, transpose_a, dtype_a)
    b = operand(k, n, transpose_b, dtype_b)
    with np.errstate(invalid="ignore"):
        expected, got = a @ b, compiler._dot(a, b)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes(), (
        f"_dot differs from @ at {np.dtype(dtype_a).name} @ "
        f"{np.dtype(dtype_b).name} "
        f"[{m},{k}] @ [{k},{n}] (transpose_a={transpose_a}, "
        f"transpose_b={transpose_b}, specials={specials})")


def test_operands_of_two_dtypes_keep_matmul():
    """With a float64 gradient and a float32 Param, ``np.matmul`` sums
    in its own loop and ``np.dot`` in BLAS, and their last bits can
    differ (they do for these draws); the adjoint returns ``@``'s."""
    rng = np.random.default_rng(0)
    w = Param("w_two_dtypes", rng.standard_normal((2, 2)))

    def f(x):
        return lt.matmul(x, w)

    stager = Stager()
    with stager.active():
        stager.def_staged(f, ["tensor"], n_outputs=1)
    compiled = compiler.compile_program(stager.program)
    x, g = rng.standard_normal((1, 2)), rng.standard_normal((1, 2))
    _, bwd = compiled.func("f")(x)
    (dx,) = bwd(g)
    assert dx.tobytes() == (g @ w.value.T).tobytes()


def test_a_one_element_operand_keeps_matmul():
    """``np.dot`` scales by a one-element operand with BLAS, which skips
    a zero factor: ``0 * inf`` comes out 0, where ``@`` gives nan.  The
    adjoints take ``@`` there, so a gradient keeps its nan."""
    zero, row = np.zeros((1, 1), np.float32), np.array([[np.inf, 1.0]],
                                                        np.float32)
    with np.errstate(invalid="ignore"):
        assert np.isnan((zero @ row)[0, 0]) and np.dot(zero, row)[0, 0] == 0
    w = Param("w_inf", np.array([[np.inf], [1.0]], np.float32))

    def f(x):
        return lt.matmul(x, w)

    stager = Stager()
    with stager.active():
        stager.def_staged(f, ["tensor"], n_outputs=1)
    compiled = compiler.compile_program(stager.program)
    _, bwd = compiled.func("f")(np.ones((1, 2), np.float32))
    with np.errstate(invalid="ignore"):
        (dx,) = bwd(np.zeros((1, 1), np.float32))
    assert np.isnan(dx[0, 0]) and dx[0, 1] == 0
