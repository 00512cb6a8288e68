"""The one stable sigmoid (``framework/kernels.py::_sigmoid``), which
Lantern's generated code calls too, is the boolean-mask formula it
replaced, bit for bit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.framework.kernels import _sigmoid
from repro.lantern.compiler import RUNTIME

DTYPES = [np.float16, np.float32, np.float64]


def _masked_sigmoid(a):
    """The formula both backends used before: ``1 / (1 + exp(-a))`` on
    the non-negative entries, ``exp(a) / (1 + exp(a))`` on the rest."""
    a = np.asarray(a)
    if a.dtype.kind != "f":
        a = a.astype(np.float32)
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ea = np.exp(a[~pos])
    out[~pos] = ea / (1.0 + ea)
    return out


def _same(a):
    with np.errstate(all="ignore"):
        new, old = _sigmoid(a), _masked_sigmoid(a)
    assert type(new) is np.ndarray
    assert (new.dtype, new.shape) == (old.dtype, old.shape)
    assert new.tobytes() == old.tobytes()


def _specials(dtype):
    info = np.finfo(dtype)
    return np.array([0.0, -0.0, np.inf, -np.inf, np.nan, info.max, -info.max,
                     info.tiny, -info.tiny, info.smallest_subnormal,
                     -info.smallest_subnormal, 1.0, -1.0], dtype=dtype)


def test_special_values():
    for dtype in DTYPES:
        _same(_specials(dtype))


def test_normal_draws_times_thirty():
    rng = np.random.default_rng(0)
    for dtype in DTYPES:
        _same((rng.standard_normal(10_000) * 30).astype(dtype))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(DTYPES).flatmap(lambda dtype: hnp.arrays(
    dtype, hnp.array_shapes(min_dims=0, max_dims=3, max_side=5),
    elements=st.floats(width=np.finfo(dtype).bits, allow_nan=True,
                       allow_infinity=True, allow_subnormal=True))))
def test_matches_the_masked_formula(a):
    _same(a)


def test_a_0d_input_gives_a_0d_array():
    for value in (np.float32(0.5), np.array(-2.0), np.array(3, np.int64)):
        out = _sigmoid(value)
        assert type(out) is np.ndarray and out.shape == ()
    assert _sigmoid(np.array(3, np.int64)).dtype == np.float32


def test_lantern_calls_it_in_float32():
    x = np.random.default_rng(1).standard_normal((1, 64)) * 10
    out = RUNTIME["_sigmoid"](x)
    assert out.dtype == np.float32
    assert out.tobytes() == _sigmoid(x.astype(np.float32)).tobytes()
