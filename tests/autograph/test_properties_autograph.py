"""Property-based tests (hypothesis) on the conversion itself.

Main invariant (the paper's central correctness claim): conversion is
semantics-preserving — for any inputs, a converted function computes
exactly what the original computes.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import repro.autograph as ag
from repro import framework as fw
from repro.autograph.pyct import ast_util, parser, templates
from repro.framework import ops


ints = st.integers(min_value=-50, max_value=50)
small_ints = st.integers(min_value=0, max_value=20)


# A fixed battery of convertible functions, each exercised over random
# inputs (conversion is cached, so each function converts once).

def collatz_steps(n):
    steps = 0
    while n > 1:
        if n % 2 == 0:
            n = n // 2
        else:
            n = 3 * n + 1
        steps = steps + 1
        if steps > 500:
            break
    return steps


def gcd(a, b):
    while b != 0:
        a, b = b, a % b
    return a


def clamp_sum(values, lo, hi):
    total = 0
    for v in values:
        if v < lo:
            continue
        if v > hi:
            break
        total = total + v
    return total


def sign_description(x):
    if x > 0:
        label = "pos"
    elif x < 0:
        label = "neg"
    else:
        label = "zero"
    return label


def bounded_power(base, exp):
    result = 1
    i = 0
    while i < exp:
        result = result * base
        if result > 10 ** 6:
            return -1
        i = i + 1
    return result


@given(n=st.integers(min_value=1, max_value=200))
def test_collatz_preserved(n):
    assert ag.to_graph(collatz_steps)(n) == collatz_steps(n)


@given(a=small_ints, b=small_ints)
def test_gcd_preserved(a, b):
    assert ag.to_graph(gcd)(a, b) == gcd(a, b)


@given(values=st.lists(ints, max_size=8), lo=ints, hi=ints)
def test_clamp_sum_preserved(values, lo, hi):
    assert ag.to_graph(clamp_sum)(values, lo, hi) == clamp_sum(values, lo, hi)


@given(x=ints)
def test_sign_preserved(x):
    assert ag.to_graph(sign_description)(x) == sign_description(x)


@given(base=st.integers(0, 9), exp=st.integers(0, 10))
def test_bounded_power_preserved(base, exp):
    assert ag.to_graph(bounded_power)(base, exp) == bounded_power(base, exp)


@given(n=st.integers(min_value=0, max_value=15))
def test_staged_while_equals_python(n):
    """Staged loops compute what the Python loop computes, for all n."""

    def triangle(k):
        total = 0
        i = 0
        while i < k:
            i = i + 1
            total = total + i
        return total

    converted = ag.to_graph(triangle)
    g = fw.Graph()
    with g.as_default():
        p = ops.placeholder(fw.int32, [])
        out = converted(p)
    staged = fw.Session(g).run(out, {p: n})
    assert int(np.asarray(staged)) == triangle(n)


@given(name=st.sampled_from(["alpha", "beta", "gamma"]),
       value=st.sampled_from(["x", "y_z", "w2"]))
def test_templates_substitution_total(name, value):
    """Template substitution always produces parseable code with the
    placeholder fully replaced."""
    nodes = templates.replace("target = value_ + value_", target=name,
                              value_=value)
    out = parser.unparse(nodes)
    assert f"{name} = {value} + {value}" == out.strip()


@given(old=st.sampled_from(["a", "b", "c"]), new=st.sampled_from(["q", "r"]))
def test_rename_is_complete_and_minimal(old, new):
    # Free occurrences are renamed everywhere; unrelated names untouched.
    src = f"{old} = 1\nout = {old} + other\ng = lambda {old}: {old}\n"
    node = parser.parse_str(src)
    ast_util.rename_symbols(node, {old: new})
    out = parser.unparse(node)
    assert f"{new} = 1" in out
    assert f"out = {new} + other" in out
    # The lambda's parameter shadows the rename.
    assert f"lambda {old}: {old}" in out
