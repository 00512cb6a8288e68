"""A variable read staged after an in-trace assign observes the assign.

In a top-level trace, ``v.value()`` is an external *capture* — a runtime
input resolved before the call runs — only for reads staged *before* the
trace's first assign to ``v``.  After a straight-line assign the read is
the assign's output; after an assign inside a ``Cond`` / ``While``
sub-graph it is a live ``ReadVariable`` op ordered after that op.  This
used to return the pre-call snapshot and warn; staged now equals eager
and nothing warns.
"""

import warnings

import numpy as np
import pytest

import repro
from repro.framework import Variable


def _staged_equals_eager(program, *args):
    """Run ``program(v, *args)`` eagerly and staged from the same start;
    both the result and the variable's final value must agree."""
    results = []
    for stage in (False, True):
        v = Variable(np.float32(1.0), name="raa")
        fn = repro.function(program) if stage else program
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = [np.asarray(fn(v, *args)) for _ in range(2)]  # miss, hit
        results.append((out, v.numpy()))
    (eager_out, eager_v), (staged_out, staged_v) = results
    for e, s in zip(eager_out, staged_out):
        np.testing.assert_array_equal(s, e)
        assert s.dtype == e.dtype
    np.testing.assert_array_equal(staged_v, eager_v)
    return staged_out


def test_straight_line_read_is_the_assigns_output():
    def program(v, x):
        v.assign(x)
        return v.value() + 0.0

    first, second = _staged_equals_eager(program, np.float32(5.0))
    assert first == second == np.float32(5.0)


def test_read_between_two_assigns_sees_the_first():
    def program(v, x):
        before = v.value()
        v.assign_add(x)
        middle = v.value()
        v.assign_add(x)
        return before, middle, v.value()

    for stage in (False, True):
        v = Variable(np.float32(1.0), name="raa_between")
        fn = repro.function(program) if stage else program
        got = [float(np.asarray(t)) for t in fn(v, np.float32(2.0))]
        assert got == [1.0, 3.0, 5.0]


@pytest.mark.parametrize("c", [np.float32(1.0), np.float32(-1.0)])
def test_read_after_an_assign_inside_a_cond_branch(c):
    def program(v, c):
        before = v.value()
        if c > 0:
            v.assign(5.0)
        return before + 0.0, v.value() + 0.0

    for stage in (False, True):
        v = Variable(np.float32(1.0), name="raa_cond")
        fn = repro.function(program) if stage else program
        before, after = (float(np.asarray(t)) for t in fn(v, c))
        assert before == 1.0
        assert after == (5.0 if c > 0 else 1.0)
        assert float(v.numpy()) == after


def test_read_after_an_assign_inside_a_while_body():
    def program(v, n):
        i = 0
        total = 0.0
        while i < n:
            v.assign_add(1.0)
            total = total + v.value()   # the body's own assign
            i = i + 1
        return total, v.value() + 0.0   # re-read after the loop

    for stage in (False, True):
        v = Variable(np.float32(1.0), name="raa_while")
        fn = repro.function(program) if stage else program
        total, after = (float(np.asarray(t)) for t in fn(v, np.int32(3)))
        assert (total, after) == (2.0 + 3.0 + 4.0, 4.0)


def test_a_body_that_reads_then_assigns_rereads_every_turn():
    def program(v, n):
        i = 0
        seen = 0.0
        while i < n:
            seen = seen + v.value()
            v.assign_add(1.0)
            i = i + 1
        return seen

    first, second = _staged_equals_eager(program, np.int32(3))
    assert first == np.float32(1.0 + 2.0 + 3.0)
    assert second == np.float32(4.0 + 5.0 + 6.0)


def test_read_before_assign_does_not_warn():
    v = Variable(np.float32(5.0), name="no_warn_rba")

    @repro.function
    def step(x):
        before = v.value()
        v.assign_add(x)
        return before

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = step(np.float32(1.0))
    assert np.asarray(out) == np.float32(5.0)
    assert v.numpy() == np.float32(6.0)


def test_assign_result_tensor_is_the_documented_escape_hatch():
    v = Variable(np.float32(1.0), name="warn_escape")

    @repro.function
    def step(x):
        updated = v.assign_add(x)  # the assign op's own output
        return updated

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = step(np.float32(2.0))
    assert np.asarray(out) == np.float32(3.0)
