"""A library warning names the user's line, on every call path.

A fixed ``stacklevel`` names whichever library frame sits that deep, and
the depth differs per backend; each warning site here must name this
file instead.
"""

import itertools
import warnings

import numpy as np
import pytest

import repro
from repro.framework import ops

BACKENDS = ["graph", "lantern"]


def _no_source(_ids=itertools.count()):
    """A function AutoGraph cannot convert (it has no source), with a
    code object no earlier call made: AutoGraph remembers a failed
    conversion by code object, and equal code objects compare equal."""
    ns = {}
    exec(f"def no_source(x):\n    return x * {2.0 + next(_ids)}\n", ns)
    return ns["no_source"]


def _warnings_of(call, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(*args)
    return caught


def _the_one(caught, text):
    found = [w for w in caught if text in str(w.message)]
    assert len(found) == 1, [str(w.message) for w in caught]
    return found[0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_tracing_an_unconvertible_function_warns_at_the_call(backend):
    fn = repro.function(_no_source(), backend=backend)
    caught = _warnings_of(fn, np.ones(3, np.float32))
    w = _the_one(caught, "will trace it unconverted")
    assert w.filename == __file__


@pytest.mark.parametrize("backend", BACKENDS)
def test_calling_an_unconvertible_function_warns_at_the_call(backend):
    helper = _no_source()

    def outer(x):
        return ops.add(helper(x), 1.0)

    fn = repro.function(outer, backend=backend)
    caught = _warnings_of(fn, np.ones(3, np.float32))
    w = _the_one(caught, "will run it as-is")
    assert w.filename == __file__


def test_the_retrace_warning_names_the_call():
    """Only graph signatures relax shapes after the retrace limit, so
    only the graph backend warns about retracing."""
    fn = repro.function(lambda x: x + 1.0, retrace_limit=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for n in range(1, 5):
            fn(np.ones((n,), np.float32))
    w = _the_one(caught, "traced 3 times")
    assert w.filename == __file__
