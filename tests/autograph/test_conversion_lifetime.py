"""A conversion lives as long as a function converted from it.

The conversion cache holds code objects weakly, a source map and a
generated file are dropped with the conversion that owns them, and
generated modules are never registered in ``sys.modules``; so converting
fresh code again and again (a respawned worker, a benchmark's cold calls)
grows neither the process nor the disk.
"""

import gc
import os
import sys

import pytest

import repro.autograph as ag
from repro.autograph import errors
from repro.autograph.impl import api

SOURCE = """\
def scaled(x):
    if x > 0:
        x = x * 2
    return x
"""

RAISING = """\
def divide(x):
    y = x + 1
    return y // x
"""


def _fresh(tmp_path, serial, source):
    """The function ``source`` defines, executed from its own file with
    ``serial`` blank lines in front: a different first line makes a code
    object (compared by value) the conversion cache has not seen."""
    path = tmp_path / f"fresh_{serial}.py"
    path.write_text("\n" * serial + source)
    namespace = {}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    (fn,) = (v for k, v in namespace.items() if k != "__builtins__")
    return fn, path


def _live():
    gc.collect()
    return (len(api._CONVERSION_CACHE), len(errors._SOURCE_MAPS),
            sum(1 for name in sys.modules
                if name.startswith("repro_generated_")))


def test_conversions_are_freed_with_their_functions(tmp_path):
    before = _live()
    functions = [_fresh(tmp_path, i, SOURCE)[0] for i in range(1, 51)]
    converted = [ag.to_graph(fn) for fn in functions]
    assert [c(3) for c in converted] == [6] * 50
    cached, maps, modules = _live()
    assert (cached, maps) == (before[0] + 50, before[1] + 50)
    assert modules == before[2]
    generated = [c.__code__.co_filename for c in converted]
    assert all(os.path.exists(path) for path in generated)

    del functions, converted
    assert _live() == before
    assert not any(os.path.exists(path) for path in generated)


def test_a_live_conversion_still_maps_errors_to_user_code(tmp_path):
    fn, path = _fresh(tmp_path, 3, RAISING)
    converted = ag.to_graph(fn)
    del fn
    gc.collect()

    with pytest.raises(ZeroDivisionError) as info:
        converted(0)
    notes = errors.rewrite_error(info.value).__notes__
    assert f'File "{path}", line 6, in divide' in notes[0]
    assert "return y // x" in notes[0]
