"""A conversion lives as long as a function converted from it.

The conversion cache holds code objects weakly, a source map and a
generated file are dropped with the conversion that owns them, and
generated modules are never registered in ``sys.modules``; the user's
file is read through ``linecache`` but not left in it, and a source map
is built only when an error needs it; so converting fresh code again and
again (a respawned worker, a benchmark's cold calls) grows neither the
process nor the disk.
"""

import ast
import gc
import linecache
import os
import sys
import types

import pytest

import repro.autograph as ag
from repro.autograph import errors
from repro.autograph.impl import api
from repro.autograph.pyct import origin_info

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


# -- linecache: a conversion reads source through it and leaves it as found --


def test_converting_fresh_code_adds_no_linecache_entry(tmp_path):
    fn, path = _fresh(tmp_path, 4, SOURCE)
    assert str(path) not in linecache.cache
    assert ag.to_graph(fn)(3) == 6
    assert str(path) not in linecache.cache


def test_a_linecache_entry_that_was_there_is_kept(tmp_path):
    fn, path = _fresh(tmp_path, 5, SOURCE)
    linecache.getlines(str(path))
    entry = linecache.cache[str(path)]
    ag.to_graph(fn)
    assert linecache.cache[str(path)] is entry


def test_errors_map_to_user_code_without_a_linecache_entry(tmp_path):
    fn, path = _fresh(tmp_path, 6, RAISING)
    converted = ag.to_graph(fn)
    assert str(path) not in linecache.cache

    with pytest.raises(ZeroDivisionError) as info:
        converted(0)
    notes = errors.rewrite_error(info.value).__notes__
    assert f'File "{path}", line 9, in divide' in notes[0]
    assert "return y // x" in notes[0]


# -- the source map is built when an error first needs it -------------------


def _reachable(root, depth):
    """Objects reachable from ``root`` in ``depth`` steps of
    ``gc.get_referents``, not looking inside code: functions, classes and
    modules lead to everything."""
    seen, frontier = [], [root]
    for _ in range(depth):
        frontier = [
            obj for parent in frontier for obj in gc.get_referents(parent)
            if not isinstance(obj, (types.FunctionType, types.ModuleType,
                                    type, types.BuiltinFunctionType))]
        seen.extend(frontier)
    return seen


def test_a_conversion_registers_a_thunk_that_holds_no_tree(tmp_path):
    fn, path = _fresh(tmp_path, 7, RAISING)
    converted = ag.to_graph(fn)
    entry = errors._SOURCE_MAPS[converted.__code__.co_filename]
    assert callable(entry) and not isinstance(entry, dict)
    reachable = _reachable(entry, 4)
    assert any(isinstance(obj, origin_info.OriginInfo) for obj in reachable)
    assert not any(isinstance(obj, ast.AST) for obj in reachable)


def test_the_first_rewrite_builds_the_map(tmp_path):
    fn, path = _fresh(tmp_path, 8, RAISING)
    converted = ag.to_graph(fn)
    generated = converted.__code__.co_filename
    with pytest.raises(ZeroDivisionError) as info:
        converted(0)
    assert callable(errors._SOURCE_MAPS[generated])

    notes = errors.rewrite_error(info.value).__notes__
    assert f'File "{path}", line 11, in divide' in notes[0]
    source_map = errors._SOURCE_MAPS[generated]
    assert isinstance(source_map, dict)
    assert {origin.lineno for origin in source_map.values()} >= {10, 11}
