"""A conversion lives as long as a function converted from it.

The conversion cache holds code objects weakly, the table that
recognises converted code drops a conversion's code objects with it, no
file is written and no module registered; the user's file is read
through ``linecache`` but not left in it, and errors name the user's
file and line without any map; so converting fresh code again and again
(a respawned worker, a benchmark's cold calls) grows neither the process
nor the disk.
"""

import ast
import gc
import linecache
import os
import sys
import tempfile
import types

import pytest

import repro.autograph as ag
from repro.autograph import errors
from repro.autograph.impl import api, conversion

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


def _tables():
    """The size of every module-level table a conversion could leave an
    entry in."""
    gc.collect()
    return {
        "conversion cache": len(api._CONVERSION_CACHE),
        "failed conversions": len(api._FAILED_CONVERSIONS),
        "warned": len(api._WARNED),
        "converted codes": len(conversion._CONVERTED_CODES),
        "linecache": len(linecache.cache),
        "sys.modules": len(sys.modules),
    }


def test_conversions_are_freed_with_their_functions(tmp_path, monkeypatch):
    # ``tempfile`` writes here during the test: it must stay empty.
    temp_dir = tmp_path / "temp"
    temp_dir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp_dir))
    for source in (False, True):
        _convert_fifty_and_free(tmp_path, source)
    assert os.listdir(temp_dir) == []


def _convert_fifty_and_free(tmp_path, source):
    functions = [_fresh(tmp_path, i + 100 * source, SOURCE)[0]
                 for i in range(1, 51)]
    before = _tables()
    converted = [api.converted_function(fn, source=source)
                 for fn in functions]
    assert [c(3) for c in converted] == [6] * 50
    during = _tables()
    assert during["conversion cache"] == before["conversion cache"] + 50
    assert during["converted codes"] > before["converted codes"]
    assert during["sys.modules"] == before["sys.modules"]
    # The generated source is kept, for inspect, only while shown.
    assert during["linecache"] == before["linecache"] + 50 * source
    assert all(c.__code__.co_filename == fn.__code__.co_filename
               for c, fn in zip(converted, functions))

    del functions, converted
    assert _tables() == before


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


# -- no tree is kept, and converted code is known by identity ----------------


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


@pytest.mark.parametrize("source", [False, True])
def test_a_conversion_holds_no_tree(tmp_path, source):
    fn, _ = _fresh(tmp_path, 7, RAISING)
    record = api.converted_function(fn, source=source).__ag_conversion__
    assert isinstance(record.source, str) == source
    assert not any(isinstance(obj, ast.AST)
                   for obj in _reachable(record, 4))


NESTED = """\
def outer(x):
    def inner(y):
        return y + 1
    return inner
"""


def test_a_converted_inner_function_is_not_converted_again(
        tmp_path, monkeypatch):
    fn, _ = _fresh(tmp_path, 8, NESTED)
    converted = api.converted_function(fn)
    calls = []
    real = conversion.convert_entity
    monkeypatch.setattr(conversion, "convert_entity",
                        lambda f, *a: calls.append(f) or real(f, *a))

    inner = converted(0)
    assert conversion.converted_from(inner.__code__) == "inner"
    assert not api._should_convert(inner)
    assert ag.converted_call(inner, (1,)) == 2
    assert calls == []
    # The unconverted original's inner function is user code, although
    # its code was compiled from the same file and lines.
    assert api._should_convert(fn(0))
