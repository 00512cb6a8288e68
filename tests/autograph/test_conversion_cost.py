"""What one conversion costs, in counts rather than timings.

Converting the benchmark corpus (``bench/programs/``) twice pins two
counts that a slower cold path would move:

- templates are parsed once per process, so the second pass parses none;
- each conversion walks the whole tree a fixed number of times: the
  passes (ternaries and logical expressions share one walk, as do breaks
  and continues), the two analyses that walk the tree, the return
  routing of the function wrapper, and three plain walks (origins in,
  CFG roots, and placing every node on its origin's line before the
  tree is compiled).

It also pins that a conversion writes no file: the converted tree is
compiled directly.
"""

import builtins
import importlib.util
import os
import pathlib

import pytest

from repro.autograph.impl import conversion
from repro.autograph.pyct import ast_util, origin_info, parser, templates, transformer

PROGRAMS = sorted(
    p for p in (pathlib.Path(__file__).resolve().parents[2]
                / "bench" / "programs").glob("*.py")
    if p.name != "__init__.py")

# The walker classes that walk a whole converted function, in pass order.
WALKERS = [
    "_DirectivesTransformer",      # directives
    "_ReturnTransformer",          # return_statements
    "_LoopExitTransformer",        # break_statements (+ continues)
    "_AssertTransformer",          # asserts
    "_ListTransformer",            # lists
    "_SliceTransformer",           # slices
    "_CallTreeTransformer",        # call_trees
    "_Resolver",                   # control_flow: qualified names
    "_Analyzer",                   # control_flow: activity
    "_ControlFlowTransformer",     # control_flow
    "_LogicalTransformer",         # logical_expressions (+ ternaries)
    "_ReturnRouter",               # function_wrappers
]


def _program(path):
    spec = importlib.util.spec_from_file_location(
        f"conversion_cost_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.program


@pytest.fixture
def counted(monkeypatch):
    """Counts template parses and the whole-tree walks of each
    conversion; yields ``(parses, walks)``: a one-element list and a
    list of per-conversion walk lists."""
    parses = [0]
    walks = []
    root = []

    real_parse_str = parser.parse_str

    def parse_str(src):
        parses[0] += 1
        return real_parse_str(src)

    real_parse_entity = parser.parse_entity

    def parse_entity(entity):
        node, source = real_parse_entity(entity)
        root[:] = [node]
        walks.append([])
        return node, source

    def at_root(node):
        return root and (node is root[0] or node is root[0].body)

    def counting(method):
        def wrapper(self, node):
            walker = (type(self).__name__, id(self))
            if at_root(node) and walker not in walks[-1]:
                walks[-1].append(walker)
            return method(self, node)
        return wrapper

    def counting_function(name, function):
        def wrapper(node, *args):
            # Nodes are located on the finished tree, the converted
            # function inside its ``ag__outer`` factory.
            if at_root(node) or getattr(node, "name", None) == "ag__outer":
                walks[-1].append((name, None))
            return function(node, *args)
        return wrapper

    monkeypatch.setattr(parser, "parse_str", parse_str)
    monkeypatch.setattr(parser, "parse_entity", parse_entity)
    monkeypatch.setattr(transformer.Base, "visit",
                        counting(transformer.Base.visit))
    monkeypatch.setattr(transformer.Base, "visit_block",
                        counting(transformer.Base.visit_block))
    monkeypatch.setattr(ast_util, "walk",
                        counting_function("walk", ast_util.walk))
    monkeypatch.setattr(origin_info, "resolve",
                        counting_function("resolve", origin_info.resolve))
    monkeypatch.setattr(origin_info, "locate",
                        counting_function("locate", origin_info.locate))
    yield parses, walks


def test_corpus_conversions_parse_no_template_twice_and_walk_a_fixed_count(
        counted):
    parses, walks = counted
    programs = [_program(path) for path in PROGRAMS]
    assert len(programs) == 13

    templates._parse.cache_clear()
    for program in programs:
        conversion.convert_entity(program)
    first_pass = parses[0]
    assert first_pass > 0
    # Each template string is parsed at most once.
    assert first_pass == templates._parse.cache_info().misses

    parses[0] = 0
    del walks[:]
    for program in programs:
        conversion.convert_entity(program)
    assert parses[0] == 0

    assert len(walks) == 13
    for per_conversion in walks:
        names = [name for name, _ in per_conversion]
        assert names.count("resolve") == 1
        assert names.count("walk") == 1
        assert names.count("locate") == 1
        assert [n for n in names
                if n not in ("resolve", "walk", "locate")] == WALKERS
        assert len(per_conversion) == 15


_WRITE_FLAGS = os.O_WRONLY | os.O_RDWR | os.O_CREAT | os.O_APPEND


def test_a_conversion_writes_no_file(monkeypatch, tmp_path):
    """Every open for writing, through ``open`` or ``os.open`` (which
    ``tempfile`` uses), is counted while the corpus converts."""
    writes = []
    real_open, real_os_open = builtins.open, os.open

    def counting_open(file, mode="r", *args, **kwargs):
        if set(mode) & set("wax+"):
            writes.append(file)
        return real_open(file, mode, *args, **kwargs)

    def counting_os_open(path, flags, *args, **kwargs):
        if flags & _WRITE_FLAGS:
            writes.append(path)
        return real_os_open(path, flags, *args, **kwargs)

    programs = [_program(path) for path in PROGRAMS]
    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(os, "open", counting_os_open)
    for program in programs:
        converted = conversion.instantiate(
            conversion.convert_entity(program), program)
        assert converted.__code__.co_filename == program.__code__.co_filename
    assert writes == []
