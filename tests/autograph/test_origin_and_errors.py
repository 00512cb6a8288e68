"""Unit tests: origin info / source maps and error rewriting (App. B)."""

import ast

import pytest

from repro.autograph import errors
from repro.autograph.pyct import anno, origin_info, parser


def located_fn(x):
    y = x + 1
    if y > 0:
        y = y * 2
    return y


class TestOriginInfo:
    def test_resolve_annotates_lines(self):
        node, source = parser.parse_entity(located_fn)
        import inspect

        filename = inspect.getsourcefile(located_fn)
        offset = located_fn.__code__.co_firstlineno - 1
        origin_info.resolve(node, source, filename, "located_fn", offset)

        if_node = node.body[1]
        origin = anno.getanno(if_node, anno.Basic.ORIGIN)
        assert origin is not None
        assert origin.filename == filename
        assert origin.function_name == "located_fn"
        assert origin.source_line == "if y > 0:"
        # Absolute line number points into this test file.
        assert origin.lineno == offset + 3

    def test_source_map_by_parallel_walk(self):
        node, source = parser.parse_entity(located_fn)
        origin_info.resolve(node, source, "orig.py", "located_fn")
        generated = parser.unparse(node)
        smap = origin_info.create_source_map(node, generated, "gen.py")
        assert smap, "source map should not be empty"
        origins = set(o.source_line for o in smap.values())
        assert "if y > 0:" in origins

    def test_frame_tuple(self):
        info = origin_info.OriginInfo("f.py", "fn", 3, 0, "x = 1")
        assert info.as_frame() == ("f.py", 3, "fn", "x = 1")


class TestErrorRewriting:
    def test_register_and_rewrite(self):
        # Simulate: generated file with a mapped line raising an error.
        source = "def boom():\n    raise ValueError('inner')\n"
        from repro.autograph.pyct import loader

        module, filename = loader.load_source(source)
        info = origin_info.OriginInfo("user_code.py", "user_fn", 99, 0,
                                      "user_line()")
        errors.register_source_map(filename, {(filename, 2): info})

        with pytest.raises(ValueError) as excinfo:
            module.boom()
        rewritten = errors.rewrite_error(excinfo.value)
        notes = getattr(rewritten, "__notes__", [])
        assert any("user_code.py" in n and "99" in n for n in notes)
        assert any("user_line()" in n for n in notes)
        loader.discard(filename)

    def test_unmapped_error_untouched(self):
        try:
            raise KeyError("plain")
        except KeyError as e:
            out = errors.rewrite_error(e)
        assert not getattr(out, "__notes__", [])

    def test_no_duplicate_notes(self):
        source = "def boom2():\n    raise ValueError('x')\n"
        from repro.autograph.pyct import loader

        module, filename = loader.load_source(source)
        info = origin_info.OriginInfo("u.py", "fn", 1, 0, "line")
        errors.register_source_map(filename, {(filename, 2): info})
        with pytest.raises(ValueError) as excinfo:
            module.boom2()
        errors.rewrite_error(excinfo.value)
        errors.rewrite_error(excinfo.value)
        notes = getattr(excinfo.value, "__notes__", [])
        assert len(notes) == 1
        loader.discard(filename)


class TestErrorClassification:
    """The three error steps of Appendix B are distinct types."""

    def test_conversion_error(self):
        import repro.autograph as ag

        ns = {}
        exec("def nosrc():\n    return 1\n", ns)
        with pytest.raises(ag.ConversionError):
            ag.to_graph(ns["nosrc"])

    def test_staging_error(self):
        import repro.autograph as ag
        from repro import framework as fw
        from repro.framework import ops

        def bad(x):
            if x > 0:
                y = 1.0
            else:
                y = "string"  # inconsistent dtype across branches
            return y

        converted = ag.to_graph(bad)
        g = fw.Graph()
        with g.as_default():
            p = ops.placeholder(fw.float32, [])
            with pytest.raises(fw.StagingError):
                converted(p)

    def test_runtime_error(self):
        import repro.autograph as ag
        from repro import framework as fw
        from repro.framework import ops

        def divider(x):
            # Appendix B's runtime-error example: invalid op at run time.
            return ops.get_item(x, 10)

        converted = ag.to_graph(divider)
        g = fw.Graph()
        with g.as_default():
            p = ops.placeholder(fw.float32, [2])
            out = converted(p)
        with pytest.raises(fw.ExecutionError):
            fw.Session(g).run(out, {p: [1.0, 2.0]})
