"""Unit tests: origin info, converted code on user lines, and error
rewriting (App. B)."""

import dis
import inspect

import pytest

import repro.autograph as ag
from repro.autograph import errors
from repro.autograph.impl import api
from repro.autograph.pyct import anno, origin_info, parser


def located_fn(x):
    y = x + 1
    if y > 0:
        y = y * 2
    return y


def raising_fn(x):
    y = x + 1
    if y > 0:
        y = y // x
    return y


def _lines_of(fn):
    first = fn.__code__.co_firstlineno
    return first, first + len(inspect.getsource(fn).splitlines()) - 1


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

    def test_converted_code_runs_on_user_lines(self):
        converted = api.converted_function(located_fn)
        first, last = _lines_of(located_fn)
        codes = [converted.__code__] + [
            c for c in converted.__code__.co_consts
            if inspect.iscode(c)]
        assert len(codes) > 1  # the branch functions of the ``if``
        for code in codes:
            assert code.co_filename == __file__
            lines = {line for _, line in dis.findlinestarts(code)
                     if line is not None}
            assert lines and all(first <= n <= last for n in lines)

    def test_frame_tuple(self):
        info = origin_info.OriginInfo("f.py", "fn", 3, 0, "x = 1")
        assert info.as_frame() == ("f.py", 3, "fn", "x = 1")


class TestErrorRewriting:
    def _raise(self):
        converted = api.converted_function(raising_fn)
        with pytest.raises(ZeroDivisionError) as excinfo:
            converted(0)
        return excinfo.value

    def test_traceback_names_the_user_file_and_line(self):
        error = self._raise()
        tb = error.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        first, _ = _lines_of(raising_fn)
        assert tb.tb_frame.f_code.co_filename == __file__
        assert tb.tb_lineno == first + 3  # ``y = y // x``

    def test_note_lists_each_converted_frame_once(self):
        error = errors.rewrite_error(self._raise())
        (note,) = error.__notes__
        first, _ = _lines_of(raising_fn)
        failing = f'File "{__file__}", line {first + 3}, in raising_fn'
        assert note.count(failing) == 1
        assert note.count("y = y // x") == 1
        # The frame that ran the ``if``, and the branch that raised:
        # both in the user's function.
        assert note.count('File "') == 2
        assert f"line {first + 2}, in raising_fn" in note

    def test_unmapped_error_untouched(self):
        try:
            raise KeyError("plain")
        except KeyError as e:
            out = errors.rewrite_error(e)
        assert not getattr(out, "__notes__", [])

    def test_no_duplicate_notes(self):
        error = self._raise()
        errors.rewrite_error(error)
        errors.rewrite_error(error)
        assert len(error.__notes__) == 1


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
