"""Unit tests: pyct utilities — anno, qual_names, parser, printer,
unparsing, templates, ast_util (the Appendix C toolkit)."""

import ast
import warnings

import pytest

from repro.autograph.pyct import (
    anno,
    ast_util,
    origin_info,
    parser,
    pretty_printer,
    qual_names,
    templates,
)
from repro.autograph.pyct.qual_names import QN


class TestAnno:
    def test_set_get(self):
        node = ast.parse("a = 1").body[0]
        anno.setanno(node, anno.Basic.QN, "value")
        assert anno.hasanno(node, anno.Basic.QN)
        assert anno.getanno(node, anno.Basic.QN) == "value"

    def test_default(self):
        node = ast.parse("a = 1").body[0]
        assert anno.getanno(node, anno.Basic.QN, default=42) == 42

    def test_required_raises(self):
        node = ast.parse("a = 1").body[0]
        with pytest.raises(KeyError):
            anno.getanno(node, anno.Basic.QN, required=True)

    def test_del(self):
        node = ast.parse("a = 1").body[0]
        anno.setanno(node, anno.Basic.QN, 1)
        anno.delanno(node, anno.Basic.QN)
        assert not anno.hasanno(node, anno.Basic.QN)

    def test_copy(self):
        a = ast.parse("a = 1").body[0]
        b = ast.parse("b = 2").body[0]
        anno.setanno(a, anno.Basic.QN, "x")
        anno.copyanno(a, b, anno.Basic.QN)
        assert anno.getanno(b, anno.Basic.QN) == "x"


class TestQualNames:
    def test_simple(self):
        qn = QN("a")
        assert qn.is_simple
        assert str(qn) == "a"

    def test_attribute(self):
        qn = QN(QN("a"), attr="b")
        assert qn.is_composite
        assert str(qn) == "a.b"
        assert str(qn.parent) == "a"

    def test_subscript(self):
        qn = QN(QN("a"), subscript=0)
        assert str(qn) == "a[0]"

    def test_support_set(self):
        qn = QN(QN(QN("a"), attr="b"), attr="c")
        assert {str(s) for s in qn.support_set()} == {"a"}

    def test_owner_set(self):
        qn = QN(QN("a"), attr="b")
        assert {str(s) for s in qn.owner_set} == {"a", "a.b"}

    def test_equality_hash(self):
        assert QN("x") == QN("x")
        assert QN(QN("a"), attr="b") == QN(QN("a"), attr="b")
        assert len({QN("x"), QN("x"), QN("y")}) == 2

    def test_resolve_annotates(self):
        node = parser.parse_str("c = a.b")
        qual_names.resolve(node)
        value = node.body[0].value
        assert str(anno.getanno(value, anno.Basic.QN)) == "a.b"

    def test_resolve_literal_subscript(self):
        node = parser.parse_str("x = d[0]")
        qual_names.resolve(node)
        value = node.body[0].value
        assert str(anno.getanno(value, anno.Basic.QN)) == "d[0]"

    def test_ast_roundtrip(self):
        qn = QN(QN("a"), attr="b")
        assert ast.unparse(qn.ast()) == "a.b"


def _sample_fn(x, y=1):
    """Docstring."""
    if x > 0:
        return x + y
    return -x


def _every_construct(x, n, items):
    """Every pass has something to rewrite."""
    out = []
    total = 0
    i = 0
    while i < n:
        i += 1
        if i > 5:
            break
        if i == 2:
            continue
        total = total + (i if x > 0 else -i)
    for item in items:
        if not item or total > 100:
            return total
        out.append(item)
    items[0] = out[-1]
    items[1] += 1
    assert total >= 0, "negative"
    return total + len(out)


class TestParser:
    def test_parse_entity(self):
        node, source = parser.parse_entity(_sample_fn)
        assert isinstance(node, ast.FunctionDef)
        assert node.name == "_sample_fn"
        assert "if x > 0" in source

    def test_parse_nested_function(self):
        def nested(a):
            return a * 2

        node, _ = parser.parse_entity(nested)
        assert node.name == "nested"

    def test_parse_lambda(self):
        fn = lambda a, b: a + b  # noqa: E731
        node, _ = parser.parse_entity(fn)
        assert isinstance(node, ast.Lambda)

    def test_parse_str(self):
        module = parser.parse_str("  a = 1\n  b = 2\n")
        assert len(module.body) == 2

    def test_parse_expression(self):
        expr = parser.parse_expression("a + b")
        assert isinstance(expr, ast.BinOp)

    def test_parse_expression_rejects_statements(self):
        with pytest.raises(ValueError):
            parser.parse_expression("a = 1")

    def test_unparse_roundtrip(self):
        node, source = parser.parse_entity(_sample_fn)
        regenerated = parser.unparse(node)
        reparsed = ast.parse(regenerated)
        assert isinstance(reparsed.body[0], ast.FunctionDef)

    def test_no_source_raises(self):
        exec_ns = {}
        exec("def dynamic_fn(): return 1", exec_ns)
        with pytest.raises(parser.ConversionSourceError):
            parser.parse_entity(exec_ns["dynamic_fn"])


class TestPrettyPrinter:
    def test_matches_paper_format(self):
        node = parser.parse_str("a = b")
        out = pretty_printer.fmt(node)
        assert "Module:" in out
        assert "Assign:" in out
        assert 'id=\'a\'' in out or 'id="a"' in out.replace("'", '"')

    def test_nested_structure_indented(self):
        node = parser.parse_str("x = f(1)")
        out = pretty_printer.fmt(node)
        assert "Call:" in out
        assert out.count("|") > 3


class TestUnparse:
    def test_unparse(self):
        node = parser.parse_str("a = b + 1")
        assert parser.unparse(node).strip() == "a = b + 1"

    def test_paper_example_small_modification(self):
        # Appendix C: parse, tweak the AST, unparse.
        node = parser.parse_str("a = b")
        node.body[0].value.id = "c"
        assert parser.unparse(node).strip() == "a = c"


class TestTemplates:
    def test_name_substitution(self):
        nodes = templates.replace("target = value + 1", target="x", value="y")
        assert parser.unparse(nodes).strip() == "x = y + 1"

    def test_expression_substitution(self):
        expr = parser.parse_expression("a * b")
        nodes = templates.replace("out = expr_", expr_=expr)
        assert parser.unparse(nodes).strip() == "out = a * b"

    def test_statement_splice(self):
        body = parser.parse_str("a = 1\nb = 2").body
        nodes = templates.replace(
            """
            def fn():
                body_
            """,
            body_=body,
        )
        text = parser.unparse(nodes)
        assert "a = 1" in text and "b = 2" in text

    def test_paper_appendix_c_example(self):
        import textwrap

        new_body = parser.parse_str(textwrap.dedent("""
            a = x
            b = y
            return a + b
        """)).body
        nodes = templates.replace(
            """
            def fn(args):
                body
            """,
            fn="my_function",
            args=("x", "y"),
            body=new_body,
        )
        text = parser.unparse(nodes)
        assert "def my_function(x, y):" in text
        assert "return a + b" in text

    def test_store_context_fixed(self):
        target = parser.parse_expression("(a, b)")
        nodes = templates.replace("target_ = 1, 2", target_=target)
        compiled = compile(ast.Module(body=nodes, type_ignores=[]),
                           "<test>", "exec")
        ns = {}
        exec(compiled, ns)
        assert ns["a"] == 1 and ns["b"] == 2

    def test_replace_as_expression(self):
        expr = templates.replace_as_expression("f(arg_)", arg_="x")
        assert parser.unparse(expr).strip() == "f(x)"

    def test_replace_as_expression_rejects_statements(self):
        with pytest.raises(ValueError):
            templates.replace_as_expression("a = 1")

    def test_function_name_must_be_string(self):
        with pytest.raises(ValueError):
            templates.replace("def fn(): pass", fn=parser.parse_expression("a+b"))

    # -- the splice contract: a spliced node is a structural copy -----------

    def test_spliced_nodes_are_new_objects(self):
        expr = parser.parse_expression("a + b")
        out = templates.replace_as_expression("f(x_)", x_=expr)
        out.args[0].left.id = "changed"
        assert parser.unparse(expr).strip() == "a + b"
        assert parser.unparse(out).strip() == "f(changed + b)"

    def test_splice_keeps_origin_in_a_dict_of_its_own(self):
        stmt = parser.parse_str("y = 1").body[0]
        origin = origin_info.OriginInfo("user.py", "fn", 7, 0, "y = 1")
        anno.setanno(stmt, anno.Basic.ORIGIN, origin)
        (out,) = templates.replace("body_", body_=[stmt])
        assert out is not stmt
        assert anno.getanno(out, anno.Basic.ORIGIN) is origin
        anno.setanno(out, anno.Basic.QN, "q")
        assert not anno.hasanno(stmt, anno.Basic.QN)

    def test_placeholder_used_twice_yields_distinct_subtrees(self):
        expr = parser.parse_expression("a.b[0]")
        first, second = templates.replace_as_expression(
            "f(x_, x_)", x_=expr).args

        def nodes(tree):
            # Contexts and operators are shared singletons, as in parse.
            return {id(n) for n in ast.walk(tree) if n._fields}

        assert not nodes(first) & nodes(second)
        assert not (nodes(first) | nodes(second)) & nodes(expr)

    def test_no_deprecation_warnings(self):
        # Python 3.13 deprecates AST constructors that leave out fields.
        from repro.autograph.impl import conversion

        expected = conversion.convert_entity(
            _every_construct, source=True).source
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert conversion.convert_entity(
                _every_construct, source=True).source == expected
            assert conversion.generated_source(_every_construct) == expected
            ast_util.copy_clean(parser.parse_entity(_every_construct)[0])


class TestAstUtil:
    def test_rename_simple(self):
        node = parser.parse_str("y = x + x")
        ast_util.rename_symbols(node, {"x": "z"})
        assert parser.unparse(node).strip() == "y = z + z"

    def test_rename_respects_nested_scope(self):
        src = "y = x\ndef f(x):\n    return x\nz = x"
        node = parser.parse_str(src)
        ast_util.rename_symbols(node, {"x": "w"})
        out = parser.unparse(node)
        assert "y = w" in out
        assert "return x" in out  # param shadows: not renamed
        assert "z = w" in out

    def test_rename_descends_into_free_uses(self):
        src = "def f(a):\n    return a + x"
        node = parser.parse_str(src)
        ast_util.rename_symbols(node, {"x": "q"})
        assert "a + q" in parser.unparse(node)

    def test_rename_lambda_params_shadow(self):
        node = parser.parse_str("g = lambda x: x + y")
        ast_util.rename_symbols(node, {"x": "z", "y": "w"})
        out = parser.unparse(node)
        assert "lambda x: x + w" in out

    def test_collect_bound_names(self):
        node = parser.parse_str(
            "def f(a, b=1, *args, **kw):\n    c = 2\n    def g(): pass\n"
        ).body[0]
        bound = ast_util.collect_bound_names(node)
        assert {"a", "b", "args", "kw", "c", "g"} <= bound

    def test_copy_clean_strips_annotations(self):
        node = parser.parse_str("a = 1")
        anno.setanno(node.body[0], anno.Basic.QN, "x")
        clean = ast_util.copy_clean(node)
        assert not anno.hasanno(clean.body[0], anno.Basic.QN)
        assert anno.hasanno(node.body[0], anno.Basic.QN)
