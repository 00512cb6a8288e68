"""Unit tests for individual conversion passes (§7.2).

Each test drives one pass (plus its prerequisite analyses) over a small
snippet and checks the structural result, mirroring how the paper
describes per-pass behavior.
"""

import ast
import textwrap

import pytest

from repro.autograph import converters
from repro.autograph.pyct import anno, parser, transformer

_PASS_INDEX = {p.__name__.rsplit(".", 1)[-1]: p for p in converters.PASS_ORDER}


def _convert(src, *pass_names):
    node = parser.parse_str(textwrap.dedent(src)).body[0]
    info = transformer.EntityInfo("test", src, "<test>", {})
    ctx = transformer.Context(info)
    for name in pass_names:
        node = _PASS_INDEX[name].transform(node, ctx)
    return node, parser.unparse(node)


class TestDirectives:
    def test_set_element_type_rewritten(self):
        _, out = _convert(
            """
            def f():
                l = []
                ag.set_element_type(l, float32)
                return l
            """,
            "directives",
        )
        assert "ag__.new_list_of_type(l, float32)" in out
        assert "set_element_type" not in out

    def test_loop_options_annotated_and_removed(self):
        node, out = _convert(
            """
            def f(n):
                i = 0
                while i < n:
                    ag.set_loop_options(maximum_iterations=10)
                    i += 1
            """,
            "directives",
        )
        assert "set_loop_options" not in out
        loop = node.body[1]
        opts = anno.getanno(loop, anno.Basic.DIRECTIVES)
        assert "maximum_iterations" in opts

    def test_loop_options_outside_loop_raises(self):
        with pytest.raises(ValueError, match="inside a loop"):
            _convert(
                """
                def f():
                    ag.set_loop_options(maximum_iterations=1)
                """,
                "directives",
            )


class TestReturnLowering:
    def test_single_trailing_return(self):
        _, out = _convert(
            """
            def f(x):
                return x + 1
            """,
            "return_statements",
        )
        assert "do_return" in out
        assert out.strip().endswith("return retval_")

    def test_conditional_return_guarded(self):
        _, out = _convert(
            """
            def f(x):
                if x:
                    return 1
                y = 2
                return y
            """,
            "return_statements",
        )
        assert "if not do_return" in out

    def test_return_in_loop_breaks(self):
        node, out = _convert(
            """
            def f(xs):
                for x in xs:
                    if x:
                        return x
                return None
            """,
            "return_statements",
        )
        assert "break" in out

    def test_no_return_untouched(self):
        _, out = _convert(
            """
            def f(x):
                y = x + 1
            """,
            "return_statements",
        )
        assert "do_return" not in out


class TestBreakLowering:
    def test_while_break_flag(self):
        _, out = _convert(
            """
            def f(n):
                while n > 0:
                    if n == 3:
                        break
                    n -= 1
            """,
            "break_statements",
        )
        assert "break_ = False" in out
        assert "break_ = True" in out
        assert "break" not in out.replace("break_", "")
        assert "not break_ and" in out

    def test_for_break_annotates_extra_test(self):
        node, out = _convert(
            """
            def f(xs):
                for x in xs:
                    if x:
                        break
            """,
            "break_statements",
        )
        # First statement is now the flag init; loop follows.
        loop = next(s for s in ast.walk(node) if isinstance(s, ast.For))
        extra = anno.getanno(loop, anno.Basic.EXTRA_LOOP_TEST)
        assert extra is not None
        assert "not break_" in parser.unparse(ast.Expression(body=extra)) or \
            "not break_" in ast.unparse(extra)

    def test_loop_else_becomes_flag_check(self):
        _, out = _convert(
            """
            def f(n):
                while n > 0:
                    if n == 1:
                        break
                    n -= 1
                else:
                    n = -1
                return n
            """,
            "break_statements",
        )
        assert "if not break_:" in out

    def test_nested_loops_get_separate_flags(self):
        _, out = _convert(
            """
            def f(xs):
                while True:
                    for x in xs:
                        if x:
                            break
                    break
            """,
            "break_statements",
        )
        assert "break__1" in out  # two distinct flags


class TestContinueLowering:
    def test_continue_removed(self):
        _, out = _convert(
            """
            def f(n):
                total = 0
                while n > 0:
                    n -= 1
                    if n == 2:
                        continue
                    total += n
                return total
            """,
            # The break pass lowers continues in the same walk.
            "break_statements",
        )
        assert "continue" not in out.replace("continue_", "")
        assert "continue_ = False" in out
        assert "continue_ = True" in out
        assert "if not continue_:" in out


class TestAsserts:
    def test_assert_becomes_functional(self):
        _, out = _convert(
            """
            def f(x):
                assert x > 0
            """,
            "asserts",
        )
        assert "ag__.assert_stmt(lambda : x > 0)" in out or \
            "ag__.assert_stmt(lambda: x > 0)" in out

    def test_assert_message_lazy(self):
        _, out = _convert(
            """
            def f(x):
                assert x > 0, 'bad ' + str(x)
            """,
            "asserts",
        )
        assert "assert_stmt" in out
        assert "lambda" in out


class TestLists:
    def test_empty_literal(self):
        _, out = _convert("def f():\n    l = []\n", "lists")
        assert "ag__.new_list()" in out

    def test_nonempty_literal_untouched(self):
        _, out = _convert("def f():\n    l = [1, 2]\n", "lists")
        assert "new_list" not in out

    def test_append_statement(self):
        _, out = _convert("def f(l, x):\n    l.append(x)\n", "lists")
        assert "l = ag__.list_append(l, x)" in out

    def test_pop_assignment(self):
        _, out = _convert("def f(l):\n    x = l.pop()\n", "lists")
        assert "l, x = ag__.list_pop(l)" in out

    def test_attribute_append_untouched(self):
        _, out = _convert("def f(obj, x):\n    obj.items.append(x)\n", "lists")
        assert "list_append" not in out


class TestSlices:
    def test_write_value_semantics(self):
        _, out = _convert("def f(x, i, y):\n    x[i] = y\n", "slices")
        assert "x = ag__.set_item(x, i, y)" in out

    def test_read_converted(self):
        _, out = _convert("def f(x, i):\n    return x[i]\n", "slices")
        assert "ag__.get_item(x, i)" in out

    def test_slice_object(self):
        _, out = _convert("def f(x):\n    return x[1:3]\n", "slices")
        assert "get_item" in out and "slice(1, 3, None)" in out

    def test_augmented_write(self):
        _, out = _convert("def f(x, i):\n    x[i] += 1\n", "slices")
        assert "set_item" in out and "get_item" in out


class TestCallTrees:
    def test_call_wrapped(self):
        _, out = _convert("def f(g, x):\n    return g(x)\n", "call_trees")
        assert "ag__.converted_call(g, (x,), None)" in out

    def test_kwargs_packed(self):
        _, out = _convert("def f(g):\n    return g(a=1, b=2)\n", "call_trees")
        assert "converted_call" in out
        assert "'a': 1" in out

    def test_ag_internal_not_wrapped(self):
        _, out = _convert(
            "def f(x):\n    return ag__.ld(x)\n", "call_trees"
        )
        assert "converted_call(ag__" not in out

    def test_super_not_wrapped(self):
        _, out = _convert(
            "def f(self):\n    return super().g()\n", "call_trees"
        )
        # super itself is called directly...
        assert "converted_call(super, " not in out
        # ...but the method call on its result is wrapped.
        assert "converted_call(super().g" in out

    def test_nested_calls(self):
        _, out = _convert("def f(g, h, x):\n    return g(h(x))\n", "call_trees")
        assert out.count("converted_call") == 2


class TestControlFlowPass:
    def test_if_form_matches_paper(self):
        """Paper Listing 1: if -> niladic branch functions + if_stmt."""
        _, out = _convert(
            """
            def f(x):
                if x > 0:
                    x = x * x
                return x
            """,
            "control_flow",
        )
        assert "def if_body():" in out
        assert "def else_body():" in out
        assert "ag__.if_stmt(x > 0, if_body, else_body, ('x',))" in out

    def test_while_form_matches_paper(self):
        """Paper §7.2: while -> loop_test/loop_body functions over state."""
        _, out = _convert(
            """
            def f(x, eps):
                while x > eps:
                    x = x / 2
                return x
            """,
            "control_flow",
        )
        assert "def loop_test(x):" in out
        assert "def loop_body(x):" in out
        assert "ag__.while_stmt(loop_test, loop_body, (x,), ('x',)" in out

    def test_for_form(self):
        _, out = _convert(
            """
            def f(xs):
                total = 0
                for x in xs:
                    total = total + x
                return total
            """,
            "control_flow",
        )
        assert "ag__.for_stmt(xs, None, loop_body, (total,), ('total',)" in out

    def test_undefined_reified(self):
        _, out = _convert(
            """
            def f(c):
                if c:
                    y = 1
                return y
            """,
            "control_flow",
        )
        assert "y = ag__.Undefined('y')" in out

    def test_local_temp_not_in_loop_state(self):
        _, out = _convert(
            """
            def f(n):
                s = 0
                i = 0
                while i < n:
                    t = i * 2
                    s = s + t
                    i = i + 1
                return s
            """,
            "control_flow",
        )
        assert "('i', 's')" in out  # t is not state

    def test_side_effect_only_if(self):
        _, out = _convert(
            """
            def f(c, log):
                if c:
                    log('hello')
                return 0
            """,
            "control_flow",
        )
        assert "ag__.if_stmt" in out


class TestExpressionPasses:
    def test_ternary(self):
        # The logical-expressions pass converts ternaries in the same walk.
        _, out = _convert("def f(c, a, b):\n    return a if c else b\n",
                          "logical_expressions")
        assert "ag__.if_exp(c" in out

    def test_and_or_lazy(self):
        _, out = _convert("def f(a, b):\n    return a and b or a\n",
                          "logical_expressions")
        assert "ag__.and_" in out and "ag__.or_" in out
        assert "lambda" in out

    def test_bool_chain_folds_right(self):
        _, out = _convert("def f(a, b, c):\n    return a and b and c\n",
                          "logical_expressions")
        assert out.count("ag__.and_") == 2

    def test_not(self):
        _, out = _convert("def f(a):\n    return not a\n",
                          "logical_expressions")
        assert "ag__.not_(a)" in out

    def test_eq(self):
        _, out = _convert("def f(a, b):\n    return a == b\n",
                          "logical_expressions")
        assert "ag__.eq(a, b)" in out

    def test_comparison_chain_untouched(self):
        _, out = _convert("def f(a, b, c):\n    return a == b == c\n",
                          "logical_expressions")
        assert "ag__.eq" not in out

    def test_lt_gt_left_to_overloads(self):
        _, out = _convert("def f(a, b):\n    return a < b\n",
                          "logical_expressions")
        assert "ag__" not in out


class TestFunctionWrappers:
    def test_wraps_in_scope(self):
        _, out = _convert(
            """
            def f(x):
                return x
            """,
            "function_wrappers",
        )
        assert "with ag__.FunctionScope('f') as fscope:" in out
        assert "return fscope.ret(x)" in out

    def test_docstring_stays_outside(self):
        _, out = _convert(
            '''
            def f(x):
                """Doc."""
                return x
            ''',
            "function_wrappers",
        )
        lines = out.splitlines()
        assert '"""Doc."""' in lines[1].strip() or "'''Doc.'''" in lines[1].strip() \
            or lines[1].strip() == '"""Doc."""'

    def test_generated_inner_functions_not_wrapped(self):
        _, out = _convert(
            """
            def f(x):
                if x > 0:
                    x = x + 1
                return x
            """,
            "control_flow",
            "function_wrappers",
        )
        assert out.count("FunctionScope") == 1
