"""Break statement lowering (paper §7.2, Break).

``break`` has no representation in the target IRs, so it is removed by
introducing a flag:

- ``break_ = False`` before the loop;
- ``break`` becomes ``break_ = True; continue``, and the same walk then
  lowers the loop's continues (``continue_statements.lower``) into body
  guards;
- ``while test:`` becomes ``while not break_ and test:``;
- ``for`` loops get an ``extra_test`` annotation (``not break_``) consumed
  by the control-flow pass, since their termination cannot be expressed in
  the header syntax.
"""

from __future__ import annotations

import ast

from ..pyct import anno, ast_util, templates, transformer
from . import continue_statements

__all__ = ["transform"]


# Constructs that own the breaks inside them.
_SCOPES = (ast.While, ast.For, ast.FunctionDef, ast.AsyncFunctionDef)


def _block_contains_break(stmts):
    """True if the block has a ``break`` belonging to this loop level."""
    return any(ast_util.has_statement(stmt, ast.Break, _SCOPES)
               for stmt in stmts if not isinstance(stmt, _SCOPES))


class _BreakRewriter(transformer.Base):
    """Replaces this loop level's breaks with flag set + continue."""

    def __init__(self, flag_name):
        super().__init__()
        self.flag_name = flag_name

    def visit_Break(self, node):
        return templates.replace(
            """
            flag_ = True
            continue
            """,
            flag_=self.flag_name,
        )

    # Don't descend into constructs that own their breaks.
    def visit_While(self, node):
        return node

    visit_For = visit_While
    visit_FunctionDef = visit_While
    visit_AsyncFunctionDef = visit_While


def _lower_breaks(node, ctx, is_while):
    """Lower the breaks of the loop ``node``; returns what replaces it."""
    if not _block_contains_break(node.body):
        return node
    flag = ctx.fresh_name("break_")
    _BreakRewriter(flag).visit_block(node.body)
    init = templates.replace("flag_ = False", flag_=flag)
    extra_test = templates.replace_as_expression("not flag_", flag_=flag)
    if is_while:
        node.test = ast.BoolOp(op=ast.And(), values=[extra_test, node.test])
    else:
        existing = anno.getanno(node, anno.Basic.EXTRA_LOOP_TEST)
        if existing is not None:
            extra_test = ast.BoolOp(op=ast.And(),
                                    values=[extra_test, existing])
        anno.setanno(node, anno.Basic.EXTRA_LOOP_TEST, extra_test)
    # ``while ... else`` / ``for ... else`` semantics depend on whether
    # a break occurred; lower the else into a flag check.  The else is
    # installed, not spliced: the template would copy it.
    if node.orelse:
        (orelse_guard,) = templates.replace(
            """
            if not flag_:
                pass
            """,
            flag_=flag,
        )
        orelse_guard.body = node.orelse
        node.orelse = []
        return init + [node, orelse_guard]
    return init + [node]


class _LoopExitTransformer(transformer.Base):
    def _visit_loop(self, node, is_while):
        self.generic_visit(node)  # inner loops first
        result = _lower_breaks(node, self.ctx, is_while)
        continue_statements.lower(node, self.ctx)
        return result

    def visit_While(self, node):
        return self._visit_loop(node, is_while=True)

    def visit_For(self, node):
        return self._visit_loop(node, is_while=False)


def transform(node, ctx):
    return _LoopExitTransformer(ctx).visit(node)
