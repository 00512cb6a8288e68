"""Continue statement lowering (paper §7.2 and §6: "continue is lowered
using extra variables and conditionals").

Within each loop body containing ``continue``:

- ``continue_ = False`` is inserted at the top of the body;
- each ``continue`` becomes ``continue_ = True``;
- every statement that follows a possibly-continuing statement is guarded
  by ``if not continue_:``.
"""

from __future__ import annotations

import ast

from ..pyct import ast_util, templates

__all__ = ["lower"]


# Constructs that own the continues inside them.
_SCOPES = (ast.While, ast.For, ast.FunctionDef, ast.AsyncFunctionDef)


def _contains_continue(node):
    return ast_util.has_statement(node, ast.Continue, _SCOPES)


def _block_contains_continue(stmts):
    return any(_contains_continue(s) for s in stmts)


class _BodyRewriter:
    def __init__(self, flag_name):
        self.flag_name = flag_name

    def rewrite_block(self, stmts):
        out = []
        for i, stmt in enumerate(stmts):
            if isinstance(stmt, ast.Continue):
                out.extend(
                    templates.replace("flag_ = True", flag_=self.flag_name)
                )
                # Statements after a bare continue are dead code.
                break
            may_continue = _contains_continue(stmt)
            out.append(self._rewrite_stmt(stmt))
            if may_continue:
                rest = self.rewrite_block(stmts[i + 1:])
                if rest:
                    # The rest is installed, not spliced: the template
                    # would copy it.
                    (guard,) = templates.replace(
                        """
                        if not flag_:
                            pass
                        """,
                        flag_=self.flag_name,
                    )
                    guard.body = rest
                    out.append(guard)
                return out
        return out

    def _rewrite_stmt(self, stmt):
        if isinstance(stmt, ast.If):
            stmt.body = self.rewrite_block(stmt.body)
            stmt.orelse = self.rewrite_block(stmt.orelse)
        elif isinstance(stmt, ast.With):
            stmt.body = self.rewrite_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            stmt.body = self.rewrite_block(stmt.body)
            for handler in stmt.handlers:
                handler.body = self.rewrite_block(handler.body)
            stmt.orelse = self.rewrite_block(stmt.orelse)
            stmt.finalbody = self.rewrite_block(stmt.finalbody)
        # While/For own their continues; leave them intact.
        return stmt


def lower(loop, ctx):
    """Lower the continues of ``loop``, whose inner loops are lowered
    already, in place.  The break pass calls this on every loop, after it
    has turned the loop's breaks into continues: one walk lowers both."""
    if not _block_contains_continue(loop.body):
        return
    flag = ctx.fresh_name("continue_")
    new_body = _BodyRewriter(flag).rewrite_block(loop.body)
    init = templates.replace("flag_ = False", flag_=flag)
    loop.body = init + new_body
