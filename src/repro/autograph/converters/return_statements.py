"""Return statement lowering (paper §7.2, Return Statements).

Rewrites every function so it has a single ``return`` at the end:

- each ``return x`` becomes ``do_return = True; retval = x`` (plus a
  ``break`` when inside a loop, lowered by the break pass that follows);
- statements following a possibly-returning statement are guarded with
  ``if not do_return:`` so control skips them once a return executed —
  the paper's if/else balancing, generalized;
- the function ends with a single ``return retval``, later rewritten by
  the function-wrappers pass into ``return fscope.ret(retval)``.
"""

from __future__ import annotations

import ast

from ..pyct import ast_util, templates, transformer

__all__ = ["transform"]


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _contains_return_scoped(node):
    """True if ``node`` contains a return belonging to the same function
    (returns inside nested function definitions do not count)."""
    return ast_util.has_statement(node, ast.Return, _SCOPES)


class _FunctionRewriter:
    """Rewrites one function's body (nested functions handled separately)."""

    def __init__(self, ctx, fn_name):
        self.ctx = ctx
        self.do_return_name = ctx.fresh_name(f"do_return")
        self.retval_name = ctx.fresh_name(f"retval_")

    def rewrite(self, fn_node):
        if not _contains_return_scoped_body(fn_node):
            return fn_node
        new_body = self._rewrite_block(fn_node.body, in_loop=False)
        prologue = templates.replace(
            """
            do_return = False
            retval_ = ag__.UndefinedReturnValue()
            """,
            do_return=self.do_return_name,
            retval_=self.retval_name,
        )
        epilogue = templates.replace(
            "return retval_", retval_=self.retval_name
        )
        # Avoid a double return when the body already ends with one that the
        # rewrite turned into assignments — the epilogue is always safe.
        fn_node.body = prologue + new_body + epilogue
        return fn_node

    def _rewrite_block(self, stmts, in_loop):
        out = []
        for i, stmt in enumerate(stmts):
            if isinstance(stmt, ast.Return):
                out.extend(self._lower_return(stmt, in_loop))
                # Anything after an unconditional return is dead code.
                break
            may_return = _contains_return_scoped(stmt)
            rewritten = self._rewrite_stmt(stmt, in_loop)
            if may_return:
                # stmt could have set do_return; guard the remainder.
                out.extend(rewritten)
                rest = self._rewrite_block(stmts[i + 1:], in_loop)
                if rest:
                    # The rest is installed, not spliced: the template
                    # would copy it.
                    (guard,) = templates.replace(
                        """
                        if not do_return:
                            pass
                        """,
                        do_return=self.do_return_name,
                    )
                    guard.body = rest
                    out.append(guard)
                return out
            out.extend(rewritten)
        return out

    def _rewrite_stmt(self, stmt, in_loop):
        if isinstance(stmt, ast.If):
            stmt.body = self._rewrite_block(stmt.body, in_loop)
            stmt.orelse = self._rewrite_block(stmt.orelse, in_loop)
            return [stmt]
        if isinstance(stmt, (ast.While, ast.For)):
            stmt.body = self._rewrite_block(stmt.body, in_loop=True)
            stmt.orelse = self._rewrite_block(stmt.orelse, in_loop)
            return [stmt]
        if isinstance(stmt, ast.With):
            stmt.body = self._rewrite_block(stmt.body, in_loop)
            return [stmt]
        if isinstance(stmt, ast.Try):
            stmt.body = self._rewrite_block(stmt.body, in_loop)
            for handler in stmt.handlers:
                handler.body = self._rewrite_block(handler.body, in_loop)
            stmt.orelse = self._rewrite_block(stmt.orelse, in_loop)
            stmt.finalbody = self._rewrite_block(stmt.finalbody, in_loop)
            return [stmt]
        return [stmt]

    def _lower_return(self, stmt, in_loop):
        value = stmt.value if stmt.value is not None else ast.Constant(value=None)
        lowered = templates.replace(
            """
            do_return = True
            retval_ = value_
            """,
            do_return=self.do_return_name,
            retval_=self.retval_name,
            value_=value,
        )
        if in_loop:
            lowered.append(ast.Break())
        return lowered


def _contains_return_scoped_body(fn_node):
    for stmt in fn_node.body:
        if _contains_return_scoped(stmt):
            return True
    return False


class _ReturnTransformer(transformer.Base):
    def visit_FunctionDef(self, node):
        # Depth-first: rewrite nested functions first.
        self.generic_visit(node)
        return _FunctionRewriter(self.ctx, node.name).rewrite(node)

    visit_AsyncFunctionDef = visit_FunctionDef


def transform(node, ctx):
    return _ReturnTransformer(ctx).visit(node)
