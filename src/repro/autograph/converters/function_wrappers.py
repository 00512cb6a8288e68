"""Function wrapper conversion (paper §7.2, Function Wrappers).

Wraps each converted function's body in an ``ag__.FunctionScope`` which:
opens a graph name scope (readable graphs), collects staged side effects,
and routes return values through ``fscope.ret`` so collected effects
become control dependencies and undefined-return markers map to None.
"""

from __future__ import annotations

import ast

from ..pyct import templates, transformer

__all__ = ["transform"]


class _ReturnRouter(ast.NodeTransformer):
    """Rewrites this function's returns to go through fscope.ret."""

    def __init__(self, fscope_name):
        self.fscope_name = fscope_name

    def visit_Return(self, node):
        value = node.value if node.value is not None else ast.Constant(value=None)
        new = templates.replace(
            "return fscope_.ret(value_)",
            fscope_=self.fscope_name,
            value_=value,
        )[0]
        return ast.copy_location(new, node)

    # Nested functions route through their own scopes.
    def visit_FunctionDef(self, node):
        return node

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        return node


class _FunctionWrapperTransformer(transformer.Base):
    def __init__(self, ctx, top_level_only=True):
        super().__init__(ctx)
        self._wrapped_top = False

    def visit_FunctionDef(self, node):
        # Only the outermost (converted entity) function gets a scope;
        # generated branch/body functions must stay lightweight, and
        # nested user functions get their own scope when converted via
        # converted_call.
        if self._wrapped_top:
            return node
        self._wrapped_top = True

        fscope_name = self.ctx.fresh_name("fscope")
        body = [_ReturnRouter(fscope_name).visit(stmt) for stmt in node.body]

        # Docstring stays outside the with block.
        docstring = []
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            docstring = [body[0]]
            body = body[1:]
        if not body:
            body = [ast.Pass()]

        wrapped = templates.replace(
            """
            with ag__.FunctionScope(name_) as fscope_:
                body_
            """,
            name_=ast.Constant(value=node.name),
            fscope_=fscope_name,
            body_=body,
        )
        node.body = docstring + wrapped
        return node

    visit_AsyncFunctionDef = visit_FunctionDef


def transform(node, ctx):
    return _FunctionWrapperTransformer(ctx).visit(node)
