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


class _ReturnRouter(transformer.Base):
    """Rewrites this function's returns to go through fscope.ret."""

    def __init__(self, fscope_name):
        super().__init__()
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


def transform(node, ctx):
    """Wrap the body of ``node``, the converted function.

    Only the converted function gets a scope: generated branch and loop
    functions must stay lightweight, and nested user functions get their
    own scope when ``converted_call`` converts them.
    """
    fscope_name = ctx.fresh_name("fscope")
    body = _ReturnRouter(fscope_name).visit_block(node.body)

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

    # The body is installed, not spliced: the template would copy it.
    (wrapped,) = templates.replace(
        """
        with ag__.FunctionScope(name_) as fscope_:
            pass
        """,
        name_=ast.Constant(value=node.name),
        fscope_=fscope_name,
    )
    wrapped.body = body
    node.body = docstring + [wrapped]
    return node
