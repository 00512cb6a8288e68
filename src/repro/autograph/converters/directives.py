"""Directives pass (paper §7.2, Directives).

Recognizes calls to AutoGraph compilation directives:

- ``ag.set_element_type(l, dtype)`` — replaced in-place with a staged-list
  construction so subsequent ``append``/``stack`` thread a TensorArray;
- ``ag.set_loop_options(...)`` — removed from the body and recorded as an
  annotation on the enclosing loop, consumed by the control-flow pass.
"""

from __future__ import annotations

import ast

from ..pyct import anno, templates, transformer

__all__ = ["transform"]

_DIRECTIVE_NAMES = ("set_element_type", "set_loop_options")


def _directive_name(call):
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in _DIRECTIVE_NAMES:
        return func.attr
    if isinstance(func, ast.Name) and func.id in _DIRECTIVE_NAMES:
        return func.id
    return None


class _DirectivesTransformer(transformer.Base):
    def __init__(self, ctx):
        super().__init__(ctx)
        self._loop_stack = []

    def visit_While(self, node):
        # The test or iterate holds no statement, so no directive.
        self._loop_stack.append(node)
        self.visit_block(node.body)
        self._loop_stack.pop()
        self.visit_block(node.orelse)

    visit_For = visit_While

    def visit_Expr(self, node):
        if isinstance(node.value, ast.Call):
            name = _directive_name(node.value)
            if name == "set_element_type":
                return self._apply_set_element_type(node.value)
            if name == "set_loop_options":
                self._apply_loop_options(node.value)
                return []
        return self.generic_visit(node)

    def _apply_set_element_type(self, call):
        if len(call.args) != 2:
            raise ValueError(
                "set_element_type expects exactly (list, dtype) arguments"
            )
        target, dtype_expr = call.args
        if not isinstance(target, ast.Name):
            raise ValueError(
                "set_element_type must be applied to a simple variable"
            )
        return templates.replace(
            "target = ag__.new_list_of_type(target, dtype_)",
            target=target.id,
            dtype_=dtype_expr,
        )

    def _apply_loop_options(self, call):
        if not self._loop_stack:
            raise ValueError(
                "set_loop_options may only appear inside a loop body"
            )
        loop = self._loop_stack[-1]
        opts = anno.getanno(loop, anno.Basic.DIRECTIVES, default=None)
        if opts is None:
            opts = {}
            anno.setanno(loop, anno.Basic.DIRECTIVES, opts)
        for kw in call.keywords:
            opts[kw.arg] = kw.value


def transform(node, ctx):
    return _DirectivesTransformer(ctx).visit(node)
