"""Slice conversion (paper §7.2, Slices).

Slice writes are rewritten to value semantics: ``x[i] = y`` becomes
``x = ag__.set_item(x, i, y)`` (the target IR requires functional
updates).  Slice reads convert mechanically to ``ag__.get_item`` so that
staged lists (TensorArrays) support indexing.
"""

from __future__ import annotations

import ast

from ..pyct import ast_util, templates, transformer

__all__ = ["transform"]


def _key_expression(subscript):
    """Build an expression evaluating the subscript's key."""
    sl = subscript.slice
    return _slice_to_expr(sl)


def _slice_to_expr(sl):
    if isinstance(sl, ast.Slice):
        return ast.Call(
            func=ast.Name(id="slice", ctx=ast.Load()),
            args=[
                sl.lower if sl.lower is not None else ast.Constant(value=None),
                sl.upper if sl.upper is not None else ast.Constant(value=None),
                sl.step if sl.step is not None else ast.Constant(value=None),
            ],
            keywords=[],
        )
    if isinstance(sl, ast.Tuple):
        return ast.Tuple(
            elts=[_slice_to_expr(e) for e in sl.elts], ctx=ast.Load()
        )
    return sl


class _SliceTransformer(transformer.Base):
    def visit_Assign(self, node):
        self.generic_visit(node)
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Subscript):
            target = node.targets[0]
            base = _load(target.value)
            key = _key_expression(target)
            return templates.replace(
                "base_ = ag__.set_item(base_, key_, value_)",
                base_=base,
                key_=key,
                value_=node.value,
            )
        return node

    def visit_AugAssign(self, node):
        self.generic_visit(node)
        if isinstance(node.target, ast.Subscript):
            target = node.target
            base = _load(target.value)
            key = _key_expression(target)
            combined = ast.BinOp(
                left=templates.replace_as_expression(
                    "ag__.get_item(base_, key_)", base_=base, key_=key
                ),
                op=node.op,
                right=node.value,
            )
            return templates.replace(
                "base_ = ag__.set_item(base_, key_, value_)",
                base_=base,
                key_=key,
                value_=combined,
            )
        return node

    def visit_Subscript(self, node):
        self.generic_visit(node)
        if not isinstance(node.ctx, ast.Load):
            return node
        return templates.replace_as_expression(
            "ag__.get_item(base_, key_)",
            base_=node.value,
            key_=_key_expression(node),
        )


def _load(expr):
    """A Load-context copy of an assignment-target expression."""
    new = ast_util.copy_tree(expr)
    for child in ast_util.walk(new):
        if hasattr(child, "ctx"):
            child.ctx = ast.Load()
    return new


def transform(node, ctx):
    return _SliceTransformer(ctx).visit(node)
