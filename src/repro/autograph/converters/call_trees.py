"""Function call conversion (paper §7.2, Function Calls).

Every call site is rewritten to ``ag__.converted_call(f, args, kwargs)``,
which decides at runtime whether to recursively convert the target,
replace it (builtins like ``print``), or call it unconverted (allowlisted
modules, unconvertible functions) — the "dynamically convert, call as-is,
or replace" trichotomy of §7.2.
"""

from __future__ import annotations

import ast

from ..pyct import templates, transformer

__all__ = ["transform"]

# Calls that inspect or alter the caller's frame cannot be re-routed.
_NEVER_WRAP = {"super", "locals", "globals", "vars", "eval", "exec",
               "breakpoint", "slice"}


def _is_ag_internal(func):
    """True for calls into the operator namespace or framework internals
    generated by earlier passes."""
    node = func
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "ag__"


class _CallTreeTransformer(transformer.Base):
    def visit_Call(self, node):
        self.generic_visit(node)
        if _is_ag_internal(node.func):
            return node
        if isinstance(node.func, ast.Name) and node.func.id in _NEVER_WRAP:
            return node

        args = ast.Tuple(
            elts=[a for a in node.args], ctx=ast.Load()
        )
        if node.keywords:
            keys = []
            values = []
            for kw in node.keywords:
                if kw.arg is None:
                    keys.append(None)  # **expansion
                    values.append(kw.value)
                else:
                    keys.append(ast.Constant(value=kw.arg))
                    values.append(kw.value)
            kwargs = ast.Dict(keys=keys, values=values)
        else:
            kwargs = ast.Constant(value=None)
        # The operands are installed, not spliced: the template would
        # copy them, and each enclosing call would copy them again.
        call = templates.replace_as_expression("ag__.converted_call()")
        call.args = [node.func, args, kwargs]
        return call


def transform(node, ctx):
    return _CallTreeTransformer(ctx).visit(node)
