"""Templated code rewriting (paper Appendix C).

``replace`` parses a quoted code template and splices string symbols or
AST nodes into the placeholder names, with integrity checks: expression
replacements get their contexts (Load/Store/Del) fixed to match the
placeholder's position, and statement-list replacements are only accepted
in statement position.

A template string is parsed once per process; each use instantiates a
``copy_clean`` of the parsed statements.  A spliced node is a structural
copy (``ast_util.copy_tree``), so a node passed twice, or used again by
the caller, is never shared.  A pass that owns a large subtree (a body,
a call's operands) therefore installs it into the instantiated template
itself rather than splicing it, which would copy it.  Spliced nodes keep
the line numbers they had, and new ones have none: ``parser.unparse``
fills them in once for the finished tree.
"""

from __future__ import annotations

import ast
import functools

from . import parser, transformer
from .ast_util import copy_clean, copy_tree
from .qual_names import QN

__all__ = ["replace", "replace_as_expression"]


def _set_ctx(node, ctx_type):
    """Recursively apply a Load/Store/Del context to an expression."""
    if hasattr(node, "ctx"):
        node.ctx = ctx_type()
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            _set_ctx(elt, ctx_type)
    elif isinstance(node, ast.Starred):
        _set_ctx(node.value, ctx_type)
    # Attribute/Subscript: only the outermost node's ctx changes; the
    # .value chain remains Load (e.g. `a.b.c = 1` stores into `a.b`.c,
    # loading `a.b`).


def _as_expression(value):
    """Coerce a replacement value to an AST expression node."""
    if isinstance(value, str):
        return ast.Name(id=value, ctx=ast.Load())
    if isinstance(value, QN):
        return value.ast()
    if isinstance(value, ast.Expr):
        return copy_tree(value.value)
    if isinstance(value, ast.expr):
        return copy_tree(value)
    raise ValueError(f"Cannot use {value!r} as an expression replacement")


def _as_statements(value):
    if isinstance(value, (list, tuple)):
        out = []
        for v in value:
            out.extend(_as_statements(v))
        return out
    if isinstance(value, ast.Module):
        return copy_tree(value.body)
    if isinstance(value, ast.stmt):
        return [copy_tree(value)]
    if isinstance(value, ast.expr):
        return [ast.Expr(value=copy_tree(value))]
    raise ValueError(f"Cannot use {value!r} as a statement replacement")


class _ReplaceTransformer(transformer.Base):
    def __init__(self, replacements):
        super().__init__()
        self.replacements = replacements

    # -- names ------------------------------------------------------------

    def visit_Name(self, node):
        repl = self.replacements.get(node.id)
        if repl is None:
            return node
        new = _as_expression(repl)
        if isinstance(node.ctx, ast.Store):
            _set_ctx(new, ast.Store)
        elif isinstance(node.ctx, ast.Del):
            _set_ctx(new, ast.Del)
        return new

    # -- function defs: name and argument placeholders ------------------------

    def visit_FunctionDef(self, node):
        self.generic_visit(node)
        if node.name in self.replacements:
            repl = self.replacements[node.name]
            if not isinstance(repl, str):
                raise ValueError(
                    f"Function name placeholder {node.name!r} must be replaced "
                    f"with a string, got {repl!r}"
                )
            node.name = repl
        new_args = []
        for a in node.args.args:
            repl = self.replacements.get(a.arg)
            if repl is None:
                new_args.append(a)
            elif isinstance(repl, str):
                new_args.append(ast.arg(arg=repl))
            elif isinstance(repl, (list, tuple)):
                for r in repl:
                    if not isinstance(r, str):
                        raise ValueError(
                            f"Argument placeholder {a.arg!r} replacement must "
                            f"be strings, got {r!r}"
                        )
                    new_args.append(ast.arg(arg=r))
            else:
                raise ValueError(
                    f"Argument placeholder {a.arg!r} must be replaced with "
                    f"str or list of str, got {repl!r}"
                )
        node.args.args = new_args
        return node

    # -- statement splices ---------------------------------------------------

    def visit_Expr(self, node):
        if isinstance(node.value, ast.Name) and node.value.id in self.replacements:
            try:
                return _as_statements(self.replacements[node.value.id])
            except ValueError:
                pass  # fall through: expression substitution
        return self.generic_visit(node)


@functools.lru_cache(maxsize=256)
def _parse(template):
    """The statements of ``template``, parsed once; never handed out, only
    copied."""
    return parser.parse_str(template).body


def replace(template, **replacements):
    """Instantiate a code template.

    Args:
      template: Python code with placeholder Names.
      **replacements: placeholder -> str | QN | AST node | list of nodes.

    Returns:
      A list of statement nodes.
    """
    if not isinstance(template, str):
        raise TypeError(f"Template must be a string, got {type(template).__name__}")
    return _ReplaceTransformer(replacements).visit_block(
        copy_clean(_parse(template)))


def replace_as_expression(template, **replacements):
    """Like :func:`replace` but returns a single expression node."""
    body = replace(template, **replacements)
    if len(body) != 1 or not isinstance(body[0], ast.Expr):
        raise ValueError(
            f"Template did not produce a single expression: {template!r}"
        )
    return body[0].value
