"""AST manipulation helpers: structural copies, scope-aware renaming,
matching."""

from __future__ import annotations

import ast

from . import anno

__all__ = ["copy_tree", "copy_clean", "rename_symbols", "collect_bound_names",
           "matches_name_call"]


def _copy(value, annotations):
    if isinstance(value, list):
        return [_copy(v, annotations) for v in value]
    if not isinstance(value, ast.AST) or not (value._fields or value._attributes):
        # Scalars, and contexts / operators, which the parser itself
        # shares between every use.
        return value
    state = value.__dict__
    new = type(value)(**{
        name: _copy(state[name], annotations)
        for name in value._fields + value._attributes if name in state})
    if annotations and anno.FIELD in state:
        setattr(new, anno.FIELD, dict(state[anno.FIELD]))
    return new


def copy_tree(node):
    """A structural copy of ``node`` (an AST node or a list of them).

    Every node is new, built with its fields as keyword arguments.  Each
    copy gets its own annotation dict whose values are shared with the
    original's: the analyses that set them are finished by the time a
    tree is copied, and nothing mutates an annotation value afterwards.
    """
    return _copy(node, True)


def copy_clean(node):
    """A structural copy of ``node`` with no annotations."""
    return _copy(node, False)


def collect_bound_names(fn_node):
    """Names bound inside a function scope: params and direct assignments.

    Does not descend into nested function definitions (those bind in their
    own scope).
    """
    bound = set()
    args = fn_node.args
    for a in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    ):
        bound.add(a.arg)
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)

    body = fn_node.body if isinstance(fn_node.body, list) else [fn_node.body]

    class _Collector(ast.NodeVisitor):
        def visit_Name(self, node):
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                bound.add(node.id)

        def visit_FunctionDef(self, node):
            bound.add(node.name)  # the def binds its own name

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_ClassDef(self, node):
            bound.add(node.name)

        def visit_Lambda(self, node):
            pass  # separate scope

        def visit_Import(self, node):
            for alias in node.names:
                bound.add((alias.asname or alias.name).split(".")[0])

        visit_ImportFrom = visit_Import

    collector = _Collector()
    for stmt in body:
        collector.visit(stmt)
    return bound


class _Renamer(ast.NodeTransformer):
    """Renames free occurrences of symbols, respecting nested scopes."""

    def __init__(self, name_map):
        self.name_map = dict(name_map)

    def visit_Name(self, node):
        new_name = self.name_map.get(node.id)
        if new_name is not None:
            node.id = new_name
        return node

    def _visit_new_scope(self, node):
        bound = collect_bound_names(node)
        remaining = {k: v for k, v in self.name_map.items() if k not in bound}
        if not remaining:
            return node
        inner = _Renamer(remaining)
        for field in ("body", "decorator_list", "returns"):
            value = getattr(node, field, None)
            if isinstance(value, list):
                setattr(node, field, [inner.visit(v) for v in value])
            elif isinstance(value, ast.AST):
                setattr(node, field, inner.visit(value))
        # Default expressions evaluate in the *outer* scope.
        for field in ("defaults", "kw_defaults"):
            value = getattr(node.args, field, None)
            if value:
                setattr(
                    node.args, field,
                    [self.visit(v) if v is not None else None for v in value],
                )
        return node

    def visit_FunctionDef(self, node):
        return self._visit_new_scope(node)

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = _visit_new_scope


def rename_symbols(node, name_map):
    """Rename free simple names per ``name_map`` (str -> str), in place.

    Nested function scopes that re-bind a name shadow the rename, matching
    Python scoping.  Returns the (mutated) node for chaining.
    """
    if not name_map:
        return node
    renamer = _Renamer({str(k): str(v) for k, v in name_map.items()})
    if isinstance(node, list):
        return [renamer.visit(n) for n in node]
    return renamer.visit(node)


def matches_name_call(node, dotted_names):
    """True if ``node`` is a Call whose callee unparsess to one of the
    given dotted names (e.g. ``{"ag.set_loop_options"}``)."""
    if not isinstance(node, ast.Call):
        return False
    try:
        callee = ast.unparse(node.func)
    except Exception:  # pragma: no cover - malformed nodes
        return False
    return callee in dotted_names
