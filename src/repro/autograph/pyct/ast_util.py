"""AST manipulation helpers: structural copies, walks and scope-aware
renaming."""

from __future__ import annotations

import ast

from . import anno, transformer

__all__ = ["copy_tree", "copy_clean", "walk", "rename_symbols",
           "collect_bound_names", "has_statement"]


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


def walk(node):
    """Every node under ``node``, as a list in ``ast.walk``'s
    (breadth-first) order."""
    nodes = [node]
    for current in nodes:  # grows while it is read
        for field in current._fields:
            value = getattr(current, field, None)
            if value.__class__ is list:
                nodes.extend(v for v in value if isinstance(v, ast.AST))
            elif isinstance(value, ast.AST):
                nodes.append(value)
    return nodes


# What a statement list holds: statements, and the clauses that carry
# statement lists of their own.
_BLOCK_ITEMS = (ast.stmt, ast.excepthandler) + (
    (ast.match_case,) if hasattr(ast, "match_case") else ())


def has_statement(node, kind, scopes):
    """True if ``node`` is a ``kind`` statement or holds one.

    The search does not enter a ``scopes`` node below ``node`` (the
    statements in there belong to it), nor any expression: no statement
    sits inside one.
    """
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, kind):
            return True
        if current is not node and isinstance(current, scopes):
            continue
        for field in current._fields:
            value = getattr(current, field, None)
            if value.__class__ is list:
                stack.extend(v for v in value if isinstance(v, _BLOCK_ITEMS))
    return False


class _BoundNames(transformer.Base):
    """Collects the names a scope binds, not entering nested scopes."""

    def __init__(self, bound):
        super().__init__()
        self.bound = bound

    def visit_Name(self, node):
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            self.bound.add(node.id)

    def visit_FunctionDef(self, node):
        self.bound.add(node.name)  # the def binds its own name
        return node

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node):
        self.bound.add(node.name)
        return node

    def visit_Lambda(self, node):
        return node  # separate scope

    def visit_Import(self, node):
        for alias in node.names:
            self.bound.add((alias.asname or alias.name).split(".")[0])
        return node

    visit_ImportFrom = visit_Import


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
    collector = _BoundNames(bound)
    for stmt in body:
        collector.visit(stmt)
    return bound


class _Renamer(transformer.Base):
    """Renames free occurrences of symbols, respecting nested scopes."""

    def __init__(self, name_map):
        super().__init__()
        self.name_map = name_map

    def visit_Name(self, node):
        new_name = self.name_map.get(node.id)
        if new_name is not None:
            node.id = new_name

    def _visit_new_scope(self, node):
        bound = collect_bound_names(node)
        remaining = {k: v for k, v in self.name_map.items() if k not in bound}
        if remaining:
            inner = _Renamer(remaining)
            for field in ("body", "decorator_list", "returns"):
                value = getattr(node, field, None)
                if isinstance(value, list):
                    inner.visit_block(value)
                elif isinstance(value, ast.AST):
                    inner.visit(value)
            # Default expressions evaluate in the *outer* scope.
            self.visit_block(node.args.defaults)
            self.visit_block(node.args.kw_defaults)
        return node

    visit_FunctionDef = _visit_new_scope
    visit_AsyncFunctionDef = _visit_new_scope
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
        return renamer.visit_block(node)
    return renamer.visit(node)
