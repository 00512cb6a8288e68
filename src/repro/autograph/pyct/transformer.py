"""The one AST walker, and the context shared by the passes of a conversion.

Every conversion pass and every syntactic analysis walks the tree with
:class:`Base` (paper §6: "each pass consists of static analysis then
transformation").  A walk costs little per node, because most nodes are
visited by no method of the pass:

- the method for a node class is looked up once per walker class, not
  once per node;
- children are found by a direct loop over ``_fields``, and a statement
  list is rebuilt only when a visit replaced something in it;
- nodes with nothing below them (contexts, operators, names, constants)
  are not entered unless the walker has a method for them;
- a walker with methods for statements only enters no expression: no
  statement sits inside one;
- a node that replaces the visited one inherits its ``ORIGIN``, so the
  user line of every node survives every pass.
"""

from __future__ import annotations

import ast

from . import anno

__all__ = ["EntityInfo", "Context", "Base"]


class EntityInfo:
    """Description of the entity being converted."""

    def __init__(self, name, source, filename, namespace):
        self.name = name
        self.source = source
        self.filename = filename
        # The namespace (globals + closure) the original function saw;
        # passes may consult it for binding-time decisions.
        self.namespace = namespace


class Context:
    """Carried through every pass of a single conversion."""

    def __init__(self, info):
        self.info = info
        self._name_counts = {}
        # Every name fresh_name handed out.
        self.fresh_names = set()

    def fresh_name(self, base):
        """A unique generated symbol name, stable within this conversion."""
        count = self._name_counts.get(base, 0)
        self._name_counts[base] = count + 1
        name = base if count == 0 else f"{base}_{count}"
        self.fresh_names.add(name)
        return name


# Node classes whose fields hold no node a walk enters (a Name's context
# is a shared singleton, like every operator).
_LEAVES = (ast.Name, ast.Constant)
# The cached "method" of a node class the walker enters no further.
_SKIP = object()


def _inherit_origin(node, result):
    """Give every node of ``result`` without an ``ORIGIN`` that of
    ``node``, the node it replaces."""
    origin = anno.getanno(node, anno.Basic.ORIGIN)
    if origin is None:
        return
    for out in result if isinstance(result, list) else (result,):
        if isinstance(out, ast.AST) and not anno.hasanno(out, anno.Basic.ORIGIN):
            anno.setanno(out, anno.Basic.ORIGIN, origin)


class Base:
    """A walker: ``visit_<NodeClass>`` methods over a generic in-place walk.

    A ``visit_X`` method returns what replaces the node: the node itself
    or ``None`` (it stays), another node, or a list of nodes (spliced into
    the enclosing list; ``[]`` removes the node).  It walks the node's
    children itself, if it wants them walked, with :meth:`generic_visit`.
    An analysis is a walker whose methods only annotate.
    """

    _methods = {}
    _statements_only = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._methods = {}
        visited = [getattr(ast, name[len("visit_"):], None)
                   for name in dir(cls) if name.startswith("visit_")]
        cls._statements_only = all(
            not isinstance(node_cls, type) or issubclass(node_cls, ast.stmt)
            for node_cls in visited)

    def __init__(self, ctx=None):
        self.ctx = ctx

    @classmethod
    def _method(cls, node_cls):
        method = getattr(cls, "visit_" + node_cls.__name__, None)
        if method is None and (
                not node_cls._fields or issubclass(node_cls, _LEAVES)
                or cls._statements_only and issubclass(node_cls, ast.expr)):
            method = _SKIP
        cls._methods[node_cls] = method
        return method

    def visit(self, node):
        """Walk ``node``; returns what replaces it (see the class doc)."""
        node_cls = node.__class__
        try:
            method = self._methods[node_cls]
        except KeyError:
            method = self._method(node_cls)
        if method is None:
            self.generic_visit(node)
            return node
        if method is _SKIP:
            return node
        result = method(self, node)
        if result is None:
            return node
        if result is not node:
            _inherit_origin(node, result)
        return result

    def generic_visit(self, node):
        """Walk ``node``'s children in field order, in place; returns
        ``node``."""
        for field in node._fields:
            value = getattr(node, field, None)
            if value.__class__ is list:
                if value:
                    self.visit_block(value)
            elif isinstance(value, ast.AST):
                new = self.visit(value)
                if new is not value:
                    setattr(node, field, new)
        return node

    def visit_block(self, items):
        """Walk a list of nodes, splicing in what replaces each, in place;
        returns the list."""
        out = None
        for i, item in enumerate(items):
            if not isinstance(item, ast.AST):
                # None in kw_defaults, names in Global/Nonlocal.
                if out is not None:
                    out.append(item)
                continue
            new = self.visit(item)
            if out is None:
                if new is item:
                    continue
                out = items[:i]
            if isinstance(new, list):
                out.extend(new)
            else:
                out.append(new)
        if out is not None:
            items[:] = out
        return items
