"""Qualified names: symbols extended to compound names like ``a.b`` (§7.1).

A :class:`QN` abstracts over ``Name``, ``Attribute`` and literal-keyed
``Subscript`` AST nodes so the static analyses can track reads/writes of
``a``, ``a.b`` and ``a[0]`` uniformly.  Per the paper, a write to ``a.b``
modifies ``a.b`` but *not* ``a``.
"""

from __future__ import annotations

import ast

from . import anno, transformer

__all__ = ["QN", "resolve"]


class QN:
    """A qualified name: a symbol, possibly with attribute/subscript parts."""

    __slots__ = ("_parent", "_leaf", "_kind", "_hash")

    def __init__(self, base, attr=None, subscript=None):
        if attr is not None and subscript is not None:
            raise ValueError("QN cannot be both attribute and subscript")
        if attr is not None:
            if not isinstance(base, QN):
                raise TypeError("attribute QN requires a QN base")
            self._parent = base
            self._leaf = attr
            self._kind = "attr"
        elif subscript is not None:
            if not isinstance(base, QN):
                raise TypeError("subscript QN requires a QN base")
            self._parent = base
            self._leaf = subscript
            self._kind = "sub"
        else:
            if isinstance(base, QN):
                raise TypeError("cannot wrap a QN in a QN")
            self._parent = None
            self._leaf = str(base)
            self._kind = "name"
        self._hash = hash((self._parent, self._leaf, self._kind))

    # -- structure -----------------------------------------------------------

    @property
    def is_simple(self):
        """True for a plain symbol like ``x`` (no dots/subscripts)."""
        return self._kind == "name"

    @property
    def is_composite(self):
        return self._kind != "name"

    @property
    def parent(self):
        if self._parent is None:
            raise ValueError(f"{self} is not composite")
        return self._parent

    @property
    def owner_set(self):
        """All prefixes of this QN, including itself."""
        out = {self}
        if self._parent is not None:
            out |= self._parent.owner_set
        return out

    def support_set(self):
        """The simple symbols this QN's value depends on."""
        if self.is_simple:
            return {self}
        return self._parent.support_set()

    # -- identity ---------------------------------------------------------------

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return (
            isinstance(other, QN)
            and self._kind == other._kind
            and self._leaf == other._leaf
            and self._parent == other._parent
        )

    def __str__(self):
        if self._kind == "name":
            return self._leaf
        if self._kind == "attr":
            return f"{self._parent}.{self._leaf}"
        return f"{self._parent}[{self._leaf!r}]"

    def __repr__(self):
        return f"QN({str(self)!r})"

    def ast(self):
        """An AST expression (Load ctx) denoting this QN."""
        if self._kind == "name":
            return ast.Name(id=self._leaf, ctx=ast.Load())
        if self._kind == "attr":
            return ast.Attribute(value=self._parent.ast(), attr=self._leaf,
                                 ctx=ast.Load())
        return ast.Subscript(
            value=self._parent.ast(),
            slice=ast.Constant(value=self._leaf),
            ctx=ast.Load(),
        )


class _Resolver(transformer.Base):
    """Annotates Name/Attribute/Subscript nodes with their QN."""

    def visit_Name(self, node):
        anno.setanno(node, anno.Basic.QN, QN(node.id))

    def visit_Attribute(self, node):
        self.visit(node.value)
        base = anno.getanno(node.value, anno.Basic.QN)
        if base is not None:
            anno.setanno(node, anno.Basic.QN, QN(base, attr=node.attr))

    def visit_Subscript(self, node):
        self.visit(node.value)
        self.visit(node.slice)
        base = anno.getanno(node.value, anno.Basic.QN)
        if base is None:
            return
        sl = node.slice
        if isinstance(sl, ast.Constant) and isinstance(sl.value, (int, str)):
            anno.setanno(node, anno.Basic.QN, QN(base, subscript=sl.value))
        # Non-literal subscripts have no stable QN; reads/writes fall back
        # to the base symbol in the activity analysis.


def resolve(node):
    """Annotate ``node``'s tree with QNs; returns ``node``."""
    _Resolver().visit(node)
    return node
