"""Shared helpers for CFG-based analyses: per-node gen/kill extraction."""

from __future__ import annotations

import ast

from .. import anno, ast_util

__all__ = ["node_reads_writes", "target_names", "DefinednessInfo"]


def target_names(target):
    """Simple names bound by an assignment/loop target node."""
    names = set()
    for node in ast_util.walk(target):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def _simple_reads(scope):
    """Simple-name reads of a scope: plain reads plus composite supports."""
    reads = set()
    for qn in scope.read:
        for s in qn.support_set():
            reads.add(str(s))
    return reads


def node_reads_writes(cfg_node):
    """(reads, writes) of simple symbol names for a CFG node.

    Compound-statement header nodes contribute only their test/iterate
    activity; their bodies are separate CFG nodes.
    """
    node = cfg_node.ast_node
    if node is None or cfg_node.kind == "join":
        return set(), set()

    if isinstance(node, ast.If) or isinstance(node, ast.While):
        cond_scope = anno.getanno(node, anno.Static.COND_SCOPE)
        reads = _simple_reads(cond_scope) if cond_scope else set()
        return reads, set()
    if isinstance(node, ast.For):
        iterate_scope = anno.getanno(node, anno.Static.ITERATE_SCOPE)
        reads = _simple_reads(iterate_scope) if iterate_scope else set()
        # Injected extra loop tests (break/return lowering) read their
        # flags "at the header" even though the expression lives in an
        # annotation rather than the tree; keep those flags live.
        extra_test = anno.getanno(node, anno.Basic.EXTRA_LOOP_TEST)
        if extra_test is not None:
            reads |= _expr_reads(extra_test)
        return reads, target_names(node.target)
    if isinstance(node, (ast.With, ast.Try)):
        scope = anno.getanno(node, anno.Static.SCOPE)
        # Headers of with/try only: approximate with empty activity (their
        # bodies carry the real reads/writes).
        if isinstance(node, ast.With):
            reads = set()
            writes = set()
            for item in node.items:
                sub = _expr_reads(item.context_expr)
                reads |= sub
                if item.optional_vars is not None:
                    writes |= target_names(item.optional_vars)
            return reads, writes
        return set(), set()

    scope = anno.getanno(node, anno.Static.SCOPE)
    if scope is None:
        return set(), set()
    reads = _simple_reads(scope)
    writes = {str(qn) for qn in scope.modified if qn.is_simple}
    return reads, writes


def _expr_reads(expr):
    reads = set()
    for node in ast_util.walk(expr):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
    return reads


class DefinednessInfo:
    """Attached to compound statements by reaching-definitions analysis.

    Attributes:
      defined_in: local symbols with at least one reaching definition at
        statement entry ("possibly defined").
      local_syms: all symbols bound anywhere in the enclosing function;
        symbols outside this set resolve to globals/closure and are never
        considered undefined.
    """

    __slots__ = ("defined_in", "local_syms")

    def __init__(self, defined_in, local_syms):
        self.defined_in = frozenset(defined_in)
        self.local_syms = frozenset(local_syms)

    def possibly_undefined(self, symbol):
        """True when ``symbol`` may be unbound at statement entry."""
        return symbol in self.local_syms and symbol not in self.defined_in

    def __repr__(self):
        return f"DefinednessInfo(defined_in={sorted(self.defined_in)})"
