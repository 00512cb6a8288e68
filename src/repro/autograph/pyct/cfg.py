"""Intra-procedural control flow graphs and a generic dataflow solver (§7.1).

The CFG is built per function.  Leaf statements become nodes; compound
statements are represented by a *header* node (the test / iterate
expression) plus a synthetic *join* node marking the point after the
statement.  ``break``/``continue``/``return`` wire to the loop join, loop
header and function exit respectively.

Reaching-definitions (forward, may) and liveness (backward) run as
worklist fixpoints over this graph via :class:`GraphVisitor`.
"""

from __future__ import annotations

import ast

from . import ast_util

__all__ = ["Node", "Graph", "build", "build_all", "GraphVisitor"]


class Node:
    """A CFG node.

    Attributes:
      ast_node: the statement (or compound-statement header) this node
        represents; None for synthetic nodes.
      kind: 'stmt' | 'entry' | 'exit' | 'join'.
    """

    __slots__ = ("ast_node", "kind", "next", "prev", "id")

    _counter = [0]

    def __init__(self, ast_node, kind="stmt"):
        self.ast_node = ast_node
        self.kind = kind
        self.next = set()
        self.prev = set()
        Node._counter[0] += 1
        self.id = Node._counter[0]

    def __repr__(self):
        label = type(self.ast_node).__name__ if self.ast_node is not None else self.kind
        return f"<cfg.Node {self.id} {label}>"


class Graph:
    """The CFG of a single function."""

    def __init__(self, entry, exit_node, fn_node):
        self.entry = entry
        self.exit = exit_node
        self.fn_node = fn_node
        # ast statement -> its primary CFG node (header node for compounds)
        self.index = {}
        # compound ast statement -> its synthetic join node
        self.joins = {}
        self.nodes = []

    def add_node(self, node):
        self.nodes.append(node)
        if node.ast_node is not None and node.kind in ("stmt",):
            self.index[node.ast_node] = node
        return node

    def connect(self, a, b):
        a.next.add(b)
        b.prev.add(a)


class _Builder:
    def __init__(self, fn_node):
        self.graph = Graph(Node(None, "entry"), Node(None, "exit"), fn_node)
        self.graph.nodes.extend([self.graph.entry, self.graph.exit])
        # Stack of (loop_header, loop_join) for break/continue targets.
        self.loop_stack = []

    def build(self):
        fn = self.graph.fn_node
        leads = self._build_block(fn.body, {self.graph.entry})
        for lead in leads:
            self.graph.connect(lead, self.graph.exit)
        return self.graph

    # ``frontier`` is the set of nodes whose control falls through to the
    # next statement.  Each _build_* returns the new frontier (empty when
    # control never falls through, e.g. after a return).

    def _build_block(self, stmts, frontier):
        for stmt in stmts:
            frontier = self._build_stmt(stmt, frontier)
        return frontier

    def _leaf(self, stmt, frontier):
        node = self.graph.add_node(Node(stmt))
        for f in frontier:
            self.graph.connect(f, node)
        return node

    def _build_stmt(self, stmt, frontier):
        if isinstance(stmt, ast.If):
            return self._build_if(stmt, frontier)
        if isinstance(stmt, ast.While):
            return self._build_while(stmt, frontier)
        if isinstance(stmt, ast.For):
            return self._build_for(stmt, frontier)
        if isinstance(stmt, (ast.With,)):
            return self._build_with(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._build_try(stmt, frontier)
        if isinstance(stmt, (ast.Break,)):
            node = self._leaf(stmt, frontier)
            if self.loop_stack:
                self.graph.connect(node, self.loop_stack[-1][1])
            return set()
        if isinstance(stmt, (ast.Continue,)):
            node = self._leaf(stmt, frontier)
            if self.loop_stack:
                self.graph.connect(node, self.loop_stack[-1][0])
            return set()
        if isinstance(stmt, ast.Return):
            node = self._leaf(stmt, frontier)
            self.graph.connect(node, self.graph.exit)
            return set()
        if isinstance(stmt, ast.Raise):
            node = self._leaf(stmt, frontier)
            self.graph.connect(node, self.graph.exit)
            return set()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # A nested definition is a leaf that binds a name; its body has
            # its own CFG (see build_all).
            return {self._leaf(stmt, frontier)}
        # Simple statement.
        return {self._leaf(stmt, frontier)}

    def _build_if(self, stmt, frontier):
        header = self.graph.add_node(Node(stmt))
        self.graph.index[stmt] = header
        for f in frontier:
            self.graph.connect(f, header)
        join = self.graph.add_node(Node(stmt, "join"))
        self.graph.joins[stmt] = join

        body_out = self._build_block(stmt.body, {header})
        for n in body_out:
            self.graph.connect(n, join)
        if stmt.orelse:
            else_out = self._build_block(stmt.orelse, {header})
            for n in else_out:
                self.graph.connect(n, join)
        else:
            self.graph.connect(header, join)
        return {join}

    def _build_loop(self, stmt, frontier):
        header = self.graph.add_node(Node(stmt))
        self.graph.index[stmt] = header
        for f in frontier:
            self.graph.connect(f, header)
        join = self.graph.add_node(Node(stmt, "join"))
        self.graph.joins[stmt] = join

        self.loop_stack.append((header, join))
        body_out = self._build_block(stmt.body, {header})
        self.loop_stack.pop()
        for n in body_out:
            self.graph.connect(n, header)
        # Normal exit: test fails.
        self.graph.connect(header, join)
        if stmt.orelse:
            else_out = self._build_block(stmt.orelse, {join})
            return else_out if else_out else {join}
        return {join}

    _build_while = _build_loop
    _build_for = _build_loop

    def _build_with(self, stmt, frontier):
        header = self.graph.add_node(Node(stmt))
        self.graph.index[stmt] = header
        for f in frontier:
            self.graph.connect(f, header)
        return self._build_block(stmt.body, {header})

    def _build_try(self, stmt, frontier):
        header = self.graph.add_node(Node(stmt))
        self.graph.index[stmt] = header
        for f in frontier:
            self.graph.connect(f, header)
        join = self.graph.add_node(Node(stmt, "join"))
        self.graph.joins[stmt] = join
        body_out = self._build_block(stmt.body, {header})
        for n in body_out:
            self.graph.connect(n, join)
        for handler in stmt.handlers:
            h_out = self._build_block(handler.body, {header})
            for n in h_out:
                self.graph.connect(n, join)
        if stmt.orelse:
            else_out = self._build_block(stmt.orelse, {join})
        else:
            else_out = {join}
        if stmt.finalbody:
            return self._build_block(stmt.finalbody, else_out)
        return else_out


def build(fn_node):
    """Build the CFG of a single FunctionDef/Lambda node."""
    return _Builder(fn_node).build()


def build_all(root):
    """Build CFGs for every function under ``root``.

    Returns:
      dict mapping FunctionDef node -> Graph.
    """
    out = {}
    for node in ast_util.walk(root):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[node] = build(node)
    return out


class GraphVisitor:
    """Worklist fixpoint solver over a CFG.

    Subclasses implement ``init_state(node)`` and ``visit_node(node)``
    (returning True when the node's state changed) and choose a direction.
    """

    def __init__(self, graph):
        self.graph = graph
        self.in_ = {}
        self.out = {}

    def visit_forward(self):
        self._run(lambda n: n.next)

    def visit_reverse(self):
        self._run(lambda n: n.prev)

    def _run(self, successors):
        for node in self.graph.nodes:
            self.init_state(node)
        work = list(self.graph.nodes)
        in_work = set(id(n) for n in work)
        while work:
            node = work.pop()
            in_work.discard(id(node))
            if self.visit_node(node):
                for succ in successors(node):
                    if id(succ) not in in_work:
                        work.append(succ)
                        in_work.add(id(succ))

    # -- to be overridden ------------------------------------------------

    def init_state(self, node):
        raise NotImplementedError

    def visit_node(self, node):
        raise NotImplementedError
