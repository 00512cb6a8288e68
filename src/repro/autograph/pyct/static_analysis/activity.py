"""Activity analysis: symbols read and modified per statement (§7.1).

Annotates AST nodes with :class:`Scope` objects listing the qualified
names each statement reads and modifies.  Only *direct* modifications
count as writes: ``a.b = c`` modifies ``a.b`` and reads ``a``, but does
not modify ``a`` (paper §7.1).

Function and lambda bodies are *isolated* scopes: their local writes stay
local, while their free reads propagate to the enclosing statement (a
closure read is a read at the definition site for liveness purposes).
"""

from __future__ import annotations

import ast

from .. import anno, transformer
from ..qual_names import QN

__all__ = ["Scope", "resolve"]


class Scope:
    """Symbols read/modified/bound within a syntactic region."""

    def __init__(self, parent=None, isolated=False):
        self.parent = parent
        self.isolated = isolated
        self.read = set()
        self.modified = set()
        self.bound = set()      # params and scope-local bindings
        self.deleted = set()
        self.globals = set()
        self.nonlocals = set()

    def mark_read(self, qn):
        self.read.add(qn)

    def mark_modified(self, qn):
        self.modified.add(qn)

    def mark_bound(self, qn):
        self.bound.add(qn)

    def merge_into_parent(self):
        """Propagate activity to the parent scope on region exit."""
        if self.parent is None:
            return
        if self.isolated:
            # Only free reads escape an isolated (function) scope.
            free_reads = {
                qn for qn in self.read
                if not (qn.support_set() & {b for b in self.bound if b.is_simple})
            }
            self.parent.read |= free_reads
        else:
            self.parent.read |= self.read
            self.parent.modified |= self.modified
            self.parent.bound |= self.bound
            self.parent.deleted |= self.deleted

    @property
    def modified_simple(self):
        """Plain (non-composite) modified symbol names, as strings."""
        return {str(qn) for qn in self.modified if qn.is_simple}

    @property
    def read_simple(self):
        return {str(qn) for qn in self.read if qn.is_simple}

    def __repr__(self):
        return (
            f"Scope(read={sorted(map(str, self.read))}, "
            f"modified={sorted(map(str, self.modified))})"
        )


def _qn_of(node):
    return anno.getanno(node, anno.Basic.QN)


class _Analyzer(transformer.Base):
    def __init__(self):
        super().__init__()
        self.scope = Scope()

    # -- scope plumbing ----------------------------------------------------

    def _enter(self, isolated=False):
        self.scope = Scope(parent=self.scope, isolated=isolated)
        return self.scope

    def _exit(self):
        scope = self.scope
        scope.merge_into_parent()
        self.scope = scope.parent
        return scope

    def _scoped_visit(self, nodes, isolated=False):
        self._enter(isolated=isolated)
        if isinstance(nodes, list):
            for n in nodes:
                self.visit(n)
        elif nodes is not None:
            self.visit(nodes)
        return self._exit()

    # -- leaves -------------------------------------------------------------

    def visit_Name(self, node):
        qn = _qn_of(node)
        if qn is None:
            return
        if isinstance(node.ctx, ast.Load):
            self.scope.mark_read(qn)
        elif isinstance(node.ctx, ast.Store):
            self.scope.mark_modified(qn)
            self.scope.mark_bound(qn)
        elif isinstance(node.ctx, ast.Del):
            self.scope.deleted.add(qn)

    def visit_Attribute(self, node):
        qn = _qn_of(node)
        if isinstance(node.ctx, ast.Store) and qn is not None:
            self.scope.mark_modified(qn)
            # Setting a.b reads a.
            self._visit_as_load(node.value)
        elif isinstance(node.ctx, ast.Load) and qn is not None:
            self.scope.mark_read(qn)
            self._visit_as_load(node.value)
        else:
            self.generic_visit(node)

    def visit_Subscript(self, node):
        qn = _qn_of(node)
        if isinstance(node.ctx, ast.Store):
            if qn is not None:
                self.scope.mark_modified(qn)
            else:
                base = _qn_of(node.value)
                if base is not None:
                    # Dynamic index write: x[i] = v reads and "composite
                    # modifies" x; record a read so liveness keeps x.
                    self.scope.mark_read(base)
            self._visit_as_load(node.value)
            self.visit(node.slice)
        else:
            if qn is not None:
                self.scope.mark_read(qn)
            self._visit_as_load(node.value)
            self.visit(node.slice)

    def _visit_as_load(self, node):
        # Visit a sub-expression in read position.
        self.visit(node)

    # -- statements ----------------------------------------------------------

    def _annotate_stmt(self, node):
        scope = self._enter()
        self.generic_visit(node)
        self._exit()
        anno.setanno(node, anno.Static.SCOPE, scope)

    def visit_Assign(self, node):
        scope = self._enter()
        self.visit(node.value)
        for target in node.targets:
            self.visit(target)
        self._exit()
        anno.setanno(node, anno.Static.SCOPE, scope)

    def visit_AugAssign(self, node):
        scope = self._enter()
        self.visit(node.value)
        # x += 1 both reads and writes x.
        target_qn = _qn_of(node.target)
        if target_qn is not None:
            self.scope.mark_read(target_qn)
        self.visit(node.target)
        self._exit()
        anno.setanno(node, anno.Static.SCOPE, scope)

    def visit_AnnAssign(self, node):
        scope = self._enter()
        if node.value is not None:
            self.visit(node.value)
        self.visit(node.target)
        self._exit()
        anno.setanno(node, anno.Static.SCOPE, scope)

    def visit_Expr(self, node):
        self._annotate_stmt(node)

    def visit_Return(self, node):
        self._annotate_stmt(node)

    def visit_Delete(self, node):
        self._annotate_stmt(node)

    def visit_Assert(self, node):
        self._annotate_stmt(node)

    def visit_Raise(self, node):
        self._annotate_stmt(node)

    def visit_Global(self, node):
        for name in node.names:
            self.scope.globals.add(QN(name))

    def visit_Nonlocal(self, node):
        for name in node.names:
            self.scope.nonlocals.add(QN(name))

    # -- compound statements -----------------------------------------------------

    def visit_If(self, node):
        outer = self._enter()
        cond_scope = self._scoped_visit(node.test)
        anno.setanno(node, anno.Static.COND_SCOPE, cond_scope)
        body_scope = self._scoped_visit(node.body)
        anno.setanno(node, anno.Static.BODY_SCOPE, body_scope)
        orelse_scope = self._scoped_visit(node.orelse)
        anno.setanno(node, anno.Static.ORELSE_SCOPE, orelse_scope)
        self._exit()
        anno.setanno(node, anno.Static.SCOPE, outer)

    def visit_While(self, node):
        outer = self._enter()
        cond_scope = self._scoped_visit(node.test)
        anno.setanno(node, anno.Static.COND_SCOPE, cond_scope)
        body_scope = self._scoped_visit(node.body)
        anno.setanno(node, anno.Static.BODY_SCOPE, body_scope)
        if node.orelse:
            self._scoped_visit(node.orelse)
        self._exit()
        anno.setanno(node, anno.Static.SCOPE, outer)

    def visit_For(self, node):
        outer = self._enter()
        iterate_scope = self._scoped_visit(node.iter)
        anno.setanno(node, anno.Static.ITERATE_SCOPE, iterate_scope)
        # The target is written by the loop machinery on each iteration.
        self.visit(node.target)
        body_scope = self._scoped_visit(node.body)
        anno.setanno(node, anno.Static.BODY_SCOPE, body_scope)
        if node.orelse:
            self._scoped_visit(node.orelse)
        self._exit()
        anno.setanno(node, anno.Static.SCOPE, outer)

    def visit_With(self, node):
        outer = self._enter()
        for item in node.items:
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        body_scope = self._scoped_visit(node.body)
        anno.setanno(node, anno.Static.BODY_SCOPE, body_scope)
        self._exit()
        anno.setanno(node, anno.Static.SCOPE, outer)

    def visit_Try(self, node):
        outer = self._enter()
        self._scoped_visit(node.body)
        for handler in node.handlers:
            if handler.name:
                self.scope.mark_bound(QN(handler.name))
                self.scope.mark_modified(QN(handler.name))
            self._scoped_visit(handler.body)
        self._scoped_visit(node.orelse)
        self._scoped_visit(node.finalbody)
        self._exit()
        anno.setanno(node, anno.Static.SCOPE, outer)

    # -- nested callables: isolated scopes -------------------------------------------

    def visit_FunctionDef(self, node):
        # The def itself binds the function name in the enclosing scope.
        self.scope.mark_modified(QN(node.name))
        self.scope.mark_bound(QN(node.name))
        for dec in node.decorator_list:
            self.visit(dec)
        for default in list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]:
            self.visit(default)

        fn_scope = self._enter(isolated=True)
        args = node.args
        for a in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            fn_scope.mark_bound(QN(a.arg))
        if args.vararg:
            fn_scope.mark_bound(QN(args.vararg.arg))
        if args.kwarg:
            fn_scope.mark_bound(QN(args.kwarg.arg))
        anno.setanno(node, anno.Static.ARGS_SCOPE, fn_scope)
        for stmt in node.body:
            self.visit(stmt)
        self._exit()
        anno.setanno(node, anno.Static.BODY_SCOPE, fn_scope)
        scope = Scope()
        scope.modified = {QN(node.name)}
        scope.bound = {QN(node.name)}
        # Free reads of the nested function count as reads at the def site
        # (conservative: the closure may be called any time after binding).
        bound_simple = {b for b in fn_scope.bound if b.is_simple}
        scope.read = {
            qn for qn in fn_scope.read if not (qn.support_set() & bound_simple)
        }
        anno.setanno(node, anno.Static.SCOPE, scope)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        for default in list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]:
            self.visit(default)
        fn_scope = self._enter(isolated=True)
        for a in node.args.args:
            fn_scope.mark_bound(QN(a.arg))
        if node.args.vararg:
            fn_scope.mark_bound(QN(node.args.vararg.arg))
        if node.args.kwarg:
            fn_scope.mark_bound(QN(node.args.kwarg.arg))
        self.visit(node.body)
        self._exit()
        anno.setanno(node, anno.Static.BODY_SCOPE, fn_scope)

    def _visit_comprehension(self, node):
        comp_scope = self._enter(isolated=True)
        for gen in node.generators:
            self.visit(gen.iter)
            self.visit(gen.target)
            for cond in gen.ifs:
                self.visit(cond)
        if isinstance(node, ast.DictComp):
            self.visit(node.key)
            self.visit(node.value)
        else:
            self.visit(node.elt)
        self._exit()

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


def resolve(node):
    """Run activity analysis over ``node`` (QNs must be resolved first)."""
    analyzer = _Analyzer()
    analyzer.visit(node)
    return node
