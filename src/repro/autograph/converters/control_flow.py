"""Control flow conversion (paper §7.2, Control Flow).

Replaces ``if``/``while``/``for`` statements with calls to the
dynamically-dispatched operators:

- ``if``: stateless; branches become niladic functions returning the
  symbols either branch modifies that are live afterwards.  Symbols the
  branch does not define are aliased from the enclosing scope (renamed to
  fresh names, exactly as in the paper's Listing 1); symbols possibly
  undefined at entry are reified with ``ag__.Undefined``.
- ``while``/``for``: stateful; the test and body become functions whose
  parameters and return values are the loop state — the symbols modified
  in the body that are live at the loop header.

All decisions come from the Section 7.1 analyses (activity, reaching
definitions, liveness) that ran immediately before this pass.
"""

from __future__ import annotations

import ast

from ..core import converter
from ..pyct import anno, ast_util, templates, transformer

__all__ = ["transform"]


def _modified_simple(scope):
    return scope.modified_simple if scope is not None else set()


def _opts_expression(node):
    directives = anno.getanno(node, anno.Basic.DIRECTIVES)
    if not directives:
        return ast.Constant(value=None)
    keys = []
    values = []
    for key, value_expr in directives.items():
        keys.append(ast.Constant(value=str(key)))
        values.append(value_expr)
    return ast.Dict(keys=keys, values=values)


def _names_tuple(names):
    return ast.Tuple(
        elts=[ast.Constant(value=n) for n in names], ctx=ast.Load()
    )


def _symbols_tuple(names, ctx_type=ast.Load):
    return ast.Tuple(
        elts=[ast.Name(id=n, ctx=ctx_type()) for n in names], ctx=ctx_type()
    )


def _expr_reads(expr):
    return {
        n.id for n in ast_util.walk(expr)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


class _ControlFlowTransformer(transformer.Base):
    # ------------------------------------------------------------------ if

    def visit_If(self, node):
        self.generic_visit(node)

        body_scope = anno.getanno(node, anno.Static.BODY_SCOPE)
        orelse_scope = anno.getanno(node, anno.Static.ORELSE_SCOPE)
        live_out = anno.getanno(node, anno.Static.LIVE_VARS_OUT, default=set())
        defined = anno.getanno(node, anno.Static.DEFINED_VARS_IN)

        modified = _modified_simple(body_scope) | _modified_simple(orelse_scope)
        state = sorted(modified & set(live_out))

        # Symbols both read and modified inside a branch must be aliased
        # (renamed to branch-locals seeded from the enclosing scope) even
        # when they are not live afterwards — otherwise the assignment
        # would shadow them as locals of the generated branch function and
        # break reads that expect the outer value.
        reads = (
            {str(q) for q in body_scope.read if q.is_simple}
            | {str(q) for q in orelse_scope.read if q.is_simple}
        ) if body_scope is not None and orelse_scope is not None else set()
        aliased = sorted(set(state) | (modified & reads))

        undefined = [
            s for s in aliased
            if defined is not None and defined.possibly_undefined(s)
        ]

        body_name = self.ctx.fresh_name("if_body")
        orelse_name = self.ctx.fresh_name("else_body")

        out = []
        for sym in undefined:
            out.extend(
                templates.replace(
                    "sym_ = ag__.Undefined(name_)",
                    sym_=sym,
                    name_=ast.Constant(value=sym),
                )
            )

        out.append(self._make_branch_fn(body_name, node.body, state, aliased))
        out.append(self._make_branch_fn(orelse_name, node.orelse, state, aliased))

        call = templates.replace_as_expression(
            "ag__.if_stmt(test_, body_name_, orelse_name_, names_)",
            body_name_=body_name,
            orelse_name_=orelse_name,
            names_=_names_tuple(state),
        )
        call.args[0] = node.test  # installed: the template would copy it
        if state:
            out.append(
                ast.Assign(
                    targets=[_symbols_tuple(state, ast.Store)], value=call
                )
            )
        else:
            out.append(ast.Expr(value=call))
        return out

    def _make_branch_fn(self, fn_name, body_stmts, state, aliased=None):
        """Build ``def fn(): <aliases>; <renamed body>; return (...)``."""
        aliased = aliased if aliased is not None else list(state)
        rename_map = {s: self.ctx.fresh_name(f"{s}__") for s in aliased}
        aliases = [
            ast.Assign(
                targets=[ast.Name(id=rename_map[s], ctx=ast.Store())],
                value=ast.Name(id=s, ctx=ast.Load()),
            )
            for s in aliased
        ]
        renamed_body = ast_util.rename_symbols(list(body_stmts), rename_map)
        ret = ast.Return(
            value=ast.Tuple(
                elts=[ast.Name(id=rename_map[s], ctx=ast.Load()) for s in state],
                ctx=ast.Load(),
            )
        )
        return ast.FunctionDef(
            name=fn_name,
            args=ast.arguments(
                posonlyargs=[], args=[], vararg=None, kwonlyargs=[],
                kw_defaults=[], kwarg=None, defaults=[],
            ),
            body=aliases + renamed_body + [ret],
            decorator_list=[],
            returns=None,
        )

    # ------------------------------------------------------------- while

    def visit_While(self, node):
        self.generic_visit(node)

        body_scope = anno.getanno(node, anno.Static.BODY_SCOPE)
        live_header = anno.getanno(
            node, anno.Static.LIVE_VARS_IN_HEADER, default=set()
        )
        defined = anno.getanno(node, anno.Static.DEFINED_VARS_IN)

        state = sorted(_modified_simple(body_scope) & set(live_header))

        test_name = self.ctx.fresh_name("loop_test")
        body_name = self.ctx.fresh_name("loop_body")

        out = []
        for sym in state:
            if defined is not None and defined.possibly_undefined(sym):
                out.extend(
                    templates.replace(
                        "sym_ = ag__.Undefined(name_)",
                        sym_=sym,
                        name_=ast.Constant(value=sym),
                    )
                )

        out.append(self._make_state_fn(
            test_name, state, [ast.Return(value=node.test)]
        ))
        body_ret = ast.Return(value=_symbols_tuple(state))
        out.append(self._make_state_fn(
            body_name, state, list(node.body) + [body_ret]
        ))

        call = templates.replace_as_expression(
            "ag__.while_stmt(test_name_, body_name_, init_, names_, opts_)",
            test_name_=test_name,
            body_name_=body_name,
            init_=_symbols_tuple(state),
            names_=_names_tuple(state),
            opts_=_opts_expression(node),
        )
        if state:
            out.append(
                ast.Assign(
                    targets=[_symbols_tuple(state, ast.Store)], value=call
                )
            )
        else:
            out.append(ast.Expr(value=call))
        # A while...else with no break always runs the else after the loop
        # (break-containing loops had their else lowered by the break pass).
        out.extend(node.orelse)
        return out

    def _make_state_fn(self, fn_name, state, body):
        return ast.FunctionDef(
            name=fn_name,
            args=ast.arguments(
                posonlyargs=[],
                args=[ast.arg(arg=s) for s in state],
                vararg=None, kwonlyargs=[], kw_defaults=[], kwarg=None,
                defaults=[],
            ),
            body=body,
            decorator_list=[],
            returns=None,
        )

    # --------------------------------------------------------------- for

    def visit_For(self, node):
        self.generic_visit(node)

        body_scope = anno.getanno(node, anno.Static.BODY_SCOPE)
        live_header = anno.getanno(
            node, anno.Static.LIVE_VARS_IN_HEADER, default=set()
        )
        live_out = anno.getanno(node, anno.Static.LIVE_VARS_OUT, default=set())
        defined = anno.getanno(node, anno.Static.DEFINED_VARS_IN)
        extra_test_expr = anno.getanno(node, anno.Basic.EXTRA_LOOP_TEST)

        targets = {
            n.id for n in ast_util.walk(node.target)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
        modified = _modified_simple(body_scope)
        state = (modified & set(live_header)) - targets
        # A loop variable leaking past the loop must thread through state.
        state |= targets & set(live_out)
        if extra_test_expr is not None:
            # Flags read by the injected extra test live outside the tree
            # the liveness pass saw; keep them in state explicitly.
            state |= _expr_reads(extra_test_expr) & (modified | targets)
        state = sorted(state)

        body_name = self.ctx.fresh_name("loop_body")
        iterate_name = self.ctx.fresh_name("itr")

        out = []
        for sym in state:
            if defined is not None and defined.possibly_undefined(sym):
                out.extend(
                    templates.replace(
                        "sym_ = ag__.Undefined(name_)",
                        sym_=sym,
                        name_=ast.Constant(value=sym),
                    )
                )

        if extra_test_expr is not None:
            extra_name = self.ctx.fresh_name("extra_test")
            out.append(self._make_state_fn(
                extra_name, state, [ast.Return(value=extra_test_expr)]
            ))
            extra_ref = ast.Name(id=extra_name, ctx=ast.Load())
        else:
            extra_ref = ast.Constant(value=None)

        target_assign = ast.Assign(
            targets=[node.target],
            value=ast.Name(id=iterate_name, ctx=ast.Load()),
        )
        body_ret = ast.Return(value=_symbols_tuple(state))
        body_fn = ast.FunctionDef(
            name=body_name,
            args=ast.arguments(
                posonlyargs=[],
                args=[ast.arg(arg=iterate_name)] + [ast.arg(arg=s) for s in state],
                vararg=None, kwonlyargs=[], kw_defaults=[], kwarg=None,
                defaults=[],
            ),
            body=[target_assign] + list(node.body) + [body_ret],
            decorator_list=[],
            returns=None,
        )
        out.append(body_fn)

        call = templates.replace_as_expression(
            "ag__.for_stmt(iter_, extra_, body_name_, init_, names_, opts_)",
            extra_=extra_ref,
            body_name_=body_name,
            init_=_symbols_tuple(state),
            names_=_names_tuple(state),
            opts_=_opts_expression(node),
        )
        call.args[0] = node.iter  # installed: the template would copy it
        if state:
            out.append(
                ast.Assign(
                    targets=[_symbols_tuple(state, ast.Store)], value=call
                )
            )
        else:
            out.append(ast.Expr(value=call))
        out.extend(node.orelse)
        return out


def transform(node, ctx):
    converter.analyze(node)
    return _ControlFlowTransformer(ctx).visit(node)
