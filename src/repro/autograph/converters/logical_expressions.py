"""Logical expression conversion (paper §7.2, Logical Expressions).

``and``/``or``/``not`` cannot be overloaded in Python, and ``==`` is
deliberately not overloaded on tensors; these convert inline to the
dispatched operator functions, with thunks preserving lazy evaluation of
boolean chains.  The same walk converts ternaries
(``conditional_expressions``).
"""

from __future__ import annotations

import ast

from ..pyct import templates
from . import conditional_expressions

__all__ = ["transform"]


class _LogicalTransformer(conditional_expressions.Transformer):
    """Converts logical expressions and, inherited, ternaries."""

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        op_name = "and_" if isinstance(node.op, ast.And) else "or_"
        # Fold a chain right-associatively: a and b and c
        #   -> and_(lambda: a, lambda: and_(lambda: b, lambda: c))
        result = node.values[-1]
        for value in reversed(node.values[:-1]):
            result = templates.replace_as_expression(
                f"ag__.{op_name}(lambda: left_, lambda: right_)",
                left_=value,
                right_=result,
            )
        return result

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Not):
            return templates.replace_as_expression(
                "ag__.not_(operand_)", operand_=node.operand
            )
        return node

    def visit_Compare(self, node):
        self.generic_visit(node)
        # Only single comparisons convert; chains (a < b < c) keep Python
        # semantics (a documented limitation, rare on tensors).
        if len(node.ops) != 1:
            return node
        op = node.ops[0]
        if isinstance(op, ast.Eq):
            fn = "eq"
        elif isinstance(op, ast.NotEq):
            fn = "not_eq"
        else:
            # <, <=, >, >= dispatch through the tensor operator overloads;
            # is/in have no tensor equivalent.
            return node
        return templates.replace_as_expression(
            f"ag__.{fn}(left_, right_)",
            left_=node.left,
            right_=node.comparators[0],
        )


def transform(node, ctx):
    return _LogicalTransformer(ctx).visit(node)
