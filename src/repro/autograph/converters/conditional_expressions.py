"""Ternary conversion (paper §7.2, Ternary Conditional Expressions).

``x if cond else y`` converts inline to ``ag__.if_exp(cond, lambda: x,
lambda: y)``; thunks preserve lazy branch evaluation.  The walk of the
logical-expressions pass does this conversion too: the two passes touch
disjoint node types, so one walk serves both.
"""

from __future__ import annotations

from ..pyct import templates, transformer

__all__ = ["Transformer"]


class Transformer(transformer.Base):
    def visit_IfExp(self, node):
        self.generic_visit(node)
        return templates.replace_as_expression(
            "ag__.if_exp(cond_, lambda: true_, lambda: false_)",
            cond_=node.test,
            true_=node.body,
            false_=node.orelse,
        )
