"""Assert conversion (paper §7.2, Assert Statements).

``assert e, msg`` is converted in-place to the overloadable functional
form ``ag__.assert_stmt(lambda: e, lambda: msg)``; thunks preserve the
lazy evaluation of the message.
"""

from __future__ import annotations

from ..pyct import templates, transformer

__all__ = ["transform"]


class _AssertTransformer(transformer.Base):
    def visit_Assert(self, node):
        self.generic_visit(node)
        if node.msg is None:
            return templates.replace(
                "ag__.assert_stmt(lambda: test_)", test_=node.test
            )
        return templates.replace(
            "ag__.assert_stmt(lambda: test_, lambda: msg_)",
            test_=node.test,
            msg_=node.msg,
        )


def transform(node, ctx):
    return _AssertTransformer(ctx).visit(node)
