"""Assert statement overload (paper §7.2, Assert Statements)."""

from __future__ import annotations

from repro.framework import ops
from repro.framework import Tensor as SymbolicTensor

__all__ = ["assert_stmt"]


def assert_stmt(expression_fn, message_fn=None):
    """Functional overload of ``assert``.

    Args:
      expression_fn: thunk evaluating the asserted expression.
      message_fn: optional thunk evaluating the assertion message.
    """
    expression = expression_fn()
    if isinstance(expression, SymbolicTensor):
        message = message_fn() if message_fn is not None else "Assertion failed"
        data = []
        if isinstance(message, SymbolicTensor):
            data = [message]
            message = "Assertion failed"
        out = ops.assert_op(expression, data=data, message=str(message))
        from .function_wrappers import register_side_effect

        register_side_effect(out)
        return None
    if not expression:
        if message_fn is not None:
            raise AssertionError(message_fn())
        raise AssertionError()
    return None
