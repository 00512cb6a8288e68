"""Framework exception hierarchy.

Errors are split along the three execution steps the paper's Appendix B
identifies: graph construction ("staging"), graph execution ("runtime"),
and — in the AutoGraph package — source conversion.
"""

from __future__ import annotations

__all__ = [
    "FrameworkError",
    "OpError",
    "InvalidArgumentError",
    "ShapeError",
    "DTypeError",
    "GraphError",
    "StagingError",
    "UnstagedConstructError",
    "ExecutionError",
    "UninitializedVariableError",
    "FetchError",
]


class FrameworkError(Exception):
    """Base class for all framework errors."""


class OpError(FrameworkError):
    """An error raised by an operation, at build or run time.

    Attributes:
      op_name: name of the offending op, when known.
    """

    def __init__(self, message, op_name=None):
        super().__init__(message)
        self.op_name = op_name


class InvalidArgumentError(OpError):
    """An op received an argument of invalid value, dtype or shape."""


class ShapeError(InvalidArgumentError):
    """Shapes are incompatible for the requested operation."""


class DTypeError(InvalidArgumentError):
    """DTypes are incompatible for the requested operation."""


class GraphError(FrameworkError):
    """Graph structure errors (wrong graph, cycles, missing ops)."""


class StagingError(FrameworkError):
    """Raised while building (staging) a graph from user code.

    Corresponds to the paper's "staging errors": legal Python that cannot
    be lowered into the target IR, e.g. inconsistent values across the
    branches of a staged conditional.
    """


class UnstagedConstructError(StagingError):
    """A staging backend does not stage this ``construct`` (``"while"``
    over Lantern values, say); ``backend`` is the backend's name."""

    def __init__(self, construct, backend):
        super().__init__(
            f"{construct}: the {backend} backend does not stage this "
            "construct")
        self.construct = construct
        self.backend = backend


class ExecutionError(OpError):
    """Raised while executing a compiled graph plan."""


class UninitializedVariableError(ExecutionError):
    """A variable was read before being initialized."""


class FetchError(FrameworkError):
    """An invalid fetch or feed was passed to ``Session.run``."""
