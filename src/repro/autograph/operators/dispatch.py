"""Two-way dynamic dispatch (paper §6 and §8).

Every ``ag__`` operator decides at *runtime* where its construct runs, and
the decision has two outcomes: a registered staging backend claims one of
the operands (``backend_for(*values)``) and stages the construct through
its :class:`StagingBackend` method, or nobody does and the construct runs
with plain Python semantics.  The graph IR (``graph_backend.py``) is one
registrant among others — Lantern's ``Stager`` registers while it is
active — which is what makes the SCT front-end backend agnostic: an
operator never names an IR.

The protocol and its registry live in ``repro.framework.ops.dispatch``,
the lowest layer that consults them (``run_op`` offers every framework op
to the backends that stage ops).
"""

from repro.framework.ops.dispatch import (
    NOT_HANDLED,
    StagingBackend,
    backend_for,
    register_backend,
    unregister_backend,
)

__all__ = ["StagingBackend", "backend_for", "register_backend",
           "unregister_backend", "NOT_HANDLED"]
