"""The shared analysis runner (paper §7).

A conversion pass that needs dataflow facts runs the static analyses over
the (already partially transformed) tree just before it transforms — the
"multiple passes, each preceded by static analysis" structure of §6.  One
pass does today: ``converters/control_flow.py``, which reads scopes,
liveness and reaching definitions to find the symbols a staged ``if`` or
loop must thread.
"""

from __future__ import annotations

from ..pyct import cfg, qual_names
from ..pyct.static_analysis import activity, liveness, reaching_definitions

__all__ = ["analyze"]


def analyze(node):
    """Run the full §7.1 analysis stack over ``node``; returns ``node``."""
    qual_names.resolve(node)
    activity.resolve(node)
    graphs = cfg.build_all(node)
    reaching_definitions.resolve(node, graphs)
    liveness.resolve(node, graphs)
    return node
