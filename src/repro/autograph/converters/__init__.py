"""Conversion passes, in order of application (paper §7.2)."""

from . import (
    asserts,
    break_statements,
    call_trees,
    conditional_expressions,
    continue_statements,
    control_flow,
    directives,
    function_wrappers,
    lists,
    logical_expressions,
    return_statements,
    slices,
)

# The paper's pass order: directives; break/continue/return; asserts;
# lists; slices; function calls; control flow; ternary; logical
# expressions; function wrappers.  Return lowering runs first among the
# nonlocal-flow passes because it emits `break` statements that the break
# pass then lowers; the break pass's `continue`s are lowered in the same
# walk, loop by loop (`continue_statements.lower`).  Lists and slices
# must precede call trees, whose `converted_call` would hide the calls
# they rewrite.  Ternaries and logical expressions touch disjoint node
# types and run as one walk after control flow.
PASS_ORDER = (
    directives,
    return_statements,
    break_statements,
    asserts,
    lists,
    slices,
    call_trees,
    control_flow,
    logical_expressions,
    function_wrappers,
)

__all__ = [
    "PASS_ORDER",
    "asserts",
    "break_statements",
    "call_trees",
    "conditional_expressions",
    "continue_statements",
    "control_flow",
    "directives",
    "function_wrappers",
    "lists",
    "logical_expressions",
    "return_statements",
    "slices",
]
