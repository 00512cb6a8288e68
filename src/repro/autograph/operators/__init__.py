"""Operator library: the runtime that converted code dispatches into.

Generated code references this package under the alias ``ag__``.  Every
function here implements the paper's *dynamic dispatch* (Section 6):
inspect the runtime types, stage through the backend that claims them
(``dispatch.backend_for``), and fall back to plain Python semantics
otherwise.
"""

from . import graph_backend  # noqa: F401 - registers the graph IR
from .control_flow import for_stmt, if_exp, if_stmt, while_stmt
from .data_structures import (
    list_append,
    list_pop,
    list_stack,
    new_list,
    new_list_of_type,
)
from .dispatch import register_backend, unregister_backend
from .exceptions import assert_stmt
from .function_wrappers import FunctionScope, with_function_scope
from .logical import and_, eq, gt_, gt_e, lt_, lt_e, not_, not_eq, or_
from .py_builtins import (
    abs_,
    float_,
    int_,
    len_,
    overload_of,
    print_,
    range_,
)
from .slices import get_item, set_item
from .variables import Undefined, UndefinedReturnValue, ld, ldu

# ``converted_call`` lives in impl.api but is referenced from generated
# code as ``ag__.converted_call``; forward lazily to avoid the circular
# import (api -> operators -> api).
_api = None


def converted_call(f, args=(), kwargs=None):
    """Forward to :func:`repro.autograph.impl.api.converted_call`."""
    global _api
    if _api is None:
        from ..impl import api as _api_module

        _api = _api_module
    return _api.converted_call(f, args, kwargs)

__all__ = [
    "converted_call",
    "if_stmt",
    "while_stmt",
    "for_stmt",
    "if_exp",
    "and_",
    "or_",
    "not_",
    "eq",
    "not_eq",
    "gt_",
    "gt_e",
    "lt_",
    "lt_e",
    "new_list",
    "new_list_of_type",
    "list_append",
    "list_pop",
    "list_stack",
    "get_item",
    "set_item",
    "print_",
    "len_",
    "range_",
    "int_",
    "float_",
    "abs_",
    "overload_of",
    "assert_stmt",
    "FunctionScope",
    "with_function_scope",
    "Undefined",
    "UndefinedReturnValue",
    "ld",
    "ldu",
    "register_backend",
    "unregister_backend",
]
