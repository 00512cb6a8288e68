"""AutoGraph: staged programming for Python via source code transformation.

The paper's single-function API (Section 5):

    import repro.autograph as ag

    @ag.convert()
    def f(x):
        if x > 0:           # stages into the graph IR when x is a tensor
            x = x * x
        return x

Plus the compilation directives (``set_element_type``, ``set_loop_options``),
the ``stack`` list idiom, ``to_graph`` for explicit conversion,
``to_code`` for the generated source, and
``do_not_convert`` to opt functions out.
"""

from . import converters, errors, operators, pyct
from .errors import AutoGraphError, ConversionError
from .impl.api import (convert, converted_call, do_not_convert, to_code,
                       to_graph)
from .operators.data_structures import list_stack as _list_stack

__all__ = [
    "convert",
    "to_graph",
    "to_code",
    "converted_call",
    "do_not_convert",
    "stack",
    "set_element_type",
    "set_loop_options",
    "AutoGraphError",
    "ConversionError",
    "converters",
    "operators",
    "pyct",
    "errors",
]


def stack(list_or_tensor, strict=False):
    """Stack a (possibly staged) list into a tensor (paper §7.2, Lists)."""
    return _list_stack(list_or_tensor, strict=strict)


def set_element_type(target_list, dtype, shape=None):
    """Directive: declare the staged element type of a list.

    Inside converted code this is applied at conversion time (the list
    becomes a TensorArray).  Outside converted code it is a no-op so the
    same source also runs eagerly unchanged.
    """
    del target_list, dtype, shape
    return None


def set_loop_options(**options):
    """Directive: set options (e.g. ``maximum_iterations``) on the
    innermost enclosing loop.  No-op outside converted code."""
    del options
    return None
