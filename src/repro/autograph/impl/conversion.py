"""Whole-function conversion driver (paper §6, General Approach).

Steps, as listed in the paper:

1. read the source and closure of the function;
2. parse to AST;
3. run each conversion pass (static analysis + transformation);
4. serialize the final AST to output code;
5. load it back as a Python function, attaching the original closure and
   globals.

Step 5 attaches the *live* closure and globals, not a copy: the body is
emitted as ``def ag__outer(): <freevars> = None; def ag__factory(ag__):
def f(...): <converted body>; return f; return ag__factory`` and
:func:`instantiate` re-creates ``ag__factory`` per function object over
that function's own ``__globals__`` and closure cells, so one conversion
(cached per code object) serves every closure and every module with
this source, and rebinding a global later is seen as in Python.
"""

from __future__ import annotations

import ast
import inspect
import types

from .. import converters, errors, operators
from ..pyct import loader, origin_info, parser, transformer

__all__ = ["convert_entity", "instantiate", "is_generated_file", "GENERATED_PREFIX"]

GENERATED_PREFIX = "repro_generated_"


def is_generated_file(filename):
    return GENERATED_PREFIX in filename


def _lambda_to_functiondef(lambda_node, name):
    return ast.FunctionDef(
        name=name,
        args=lambda_node.args,
        body=[ast.Return(value=lambda_node.body)],
        decorator_list=[],
        returns=None,
    )


def _wrap_in_factory(node, freevars):
    """The factory AST around a converted ``FunctionDef`` (see module
    docstring); the free variables become cells of ``ag__outer``."""
    outer = ast.parse(
        f"def ag__outer():\n    {' = '.join(freevars + ('None',))}\n"
        f"    def ag__factory(ag__):\n        return {node.name}\n"
        "    return ag__factory").body[0]
    outer.body[1].body.insert(0, node)
    return outer


def instantiate(record, fn):
    """The converted ``fn``: its code's conversion ``record`` bound to
    ``fn``'s own globals and closure cells."""
    factory_code, generated_source = record
    cells = dict(zip(fn.__code__.co_freevars, fn.__closure__ or ()))
    factory = types.FunctionType(
        factory_code, fn.__globals__, closure=tuple(
            cells[name] for name in factory_code.co_freevars))
    converted = factory(operators)
    converted.__ag_compiled__ = True
    converted.__ag_source__ = generated_source
    converted.__wrapped_original__ = fn
    return converted


def convert_entity(fn):
    """Convert a live function's code into its staged form.

    Returns:
      (factory_code, generated_source): the generated ``ag__factory``'s
      code object (:func:`instantiate` binds it) and the source.

    Raises:
      errors.ConversionError: when the source cannot be obtained/converted.
    """
    try:
        node, source = parser.parse_entity(fn)
    except parser.ConversionSourceError as e:
        raise errors.ConversionError(str(e)) from e

    entity_name = fn.__name__ if fn.__name__ != "<lambda>" else "lam"
    if isinstance(node, ast.Lambda):
        node = _lambda_to_functiondef(node, entity_name)
        ast.fix_missing_locations(node)

    filename = inspect.getsourcefile(fn) or "<unknown>"
    lineno_offset = max(fn.__code__.co_firstlineno - 1, 0)
    origin_info.resolve(node, source, filename, entity_name, lineno_offset)

    # Strip decorators: re-applying @ag.convert in generated code would
    # recurse (§6 step 1 obtains the undecorated function body).
    node.decorator_list = []

    info = transformer.EntityInfo(
        name=entity_name,
        source=source,
        filename=filename,
        namespace=fn.__globals__,
    )
    ctx = transformer.Context(info)

    try:
        for conversion_pass in converters.PASS_ORDER:
            node = conversion_pass.transform(node, ctx)
    except errors.AutoGraphError:
        raise
    except Exception as e:
        raise errors.ConversionError(
            f"Failed to convert {entity_name!r}: {type(e).__name__}: {e}"
        ) from e

    node = _wrap_in_factory(node, fn.__code__.co_freevars)
    module, generated_source, generated_filename = loader.ast_to_object(node)
    source_map = origin_info.create_source_map(
        node, generated_source, generated_filename
    )
    errors.register_source_map(generated_filename, source_map)
    return module.ag__outer().__code__, generated_source
