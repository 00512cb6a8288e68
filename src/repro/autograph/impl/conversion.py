"""Whole-function conversion driver (paper §6, General Approach).

Steps, as listed in the paper:

1. read the source and closure of the function;
2. parse to AST;
3. run each conversion pass (static analysis + transformation);
4. serialize the final AST to output code;
5. load it back as a Python function, attaching the original closure and
   globals.

Steps 4 and 5 are one here: every node of the converted tree is placed
on the user line it came from (``origin_info.locate``) and the tree
itself is compiled, under the user's own file name.  A traceback
through converted code therefore names the user's file and line
(Appendix B) with no generated file and no source map.  The generated
*text* is made only when asked for: :func:`generated_source` converts
again and unparses (``ag.to_code``), and ``ag.to_graph`` has
:func:`convert_entity` unparse the tree it converts (its result carries
``__ag_source__``, see :func:`attach_source`).

Step 5 attaches the *live* closure and globals, not a copy: the body is
compiled as ``def ag__outer(): <freevars> = None; def ag__factory(ag__):
def f(...): <converted body>; return f; return ag__factory`` and
:func:`instantiate` re-creates ``ag__factory`` per function object over
that function's own ``__globals__`` and closure cells, so one conversion
(cached per code object) serves every closure and every module with
this source, and rebinding a global later is seen as in Python.  The
function's defaults and annotations are its own values too, never
evaluated again; the converted body compiles under the user's
``__future__`` imports, not this module's.

A conversion leaves nothing behind it does not need: reading the source
does not leave the user's file in ``linecache``, and the code objects it
produced are recognised by identity (:func:`converted_from`) only while
the :class:`Conversion` lives.
"""

from __future__ import annotations

import __future__
import ast
import functools
import inspect
import linecache
import operator
import types
import weakref

from .. import converters, errors, operators
from ..pyct import origin_info, parser, templates, transformer

__all__ = ["Conversion", "convert_entity", "generated_source", "instantiate",
           "attach_source", "converted_from"]

# id of every code object a live conversion compiled -> the name of the
# user function it runs for (a branch or loop body runs for the function
# around it).  Keyed by id, not by code: code objects compare by value,
# and equal code compiled elsewhere is not a conversion's.
_CONVERTED_CODES = {}


def converted_from(code):
    """The name of the user function ``code`` was converted from, or
    ``None`` when ``code`` is not the code of a live conversion."""
    return _CONVERTED_CODES.get(id(code))


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
    if freevars:
        cells = ast.Assign(
            targets=[ast.Name(id=name, ctx=ast.Store()) for name in freevars],
            value=ast.Constant(value=None))
    else:
        cells = ast.Expr(value=ast.Constant(value=None))
    (outer,) = templates.replace(
        """
        def ag__outer():
            cells_
            def ag__factory(ag__):
                return name_
            return ag__factory
        """,
        cells_=cells,
        name_=node.name,
    )
    outer.body[1].body.insert(0, node)
    return outer


class Conversion:
    """What converting one code object produced: the compiled
    ``ag__factory``'s code object (:func:`instantiate` binds it), and the
    generated source once something asked for it (``None`` until then).

    Every converted function references its conversion
    (``__ag_conversion__``), so a conversion lives exactly as long as a
    function converted from it, or its code object in the conversion
    cache, does; its code objects leave ``_CONVERTED_CODES`` with it.
    """

    __slots__ = ("factory_code", "source", "__weakref__")

    def __init__(self, factory_code):
        self.factory_code = factory_code
        self.source = None


def _register(record, ctx):
    """Enter every code object under ``record.factory_code`` in
    ``_CONVERTED_CODES`` until ``record`` is freed."""
    ids = []
    stack = [(record.factory_code, None)]
    while stack:
        code, name = stack.pop()
        if code.co_name not in ctx.fresh_names:
            name = code.co_name
        _CONVERTED_CODES[id(code)] = name
        ids.append(id(code))
        stack.extend((const, name) for const in code.co_consts
                     if isinstance(const, types.CodeType))
    weakref.finalize(record, _forget, ids)


def _forget(ids):
    for key in ids:
        _CONVERTED_CODES.pop(key, None)


def instantiate(record, fn):
    """The converted ``fn``: its code's :class:`Conversion` bound to
    ``fn``'s own globals and closure cells."""
    factory_code = record.factory_code
    cells = dict(zip(fn.__code__.co_freevars, fn.__closure__ or ()))
    factory = types.FunctionType(
        factory_code, fn.__globals__, closure=tuple(
            cells[name] for name in factory_code.co_freevars))
    converted = factory(operators)
    converted.__defaults__ = fn.__defaults__
    converted.__kwdefaults__ = fn.__kwdefaults__
    converted.__annotations__ = fn.__annotations__
    converted.__ag_compiled__ = True
    converted.__ag_conversion__ = record
    converted.__wrapped_original__ = fn
    return converted


def _converted_tree(fn):
    """Steps 1-3: ``fn``'s converted ``FunctionDef`` inside its factory,
    and the conversion's context."""
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

    # Strip decorators: re-applying @ag.convert in converted code would
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

    return _wrap_in_factory(node, fn.__code__.co_freevars), ctx


def generated_source(fn):
    """The source AutoGraph generates for ``fn``: converted again and
    unparsed, on demand (no tree is kept between conversions)."""
    node, _ = _converted_tree(fn)
    return parser.unparse(node)


def convert_entity(fn, source=False):
    """Convert a live function's code into its staged form.

    The converted tree is compiled under ``fn``'s own file name, each
    node on its user line.  With ``source`` the tree is also unparsed
    into :attr:`Conversion.source`.

    Returns:
      The :class:`Conversion`.

    Raises:
      errors.ConversionError: when the source cannot be obtained/converted.
    """
    node, ctx = _converted_tree(fn)
    origin_info.locate(node, fn.__code__.co_firstlineno)
    module = ast.Module(body=[node], type_ignores=[])
    # Every node is located: nothing is left for the unparser's
    # ``fix_missing_locations`` to fill in.
    text = ast.unparse(module) if source else None
    _drop_signature_values(node.body[1].body[0])
    namespace = {}
    # The user's ``__future__`` imports, not this module's, decide how
    # the converted body compiles.
    exec(compile(module, ctx.info.filename, "exec", dont_inherit=True,
                 flags=fn.__code__.co_flags & _FUTURE_FLAGS), namespace)
    record = Conversion(namespace["ag__outer"]().__code__)
    _register(record, ctx)
    if source:
        _keep_source(record, text)
    return record


_FUTURE_FLAGS = functools.reduce(operator.or_, (
    getattr(__future__, name).compiler_flag
    for name in __future__.all_feature_names))


def _drop_signature_values(node):
    """Strip the defaults and annotations off the user's converted def
    (inside the factory, see :func:`_wrap_in_factory`):
    :func:`instantiate` gives the converted function the user function's
    own values, which Python evaluated in a scope the factory does not
    see (an enclosing function's locals)."""
    args = node.args
    args.defaults, args.kw_defaults = [], [None] * len(args.kwonlyargs)
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                args.vararg, args.kwarg):
        if arg is not None:
            arg.annotation = None
    node.returns = None


def _source_file(record):
    """The ``linecache`` name a conversion's generated source is kept
    under while something shows it."""
    return f"<autograph generated {id(record):#x}>"


def _keep_source(record, source):
    record.source = source
    filename = _source_file(record)
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename)
    weakref.finalize(record, linecache.cache.pop, filename, None)


def attach_source(converted):
    """Show ``converted``'s generated source (paper §10): as
    ``__ag_source__``, and to ``inspect.getsource``.

    Converted code runs under the user's file name, where ``inspect``
    finds the user's own source; ``__wrapped__`` therefore points it at
    a copy of the function whose code names the generated source's
    ``linecache`` entry (``inspect.signature`` reads the same parameters
    off the copy).  A conversion made without its source converts again
    for it.
    """
    record = converted.__ag_conversion__
    if record.source is None:
        _keep_source(record,
                     generated_source(converted.__wrapped_original__))
    view = types.FunctionType(
        converted.__code__.replace(co_filename=_source_file(record),
                                   co_firstlineno=1),
        converted.__globals__, converted.__name__, converted.__defaults__,
        converted.__closure__)
    view.__kwdefaults__ = converted.__kwdefaults__
    view.__annotations__ = converted.__annotations__
    converted.__wrapped__ = view
    converted.__ag_source__ = record.source
