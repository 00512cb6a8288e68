"""Public AutoGraph API: ``convert``, ``to_graph``, ``to_code``,
``converted_call``.

``converted_call`` is the runtime heart of §7.2 (Function Calls): every
call site in converted code routes through it, and it decides — per the
target's runtime type — to recursively convert, substitute an overload
(builtins), or call unconverted (allowlisted modules, constructors,
functions without source).
"""

from __future__ import annotations

import functools
import inspect
import weakref

from repro import _user_frame
from repro.framework.ops import dispatch as fw_dispatch

from .. import errors
from ..core.config import is_allowlisted_module
from ..operators import py_builtins
from . import conversion

__all__ = ["convert", "to_graph", "to_code", "converted_function",
           "converted_call", "do_not_convert"]

# Code object (compared by value: shared by all functions with this
# source) -> conversion record; converted functions live on their original.
# Both hold a code object only while something else does, so a conversion
# is freed with the last function that has its code.
_CONVERSION_CACHE = weakref.WeakKeyDictionary()
# Code object -> why its conversion failed (the same for every function
# with this code, so it is not retried); the functions already warned
# about, each once by name: equal code is not the same function.
_FAILED_CONVERSIONS = weakref.WeakKeyDictionary()
_WARNED = weakref.WeakSet()


def do_not_convert(fn):
    """Decorator marking ``fn`` to always be called unconverted."""
    fn.__ag_do_not_convert__ = True
    return fn


def _converted_entity(fn, source=False):
    """The converted form of ``fn`` (converting its code on first sight);
    with ``source``, showing its generated source too."""
    converted = fn.__dict__.get("__ag_converted__")
    # functools.wraps copies __dict__: only trust our own entry.
    if converted is None or converted.__wrapped_original__ is not fn:
        record = _CONVERSION_CACHE.get(fn.__code__)
        if record is None:
            record = conversion.convert_entity(fn, source)
            _CONVERSION_CACHE[fn.__code__] = record
        converted = fn.__ag_converted__ = conversion.instantiate(record, fn)
    if source and "__ag_source__" not in converted.__dict__:
        conversion.attach_source(converted)
    return converted


def _should_convert(f):
    """Apply the allowlist/convertibility rules of Appendix E Table 5."""
    if getattr(f, "__ag_do_not_convert__", False):
        return False
    if getattr(f, "__ag_compiled__", False):
        return False
    code = getattr(f, "__code__", None)
    if code is None:
        return False
    # A function converted code defined (a nested def, a branch body).
    if conversion.converted_from(code) is not None:
        return False
    module = getattr(f, "__module__", None)
    if is_allowlisted_module(module):
        return False
    return True


def converted_call(f, args=(), kwargs=None):
    """Call ``f``, converting it first when appropriate.

    This is the overload substituted for every call site (§7.2): builtins
    may be replaced, user functions are converted recursively, everything
    else is called as-is.
    """
    kwargs = kwargs or {}

    # Replaced builtins (print, len, range, int, float).
    overload = py_builtins.overload_of(f)
    if overload is not f:
        return overload(*args, **kwargs)

    # Staged-call interception (Lantern's __call_staged, §8): backends that
    # stage recursion claim calls to registered functions here.  Only those
    # overriding ``intercept_call`` are listed, so the loop is empty while
    # the graph IR is the one registrant.
    for backend in fw_dispatch.call_backends:
        result = backend.intercept_call(f, args, kwargs)
        if result is not fw_dispatch.NOT_HANDLED:
            return result

    # @convert-decorated wrappers: unwrap so the cache is shared.
    original = getattr(f, "__ag_original__", None)
    if original is not None:
        f = original

    # Constructors are not converted (Appendix E Table 5).
    if isinstance(f, type):
        return f(*args, **kwargs)

    # Bound methods: convert the underlying function, pass self explicitly.
    if inspect.ismethod(f):
        if _should_convert(f.__func__):
            converted = _try_convert(f.__func__)
            if converted is not None:
                return converted(f.__self__, *args, **kwargs)
        return f(*args, **kwargs)

    if inspect.isfunction(f):
        if _should_convert(f):
            converted = _try_convert(f)
            if converted is not None:
                return converted(*args, **kwargs)
        return f(*args, **kwargs)

    # Callable objects: route through their (possibly convertible) __call__.
    if callable(f) and hasattr(f, "__call__") and inspect.ismethod(f.__call__):
        return converted_call(f.__call__, args, kwargs)

    return f(*args, **kwargs)


def _try_convert(f):
    """The converted ``f``, or None when its code cannot be converted:
    then it runs as-is, and the first such call of each function warns."""
    cause = _FAILED_CONVERSIONS.get(f.__code__)
    if cause is None:
        try:
            return _converted_entity(f)
        except errors.ConversionError as e:
            cause = _FAILED_CONVERSIONS[f.__code__] = str(e)
    if f not in _WARNED:
        _WARNED.add(f)
        _user_frame.warn(
            f"AutoGraph could not convert {getattr(f, '__name__', f)!r} and "
            f"will run it as-is. Cause: {cause}")
    return None


def _function_of(f):
    """The plain function behind ``f`` (a ``@convert`` wrapper, a
    function or a method), and the instance a method is bound to."""
    f = getattr(f, "__ag_original__", f)
    if inspect.ismethod(f):
        return f.__func__, f.__self__
    if not inspect.isfunction(f):
        raise errors.ConversionError(
            f"AutoGraph converts a function or method, got "
            f"{type(f).__name__}")
    return f, None


def converted_function(f, source=False):
    """``f`` converted now: a function, or a method's function bound to
    its instance.  With ``source`` the result shows its generated code,
    as ``__ag_source__`` and to ``inspect.getsource`` (§10), which costs
    an unparse; ``repro.function`` traces without it."""
    fn, instance = _function_of(f)
    converted = _converted_entity(fn, source)
    if instance is not None:
        return functools.partial(converted, instance)
    return converted


def to_graph(f):
    """Convert ``f`` now and return the converted function (paper §5),
    showing its generated source (:func:`converted_function`).

    Entities passed directly are always converted (Appendix E footnote
    b); the functions they call are converted when first called.
    """
    return converted_function(f, source=True)


def to_code(f):
    """The source AutoGraph generates for ``f``, made on demand: ``f`` is
    converted again and the converted tree unparsed."""
    fn, _ = _function_of(f)
    return conversion.generated_source(fn)


def convert():
    """The function decorator of Listing 1: ``@ag.convert()``.

    Conversion happens lazily on first call and is cached; errors raised
    by converted code are rewritten to point at the original source
    (Appendix B).
    """

    def decorator(f):
        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            converted = _converted_entity(f)
            try:
                return converted(*args, **kwargs)
            except errors.AutoGraphError:
                raise
            except Exception as e:
                raise errors.rewrite_error(e) from None

        wrapper.__ag_original__ = f
        return wrapper

    return decorator
