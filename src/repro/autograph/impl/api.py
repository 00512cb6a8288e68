"""Public AutoGraph API: ``convert``, ``to_graph``, ``converted_call``.

``converted_call`` is the runtime heart of §7.2 (Function Calls): every
call site in converted code routes through it, and it decides — per the
target's runtime type — to recursively convert, substitute an overload
(builtins), or call unconverted (allowlisted modules, constructors,
functions without source).
"""

from __future__ import annotations

import functools
import inspect
import warnings

from repro.framework.ops import dispatch as fw_dispatch

from .. import errors
from ..core.config import is_allowlisted_module
from ..operators import py_builtins
from . import conversion

__all__ = ["convert", "to_graph", "converted_call", "do_not_convert"]

# Code object (compared by value: shared by all functions with this
# source) -> conversion record; converted functions live on their original.
_CONVERSION_CACHE = {}
_FAILED_CONVERSIONS = set()


def do_not_convert(fn):
    """Decorator marking ``fn`` to always be called unconverted."""
    fn.__ag_do_not_convert__ = True
    return fn


def _converted_entity(fn):
    """The converted form of ``fn`` (converting its code on first sight)."""
    converted = fn.__dict__.get("__ag_converted__")
    # functools.wraps copies __dict__: only trust our own entry.
    if converted is None or converted.__wrapped_original__ is not fn:
        record = _CONVERSION_CACHE.get(fn.__code__)
        if record is None:
            record = conversion.convert_entity(fn)
            _CONVERSION_CACHE[fn.__code__] = record
        converted = fn.__ag_converted__ = conversion.instantiate(record, fn)
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
    if conversion.is_generated_file(code.co_filename):
        return False
    if code in _FAILED_CONVERSIONS:
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
    try:
        return _converted_entity(f)
    except errors.ConversionError as e:
        _FAILED_CONVERSIONS.add(f.__code__)
        warnings.warn(
            f"AutoGraph could not convert {getattr(f, '__name__', f)!r} and "
            f"will run it as-is. Cause: {e}",
            stacklevel=2,
        )
        return None


def to_graph(f):
    """Convert ``f`` now and return the converted function (paper §5).

    Entities passed directly are always converted (Appendix E footnote
    b); the functions they call are converted when first called.
    """
    original = getattr(f, "__ag_original__", None)
    if original is not None:
        f = original
    if inspect.ismethod(f):
        converted = _converted_entity(f.__func__)
        return functools.partial(converted, f.__self__)
    if not inspect.isfunction(f):
        raise errors.ConversionError(
            f"to_graph requires a function or method, got {type(f).__name__}"
        )
    return _converted_entity(f)


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
