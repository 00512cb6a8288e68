"""Error handling across the three execution steps (paper Appendix B).

AutoGraph distinguishes conversion errors (legal Python that cannot be
converted), staging errors (converted code that cannot build a graph) and
runtime errors (graph execution failures).  For the latter two, frames
pointing into generated temporary files are re-associated with the user's
original source via the per-conversion source maps, each built when an
error first reaches its generated file.
"""

from __future__ import annotations

import traceback
import weakref

__all__ = [
    "ConversionError",
    "AutoGraphError",
    "register_source_map",
    "rewrite_error",
]


class AutoGraphError(Exception):
    """Base class for AutoGraph-specific errors."""


class ConversionError(AutoGraphError):
    """The entity could not be converted (paper App. B, Conversion Errors)."""


# Generated filename -> its source map, {(filename, lineno): OriginInfo},
# or a thunk that builds it (on the first lookup).
_SOURCE_MAPS = {}


def register_source_map(generated_filename, source_map, owner=None):
    """Map frames in ``generated_filename`` back through ``source_map``.

    ``source_map`` is the map, or a thunk returning it: a conversion
    registers ``origin_info.deferred_source_map``, so the map is built
    only if an error passes through its generated code.  With an
    ``owner`` the entry is dropped when the owner is collected (a
    conversion owns the map of its generated file); without one it stays
    for the life of the process.
    """
    _SOURCE_MAPS[generated_filename] = source_map
    if owner is not None:
        weakref.finalize(owner, _SOURCE_MAPS.pop, generated_filename, None)


def _origin_for_frame(frame):
    source_map = _SOURCE_MAPS.get(frame.filename)
    if source_map is None:
        return None
    if callable(source_map):
        source_map = source_map()
        if frame.filename in _SOURCE_MAPS:
            _SOURCE_MAPS[frame.filename] = source_map
    return source_map.get((frame.filename, frame.lineno))


def rewrite_error(error):
    """Attach original-source context to an exception raised in generated
    code.

    Walks the traceback; any frame located in a converted (generated)
    file is mapped back through the source map and reported as a note on
    the exception (keeping the original exception type and traceback, as
    the paper's "error rewriting" does).

    Returns the same exception object, for ``raise ... from None`` chains.
    """
    try:
        frames = traceback.extract_tb(error.__traceback__)
    except Exception:  # pragma: no cover - defensive
        return error

    user_frames = []
    for frame in frames:
        origin = _origin_for_frame(frame)
        if origin is not None:
            user_frames.append(origin)

    if user_frames:
        lines = ["in user code:"]
        for origin in user_frames:
            lines.append(
                f'  File "{origin.filename}", line {origin.lineno}, '
                f"in {origin.function_name}"
            )
            if origin.source_line:
                lines.append(f"    {origin.source_line}")
        note = "\n".join(lines)
        if hasattr(error, "add_note"):
            # Avoid duplicate notes when the error crosses several
            # converted frames.
            existing = getattr(error, "__notes__", ())
            if note not in existing:
                error.add_note(note)
        else:  # pragma: no cover - py<3.11
            error.args = (f"{error.args[0] if error.args else ''}\n{note}",) + tuple(
                error.args[1:]
            )
    return error
