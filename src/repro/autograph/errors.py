"""Error handling across the three execution steps (paper Appendix B).

AutoGraph distinguishes conversion errors (legal Python that cannot be
converted), staging errors (converted code that cannot build a graph) and
runtime errors (graph execution failures).  Converted code is compiled
under the user's own file name, each statement on the user line it came
from, so the traceback of the latter two already names the user's file
and line with no source map; :func:`rewrite_error` adds a note that
lists just those frames, the ones a conversion compiled.
"""

from __future__ import annotations

import linecache

__all__ = [
    "ConversionError",
    "AutoGraphError",
    "rewrite_error",
]


class AutoGraphError(Exception):
    """Base class for AutoGraph-specific errors."""


class ConversionError(AutoGraphError):
    """The entity could not be converted (paper App. B, Conversion Errors)."""


def _user_frames(tb):
    """``(filename, lineno, function name)`` of each traceback frame that
    runs converted code, once each."""
    from .impl.conversion import converted_from

    frames = []
    while tb is not None:
        code = tb.tb_frame.f_code
        name = converted_from(code)
        if name is not None:
            frame = (code.co_filename, tb.tb_lineno, name)
            if frame not in frames:
                frames.append(frame)
        tb = tb.tb_next
    return frames


def rewrite_error(error):
    """Attach original-source context to an exception raised in converted
    code.

    Any traceback frame that runs converted code is reported, with the
    user's line, as a note on the exception (keeping the original
    exception type and traceback, as the paper's "error rewriting" does).

    Returns the same exception object, for ``raise ... from None`` chains.
    """
    user_frames = _user_frames(error.__traceback__)
    if user_frames:
        lines = ["in user code:"]
        for filename, lineno, name in user_frames:
            lines.append(f'  File "{filename}", line {lineno}, in {name}')
            source_line = linecache.getline(filename, lineno).strip()
            if source_line:
                lines.append(f"    {source_line}")
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
