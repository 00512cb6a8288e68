"""Warnings attributed to the user's line rather than the library's.

A fixed ``stacklevel`` names whichever library frame happens to sit that
deep, and the depth differs per backend and per call path.  :func:`warn`
walks out of the library instead: the warning names the first frame that
is neither a module of this package nor code the engine generated (its
plan walks, named ``<repro...>``).  Code AutoGraph converted runs under
the user's file name and lines, so its frames count as the user's own.
Python 3.9 has no ``skip_file_prefixes``, hence the walk.
"""

from __future__ import annotations

import os
import sys
import warnings

__all__ = ["warn"]

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def warn(message):
    """``warnings.warn(message)`` naming the first frame outside the
    library as the warning's file and line."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename.startswith(
            (_PACKAGE_DIR, "<repro.")):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)
