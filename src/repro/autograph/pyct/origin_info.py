"""Where converted code came from: user lines (Appendix B).

Every AST node is annotated with an :class:`OriginInfo` before conversion
(:func:`resolve`), and the passes carry the annotation onto the nodes
that replace it.  :func:`locate` then gives every node of the converted
tree the line of its origin, so the tree compiles under the user's own
file name and a traceback through converted code names the user's file
and line with no source map.
"""

from __future__ import annotations

import ast
from collections import namedtuple

from . import anno

__all__ = ["OriginInfo", "resolve", "locate"]


class OriginInfo(namedtuple("OriginInfo",
                            ["filename", "function_name", "lineno", "col_offset",
                             "source_line"])):
    """Location of a node in the user's original source."""

    def as_frame(self):
        """(filename, lineno, function_name, source_line) traceback tuple."""
        return (self.filename, self.lineno, self.function_name, self.source_line)

    def __str__(self):
        return f"{self.filename}:{self.lineno} ({self.function_name})"


def resolve(root, source, filename, entity_name, entity_lineno_offset=0):
    """Annotate every node under ``root`` with its OriginInfo.

    Args:
      root: the parsed entity AST (before any transformation).
      source: the (dedented) source the AST was parsed from.
      filename: the original file.
      entity_name: name of the function being converted.
      entity_lineno_offset: line offset of ``source`` within ``filename``
        (0 when ``source`` starts at the top of the file).
    """
    lines = source.splitlines()
    stack = [(root, entity_name)]
    while stack:
        node, fn_name = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn_name = node.name
        lineno = getattr(node, "lineno", None)
        if lineno is not None and 1 <= lineno <= len(lines):
            anno.setanno(node, anno.Basic.ORIGIN, OriginInfo(
                filename=filename,
                function_name=fn_name,
                lineno=lineno + entity_lineno_offset,
                col_offset=getattr(node, "col_offset", 0),
                source_line=lines[lineno - 1].strip(),
            ))
        for field in node._fields:
            value = getattr(node, field, None)
            if value.__class__ is list:
                stack.extend((v, fn_name) for v in value
                             if isinstance(v, ast.AST))
            elif isinstance(value, ast.AST):
                stack.append((value, fn_name))
    return root


def locate(root, lineno):
    """Place every node under ``root`` on the user line it came from.

    A node with an ``ORIGIN`` takes that origin's line; a node without
    one (template code) takes the nearest origin above it, and ``lineno``
    where there is none.  Columns are left unknown (``-1``): origins
    record the column of the dedented source, which is not the file's,
    so a traceback shows the line and no column markers.  Uses only
    Python 3.9's AST.
    """
    origin_key = anno.Basic.ORIGIN
    stack = [(root, lineno)]
    while stack:
        node, lineno = stack.pop()
        annos = getattr(node, anno.FIELD, None)
        if annos is not None:
            origin = annos.get(origin_key)
            if origin is not None:
                lineno = origin.lineno
        if node._attributes:
            node.lineno = node.end_lineno = lineno
            node.col_offset = node.end_col_offset = -1
        for field in node._fields:
            value = getattr(node, field, None)
            if value.__class__ is list:
                stack.extend((v, lineno) for v in value
                             if isinstance(v, ast.AST))
            elif isinstance(value, ast.AST):
                stack.append((value, lineno))
    return root
