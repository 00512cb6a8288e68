"""Source maps: generated code lines -> original user code (Appendix B).

Every AST node is annotated with an :class:`OriginInfo` before conversion.
After code generation, :func:`create_source_map` pairs each line of the
generated file with the origin of the node that produced it, enabling the
error-rewriting machinery in :mod:`repro.autograph.errors`.  A conversion
registers :func:`deferred_source_map`'s thunk instead, which builds that
map only when an error first needs it.
"""

from __future__ import annotations

import ast
import functools
from collections import namedtuple

from . import anno, ast_util

__all__ = ["OriginInfo", "resolve", "create_source_map",
           "deferred_source_map"]


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


def _origins(converted_node):
    return tuple(anno.getanno(n, anno.Basic.ORIGIN)
                 for n in ast_util.walk(converted_node))


def _map_lines(origins, generated_source, generated_filename):
    """Pair the origins of the converted tree's nodes with the line numbers
    of the same nodes re-parsed from the generated source."""
    source_map = {}
    try:
        reparsed = ast.parse(generated_source)
    except SyntaxError:  # pragma: no cover - generated code is valid
        return source_map
    # The reparsed tree is a Module wrapping the converted entity.
    reparsed_nodes = ast_util.walk(reparsed)[1:]
    if len(origins) != len(reparsed_nodes):
        # Structure drifted (e.g. wrapper statements): the trees cannot be
        # paired, so the map stays empty and errors go unmapped.
        return source_map
    for origin, repr_node in zip(origins, reparsed_nodes):
        lineno = getattr(repr_node, "lineno", None)
        if origin is None or lineno is None:
            continue
        key = (generated_filename, lineno)
        if key not in source_map:
            source_map[key] = origin
    return source_map


def create_source_map(converted_node, generated_source, generated_filename):
    """Map generated-file line numbers to OriginInfo.

    The converted AST carries ORIGIN annotations (copied through the
    transforms), but its linenos predate unparsing.  We therefore re-parse
    the generated source and walk both trees in parallel — they are
    structurally identical by construction — reading line numbers from the
    re-parsed tree and origins from the converted tree.
    """
    return _map_lines(_origins(converted_node), generated_source,
                      generated_filename)


def deferred_source_map(converted_node, generated_source, generated_filename):
    """A thunk that returns :func:`create_source_map`'s map when called.

    It holds the converted tree's origins, one per node, and the generated
    source, but not the tree: only an error in generated code needs the
    map, so the re-parse and the pairing wait for the first one.
    """
    return functools.partial(_map_lines, _origins(converted_node),
                             generated_source, generated_filename)
