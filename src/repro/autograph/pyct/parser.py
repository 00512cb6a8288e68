"""Source extraction and parsing (paper Appendix C utilities).

``parse_entity`` turns a live Python function or class into an AST,
handling indentation, decorators and the usual ``inspect`` corner cases.
"""

from __future__ import annotations

import ast
import inspect
import linecache
import textwrap

__all__ = ["parse_entity", "parse_str", "parse_expression", "unparse",
           "ConversionSourceError"]


class ConversionSourceError(Exception):
    """Source code for the entity could not be obtained or parsed."""


def parse_str(src):
    """Parse a string of Python source into a Module node."""
    return ast.parse(textwrap.dedent(src))


def parse_expression(src):
    """Parse a single expression; returns the expression node."""
    module = parse_str(src)
    if len(module.body) != 1 or not isinstance(module.body[0], ast.Expr):
        raise ValueError(f"Expected a single expression, got: {src!r}")
    return module.body[0].value


def getsource(entity):
    """Best-effort source for a function/class, dedented.

    ``inspect`` reads the file through ``linecache``, which keeps every
    file it reads; an entry this read created is dropped again, so
    converting code from many files (fresh code in a long-lived process)
    does not keep their lines alive.
    """
    try:
        filename = inspect.getsourcefile(entity)
        cached = filename in linecache.cache
        try:
            source = inspect.getsource(entity)
        finally:
            if not cached:
                linecache.cache.pop(filename, None)
    except (OSError, TypeError) as e:
        raise ConversionSourceError(
            f"Could not get source for {entity!r}: {e}. Functions defined in "
            "interactive shells or via exec() cannot be converted."
        ) from e
    return textwrap.dedent(source)


def parse_entity(entity):
    """Parse a live function or class.

    Returns:
      (node, source): the ``FunctionDef``/``ClassDef``/``Lambda`` node and
      the dedented source string it was parsed from.

    Raises:
      ConversionSourceError: when source is unavailable or unparsable.
    """
    source = getsource(entity)
    try:
        module = ast.parse(source)
    except SyntaxError:
        # A common failure: a decorated nested function whose source starts
        # mid-expression. Wrap and retry.
        try:
            module = ast.parse("if True:\n" + textwrap.indent(source, "    "))
            module = ast.Module(body=module.body[0].body, type_ignores=[])
        except SyntaxError as e:
            raise ConversionSourceError(
                f"Could not parse source of {entity!r}: {e}"
            ) from e

    if inspect.isfunction(entity) and entity.__name__ == "<lambda>":
        node = _find_lambda(module, entity)
        if node is None:
            raise ConversionSourceError(
                f"Could not isolate the lambda expression for {entity!r}; "
                "define it on its own line to enable conversion."
            )
        return node, source

    for stmt in module.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return stmt, source
    raise ConversionSourceError(
        f"No function or class definition found in source of {entity!r}"
    )


def _find_lambda(module, fn):
    """Locate the Lambda node matching ``fn``'s signature (best effort)."""
    arg_names = list(inspect.signature(fn).parameters)
    candidates = [
        node for node in ast.walk(module)
        if isinstance(node, ast.Lambda)
        and [a.arg for a in node.args.args] == arg_names
    ]
    if len(candidates) == 1:
        return candidates[0]
    return None


def unparse(node):
    """Serialize an AST (node or list of statements) back to source.

    Keep ``fix_missing_locations`` before ``ast.unparse``: the unparser
    reads the ``lineno`` of every ``FunctionDef`` (for type comments), and
    the branch and loop functions the passes build have none.  Without it
    every conversion with control flow fails, Lantern staging included.
    """
    if isinstance(node, (list, tuple)):
        return "\n".join(unparse(n) for n in node)
    if isinstance(node, ast.Module):
        return ast.unparse(ast.fix_missing_locations(node))
    if isinstance(node, ast.stmt):
        module = ast.Module(body=[node], type_ignores=[])
        return ast.unparse(ast.fix_missing_locations(module))
    if isinstance(node, ast.expr):
        return ast.unparse(ast.fix_missing_locations(ast.Expression(body=node)))
    return ast.unparse(node)
