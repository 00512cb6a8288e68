"""Loading generated code back into Python (paper §6 steps 4-5).

``ast_to_object`` serializes an AST to source, writes it to a real
temporary file (so ``inspect``/tracebacks work on generated code, which
Appendix B's error rewriting relies on), and executes it in a new module
object.  The module is not registered in ``sys.modules``: ``inspect`` and
tracebacks find a function's source through its code object's file name,
so a generated module lives only as long as something holds it or the
functions it defined.  The file is the caller's: :func:`discard` deletes
it (a conversion does so when it is freed).
"""

from __future__ import annotations

import os
import tempfile
import types

from . import parser

__all__ = ["ast_to_source", "ast_to_object", "load_source", "discard"]


def ast_to_source(node):
    """Unparse an AST (node or statement list) into Python source."""
    return parser.unparse(node)


def load_source(source):
    """Write ``source`` to a temp .py file and execute it as a new module.

    Returns:
      (module, filename)
    """
    with tempfile.NamedTemporaryFile(
        mode="w", suffix=".py", prefix="repro_generated_", delete=False
    ) as f:
        f.write(source)
        filename = f.name

    module = types.ModuleType(os.path.splitext(os.path.basename(filename))[0])
    module.__file__ = filename
    exec(compile(source, filename, "exec"), module.__dict__)
    return module, filename


def ast_to_object(nodes):
    """Compile an AST into a live module.

    Returns:
      (module, source, filename)
    """
    source = ast_to_source(nodes)
    module, filename = load_source(source)
    return module, source, filename


def discard(filename):
    """Delete a generated file (one already gone is no error)."""
    try:
        os.unlink(filename)
    except OSError:
        pass
