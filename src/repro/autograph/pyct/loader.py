"""Loading generated code back into Python (paper §6 steps 4-5).

``ast_to_object`` serializes an AST to source, writes it to a real
temporary file (so ``inspect``/tracebacks work on generated code, which
Appendix B's error rewriting relies on), and executes it as a module.
"""

from __future__ import annotations

import atexit
import importlib.util
import os
import sys
import tempfile

from . import parser

__all__ = ["ast_to_source", "ast_to_object", "load_source"]

_GENERATED_FILES = []


def _cleanup():
    for path in _GENERATED_FILES:
        try:
            os.unlink(path)
        except OSError:
            pass


atexit.register(_cleanup)


def ast_to_source(node):
    """Unparse an AST (node or statement list) into Python source."""
    return parser.unparse(node)


def load_source(source, delete_on_exit=True):
    """Write ``source`` to a temp .py file and import it as a module.

    Returns:
      (module, filename)
    """
    with tempfile.NamedTemporaryFile(
        mode="w", suffix=".py", prefix="repro_generated_", delete=False
    ) as f:
        f.write(source)
        filename = f.name
    if delete_on_exit:
        _GENERATED_FILES.append(filename)

    module_name = os.path.splitext(os.path.basename(filename))[0]
    spec = importlib.util.spec_from_file_location(module_name, filename)
    module = importlib.util.module_from_spec(spec)
    # Registering in sys.modules keeps inspect.getsource working for
    # nested entities of the generated module.
    sys.modules[module_name] = module
    spec.loader.exec_module(module)
    return module, filename


def ast_to_object(nodes):
    """Compile an AST into a live module.

    Returns:
      (module, source, filename)
    """
    source = ast_to_source(nodes)
    module, filename = load_source(source)
    return module, source, filename
