"""``framework/registry.py`` is the only module that touches ``_REGISTRY``.

Every registration goes through ``register_op`` (which refuses a
duplicate name), so the table stays a finite set of op *types*: nothing
can store a per-variable or per-arity instance behind its back.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"
REGISTRY = SRC / "framework" / "registry.py"


def _mentions(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from (node for alias in node.names
                        if alias.name == "_REGISTRY")
        elif isinstance(node, (ast.Name, ast.Attribute)):
            if getattr(node, "id", getattr(node, "attr", None)) == "_REGISTRY":
                yield node


def test_no_module_but_the_registry_names_the_table():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == REGISTRY:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders.extend(
            f"{path.relative_to(SRC)}:{node.lineno}" for node in _mentions(tree))
    assert not offenders, (
        "_REGISTRY is private to framework/registry.py; register ops with "
        f"register_op. Found: {offenders}")


def test_the_check_sees_every_way_of_reaching_the_table():
    bypasses = [
        "from repro.framework.registry import _REGISTRY",
        "from ..registry import OpDef, _REGISTRY as table",
        "_REGISTRY['X'] = 1",
        "registry._REGISTRY['X'] = 1",
        "registry._REGISTRY.setdefault('X', 1)",
        "if 'X' not in _REGISTRY: pass",
    ]
    for source in bypasses:
        assert list(_mentions(ast.parse(source))), source
    assert not list(_mentions(ast.parse("register_op('X', kernel)")))
