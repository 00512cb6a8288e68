"""Static shapes come from the registry's rules (``OpDef.shape_fn``), not
from ``Tensor.set_shape`` patches after inference.

Two calls in ``src/`` stay, each for a reason a rule cannot cover: a
variable read's shape lives on the ``Variable``, not on its op, and a
block grid checks (rather than declares) the shape of a block it is
handed.  A new call fails here until it is explained and listed.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"

#: ``(module, enclosing function)`` of every call allowed to stay.
ALLOWED = {
    ("framework/graph/variables.py", "_stage_read"),
    ("blocks/array.py", "__init__"),
}


def _calls(tree):
    """``(enclosing function name, node)`` of each ``<x>.set_shape(...)``
    call in ``tree``."""
    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "set_shape"):
                yield where, child
            yield from walk(child, inner)
    yield from walk(tree, None)


def test_only_the_explained_set_shape_calls_remain():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = path.relative_to(SRC).as_posix()
        found.update((module, where) for where, _ in _calls(tree))
    assert found == ALLOWED, (
        "a static shape is its op's rule's answer; patching one with "
        f"set_shape needs a reason and an ALLOWED entry. Found: {found}")


def test_the_check_sees_a_call_however_it_is_spelled():
    calls = [
        "def f(t):\n    t.set_shape((2, 3))",
        "def f(op):\n    op.outputs[0].set_shape(s)",
        "def f(ts):\n    [t.set_shape(s) for t in ts]",
        "class C:\n    def g(self):\n        self.t.set_shape(None)",
    ]
    for source in calls:
        assert list(_calls(ast.parse(source))), source
    assert not list(_calls(ast.parse("def set_shape(self, shape): pass")))
    assert [w for w, _ in _calls(ast.parse(calls[3]))] == ["g"]
