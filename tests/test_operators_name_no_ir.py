"""AutoGraph's operators dispatch through the backend protocol, not on an IR.

Under ``autograph/operators/`` only the graph backend imports the graph
IR's package (``function_wrappers.py`` is keyed on the *context*, the
default graph, rather than on a value, so it may too), and nothing under
``src/repro`` probes a backend for a capability: the protocol's defaults
answer for what a backend leaves out.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"
OPERATORS = SRC / "autograph" / "operators"
MAY_IMPORT_THE_GRAPH_IR = {"graph_backend.py", "function_wrappers.py"}
GRAPH_IR = "repro.framework.graph"


def _imported_modules(tree, package):
    """Absolute names of the modules ``tree`` imports, from ``package``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package.split(".")
            base = base[:len(base) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def _names_graph_ir(source, package="repro.autograph.operators"):
    return any(name == GRAPH_IR or name.startswith(GRAPH_IR + ".")
               for name in _imported_modules(ast.parse(source), package))


def test_only_the_graph_backend_imports_the_graph_ir():
    offenders = [path.name for path in sorted(OPERATORS.glob("*.py"))
                 if path.name not in MAY_IMPORT_THE_GRAPH_IR
                 and _names_graph_ir(path.read_text())]
    assert not offenders, (
        "operators stage through dispatch.backend_for; only "
        f"graph_backend.py names {GRAPH_IR}. Found: {offenders}")
    assert _names_graph_ir((OPERATORS / "graph_backend.py").read_text())


def test_the_check_sees_every_way_of_importing_it():
    for source in [
        "import repro.framework.graph.graph",
        "from repro.framework.graph import Tensor",
        "from repro.framework.graph.tensor_array import TensorArray",
        "from repro.framework import graph",
        "from ...framework.graph.graph import Tensor",
        "def f():\n    from repro.framework.graph import cond",
    ]:
        assert _names_graph_ir(source), source
    for source in ["from repro.framework import Tensor, ops",
                   "from repro.framework.ops import dispatch",
                   "from . import graph_backend"]:
        assert not _names_graph_ir(source), source


def test_no_backend_is_probed_for_a_capability():
    offenders = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
                 if "hasattr(backend" in path.read_text()]
    assert not offenders, offenders
