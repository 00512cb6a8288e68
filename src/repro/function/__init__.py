"""The tracing JIT: ``@repro.function`` and its concrete-function cache.

This package is the repo's analogue of ``tf.function`` — the front-end
TensorFlow shipped around AutoGraph.  It layers a polymorphic callable
(:class:`Function`), a signature canonicalizer keyed on
:class:`TensorSpec` dtype/shape atoms plus Python-value structure, and
per-signature executables built once and re-executed from cache: a
traced graph (:class:`ConcreteFunction`), AutoGraph-converted,
whole-graph-optimized and compiled into a bound runtime plan, or a
program lowered to the Lantern backend (:class:`LanternConcreteFunction`).

    import repro

    @repro.function
    def train_step(x, y, w, b):
        ...

    train_step(bx, by, w, b)   # traces, optimizes, compiles
    train_step(bx, by, w, b)   # cache hit: runs the compiled plan
    assert train_step.trace_count == 1
"""

from .concrete_function import ConcreteFunction
from .executable import Executable, ExportError, ExportSpec
from .function import Function, function
from .tensor_spec import TensorSpec

__all__ = ["ConcreteFunction", "Executable", "ExportError", "ExportSpec",
           "Function", "LanternConcreteFunction", "TensorSpec", "function"]


def __getattr__(name):
    # Deferred: importing the lantern lowering stack (compiler, staging,
    # IR) should cost nothing until a lantern backend is actually used.
    if name == "LanternConcreteFunction":
        from .lowering import LanternConcreteFunction

        return LanternConcreteFunction
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
