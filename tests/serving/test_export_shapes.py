"""``load`` rebuilds a graph op by op and re-infers every static shape
from the registry's rules, so a loaded artifact declares what its live
optimized graph declares, sub-graphs included: a shape that only a
patch after inference supplied would come back unknown."""

import importlib.util
import pathlib

import numpy as np
import pytest

import repro
from repro import framework as fw
from repro.framework import ops
from repro.function.executable import ExportError
from repro.serving.saved_function import load, save

PROGRAMS = pathlib.Path(__file__).resolve().parents[2] / "bench" / "programs"


def _corpus():
    """``{name: module}`` for every program of ``bench/programs/``."""
    out = {}
    for path in sorted(PROGRAMS.glob("*.py")):
        if path.stem == "__init__":
            continue
        spec = importlib.util.spec_from_file_location(
            f"export_shapes_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        out[path.stem] = module
    return out


CORPUS = _corpus()


def _gradient_program(x):
    return fw.gradients(
        ops.reduce_sum(ops.tanh(ops.reshape(x, [3, 4]))), [x])


def _declared(graph, prefix=""):
    """``{op name: its outputs' static shapes}``, the ops of the
    sub-graphs in its attrs included (under the op's name)."""
    out = {}
    for op in graph.ops:
        out[prefix + op.name] = [t.shape for t in op.outputs]
        for key, value in op.attrs.items():
            if isinstance(value, fw.Graph):
                out.update(_declared(value, f"{prefix}{op.name}.{key}/"))
    return out


def _round_trip(fn, args, tmp_path):
    live = repro.function(fn).get_concrete_function(*args)
    loaded = load(save(live, str(tmp_path / "artifact")))
    assert _declared(loaded.optimized_graph) == _declared(live.optimized_graph)
    return live, loaded


#: Programs ``save`` refuses although ``export_compatibility`` passes
#: them: an early ``return`` inside a staged ``if`` stages an
#: ``UndefinedConst`` whose marker attr has no serialized form.
UNSAVABLE = {"logical_returns"}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        raises=ExportError, strict=True, reason="UndefinedConst attr"))
    if name in UNSAVABLE else name for name in sorted(CORPUS)])
def test_a_loaded_program_declares_the_live_shapes(name, tmp_path):
    module = CORPUS[name]
    _round_trip(module.program,
                module.make_inputs(np.random.default_rng(0)), tmp_path)


def test_a_loaded_reshape_gradient_declares_the_live_shapes(tmp_path):
    x = np.linspace(-1, 1, 12, dtype=np.float32).reshape(2, 6)
    live, loaded = _round_trip(_gradient_program, (x,), tmp_path)
    (want,), (got,) = live(x), loaded(x)
    assert got.numpy().tobytes() == want.numpy().tobytes()
