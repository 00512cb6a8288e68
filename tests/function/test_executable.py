"""The backend-neutral ``Executable`` protocol: both backends, one surface
(the per-construction contract is ``test_executable_contract.py``)."""

import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro
from repro import framework as fw
from repro.framework import ops
from repro.function import Executable
from repro.function.executable import (
    descriptor_to_structure,
    structure_to_descriptor,
)


W = np.random.default_rng(0).normal(size=(3, 2)).astype(np.float32)


def _concrete(backend):
    @repro.function(backend=backend)
    def f(x):
        return ops.tanh(ops.matmul(x, W))

    return f.get_concrete_function(repro.TensorSpec([None, 3], "float32"))


def test_call_flat_interchangeable_across_backends():
    """The tentpole claim: same inputs, same call surface, same outputs."""
    x = np.random.default_rng(2).normal(size=(5, 3)).astype(np.float32)
    outs = [_concrete(b).call_flat([x]).numpy() for b in ("graph", "lantern")]
    np.testing.assert_allclose(outs[0], outs[1], rtol=1e-5, atol=1e-6)


def test_variables_property_per_backend():
    v = fw.Variable(np.ones((2,), np.float32), name="exe_v")

    @repro.function
    def read(x):
        return x + v.value()

    cf = read.get_concrete_function(repro.TensorSpec([2], "float32"))
    assert cf.variables == [v]

    from repro.lantern import Param

    p = Param("exe_p", np.ones((1, 2), np.float32))

    @repro.function(backend="lantern")
    def scaled(x):
        return ops.multiply(x, p)

    lcf = scaled.get_concrete_function(
        repro.TensorSpec([1, 2], "float32"))
    assert lcf.variables == [p]


def _assigning(kind, u, v):
    if kind == "top-level":
        def f(x, n):
            v.assign(x)
            return x + u
    elif kind == "cond":
        def f(x, n):
            if n > 0:
                v.assign(x)
            return x + u
    else:
        def f(x, n):
            i = np.int32(0)
            while i < n:
                v.assign_add(x)
                i += 1
            return x + u
    return repro.function(f)


@pytest.mark.parametrize("kind", ["top-level", "cond", "while"])
def test_variables_lists_a_variable_the_trace_only_assigns(kind):
    u = fw.Variable(np.ones(2, np.float32), name=f"read_{kind}")
    v = fw.Variable(np.zeros(2, np.float32), name=f"assigned_{kind}")
    f = _assigning(kind, u, v)
    x = np.full(2, 2.0, np.float32)
    cf = f.get_concrete_function(x, np.int32(3))
    assert cf.variables == [u, v]
    np.testing.assert_array_equal(f(x, np.int32(3)).numpy(), [3.0, 3.0])
    np.testing.assert_array_equal(
        v.numpy(), [6.0, 6.0] if kind == "while" else [2.0, 2.0])
    # What names the trace's state says so in both places.
    ok, reason = cf.export_compatibility()
    assert not ok and v.name in reason and v.name in f.pretty_cache()


def test_shape_relaxation_is_a_graph_class_fact():
    from repro.function import ConcreteFunction, LanternConcreteFunction

    assert ConcreteFunction.relaxes_shapes
    assert not LanternConcreteFunction.relaxes_shapes


_GRAPH_ONLY = """\
import sys

import numpy as np

import repro
from repro.framework import ops
from repro.serving import load, save


@repro.function
def f(x):
    if ops.reduce_sum(x) > 0.0:
        x = ops.tanh(x)
    return x * 2.0


x = np.ones(3, np.float32)
path = sys.argv[1]
save(f, path, x)
np.testing.assert_allclose(load(path)(x).numpy(), f(x).numpy())
print(sorted(m for m in sys.modules
             if m.startswith(("repro.lantern", "repro.function.lowering"))))
"""


def test_a_graph_function_never_imports_lantern(tmp_path):
    """Tracing, calling, saving and loading a graph function leave the
    Lantern stack unimported (a fresh interpreter: this one has it)."""
    script = tmp_path / "graph_only.py"
    script.write_text(_GRAPH_ONLY)
    root = pathlib.Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(script), str(tmp_path / "model")],
        capture_output=True, text=True, timeout=300, env=env)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]"


def test_unified_cache_records_decisions():
    @repro.function(backend="auto")
    def f(x):
        return x * 2.0

    f(np.ones(2, np.float32))
    ((name, backend, reason),) = f.backend_decisions
    assert backend == "graph" and reason == "tensor trace"
    cf = f.get_concrete_function(np.ones(2, np.float32))
    assert isinstance(cf, Executable)


def test_structure_descriptor_roundtrip():
    from repro.framework import nest

    structure = {"a": (1, [2, 3]), "b": 4}
    descriptor = structure_to_descriptor(structure)
    rebuilt = descriptor_to_structure(descriptor)
    flat = nest.flatten(structure)
    assert nest.pack_sequence_as(rebuilt, flat) == structure


def test_session_is_thread_safe_for_concurrent_runs():
    """The serving contract: one compiled plan, many caller threads."""
    cf = _concrete("graph")
    rng = np.random.default_rng(3)
    xs = [rng.normal(size=(2, 3)).astype(np.float32) for _ in range(8)]
    expected = [np.tanh(x @ W) for x in xs]
    errors = []

    def worker(i):
        try:
            for _ in range(50):
                np.testing.assert_allclose(
                    cf.call_flat([xs[i]]).numpy(), expected[i],
                    rtol=1e-5, atol=1e-6)
        except Exception as e:  # noqa: BLE001
            errors.append(e)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
