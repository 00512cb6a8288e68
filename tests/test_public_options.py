"""The public-options ledger: what a user can configure, in one table.

Adding or removing an option of an entry point is a one-line diff of
``OPTIONS`` a reviewer sees — and every option has to *do* something:
each parameter must be read in the body it belongs to (the check that
would have caught ``ag.to_graph(recursive=)``, which was built into an
options object, threaded through six functions and read by none).
"""

import ast
import inspect
import textwrap

import pytest

import repro
import repro.autograph as ag
from repro import framework as fw
from repro import observe, serving
from repro.blocks import BlockScheduler
from repro.runtime import BoundPlan, compile_plan

OPTIONS = {
    "repro.function": (repro.function, (
        "func", "name", "autograph", "reduce_retracing", "retrace_limit",
        "backend", "freeze_captures", "num_workers")),
    "repro.Function": (repro.Function, (
        "python_function", "name", "autograph", "reduce_retracing",
        "retrace_limit", "backend", "freeze_captures", "num_workers")),
    "ag.to_graph": (ag.to_graph, ("f",)),
    "ag.convert": (ag.convert, ()),
    "fw.Session": (fw.Session, ("graph",)),
    "fw.TensorArray": (fw.TensorArray, (
        "dtype", "size", "dynamic_size", "flow", "clear_after_read",
        "element_shape")),
    "fw.while_loop": (fw.while_loop, (
        "cond_fn", "body_fn", "loop_vars", "maximum_iterations", "name")),
    "runtime.compile_plan": (compile_plan, (
        "graph", "flat_fetches", "feed_tensors", "fuse")),
    "runtime.BoundPlan": (BoundPlan, ("plan", "arg_tensors", "scheduler")),
    "serving.save": (serving.save, (
        "fn", "path", "args", "freeze", "kwargs")),
    "serving.load": (serving.load, ("path",)),
    "serving.MicroBatcher": (serving.MicroBatcher, (
        "executable", "batch_axis", "max_batch_size", "pad_value",
        "timeout", "max_queue")),
    "serving.ModelServer": (serving.ModelServer, (
        "host", "port", "max_inflight")),
    "serving.FleetServer": (serving.FleetServer, (
        "n_workers", "host", "port", "max_inflight")),
    "serving.ServingClient": (serving.ServingClient, (
        "base_url", "timeout", "retries", "backoff", "wire")),
    "blocks.BlockScheduler": (BlockScheduler, ("num_workers",)),
    "observe.enable": (observe.enable, ()),
}

#: Accepted for ``tf.TensorArray`` parity and documented as having no
#: effect.  Nothing else may be on this list.
PARITY_ONLY = {"fw.TensorArray": {"dynamic_size", "clear_after_read"}}


@pytest.mark.parametrize("entry", OPTIONS)
def test_signature_is_the_ledgers(entry):
    target, names = OPTIONS[entry]
    assert tuple(inspect.signature(target).parameters) == names


@pytest.mark.parametrize("entry", OPTIONS)
def test_every_option_is_read_in_its_body(entry):
    target, names = OPTIONS[entry]
    body = target.__init__ if inspect.isclass(target) else target
    (definition,) = ast.parse(
        textwrap.dedent(inspect.getsource(body))).body
    read = {node.id for node in ast.walk(definition)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = set(names) - read
    assert unread == PARITY_ONLY.get(entry, set())


def test_parity_only_arguments_say_so():
    doc = inspect.getdoc(fw.TensorArray)
    for name in PARITY_ONLY["fw.TensorArray"]:
        assert name in doc
    assert "no effect" in doc
