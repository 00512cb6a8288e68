"""``save``/``load``: traced signatures as on-disk artifacts.

``save(fn, path, *args)`` serializes one traced signature — the
SavedModel move, for both backends:

- **graph** route: the concrete function's *optimized* graph, with
  variable reads frozen to constants (GraphDef + checkpoint in one);
- **lantern** route: the staged program (IR instruction blocks) with
  frozen ``Param`` values; compilation re-runs at load time.

The artifact is a directory holding ``saved_function.json`` (signature,
output structure, backend payload) and ``arrays.npz`` (every ndarray the
payload references).  ``load(path)`` rebuilds the *compiled half* of the
executable that was saved — the very class its backend's traces are
built on (``CompiledGraph`` / ``CompiledLantern``, see
:mod:`repro.function.executable`) — without retracing: no AutoGraph, no
Python source, no Variables required in the loading process.  The same
artifact answers ``call_flat`` (and serves through
:class:`~repro.serving.ModelServer`) whichever backend produced it,
hot-swaps its captures if it was saved with ``freeze=False``, and
re-exports (``load(save(load(p)))`` is the identity).
"""

from __future__ import annotations

import json
import os

import numpy as np

from ..framework.eager.tensor import EagerTensor
from ..function.executable import (
    ExportError,
    descriptor_to_structure,
    resolve_executable,
)
from ..function.tensor_spec import TensorSpec

__all__ = ["save", "load"]

SPEC_FILE = "saved_function.json"
ARRAYS_FILE = "arrays.npz"
FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Input-spec encoding
# ---------------------------------------------------------------------------


def _encode_input_spec(spec):
    if isinstance(spec, str):  # the lantern "Tree" marker
        return {"kind": "tree"}
    dims = spec.shape.dims
    return {
        "kind": "tensor",
        "dtype": spec.dtype.name,
        "shape": None if dims is None else list(dims),
        "name": spec.name,
    }


def _decode_input_spec(data):
    if data["kind"] == "tree":
        return "Tree"
    shape = data["shape"]
    return TensorSpec(
        None if shape is None else tuple(shape),
        data["dtype"],
        name=data.get("name"),
    )


# ---------------------------------------------------------------------------
# save
# ---------------------------------------------------------------------------


def save(fn, path, *args, freeze=True, **kwargs):
    """Serialize one traced signature of ``fn`` to ``path``.

    Args:
      fn: an :class:`~repro.function.Executable` (e.g. from
        ``Function.get_concrete_function``), or a
        :class:`~repro.function.Function` — then ``*args``/``**kwargs``
        (concrete values or bare :class:`TensorSpec`s) select, and if
        necessary trace, the signature to export.
      path: target directory (created if missing).
      freeze: ``True`` (default) bakes captured state (closed-over
        eager tensors / Variable reads) into the artifact as constants.
        ``False`` exports the graph/program and a *separate* named
        weight checkpoint (in ``arrays.npz``); the loaded executable
        then supports ``set_capture_values`` — weight hot-swapping with
        zero retraces.

    Returns:
      ``path``.

    Raises:
      ExportError: the signature cannot leave the process (stateful
        side effects, unserializable return structure, ...).
    """
    executable = resolve_executable(fn, args, kwargs, "save")
    spec = executable.export_spec(freeze=freeze)
    doc = {
        "format_version": FORMAT_VERSION,
        "backend": spec.backend,
        "name": spec.name,
        "input_specs": [_encode_input_spec(s) for s in spec.input_specs],
        "output_template": [list(leaf) for leaf in spec.output_template],
        "output_descriptor": spec.output_descriptor,
        "payload": spec.payload,
        "captures": list(spec.captures),
    }
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, SPEC_FILE), "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    # Always write the arrays file (even empty) so an artifact directory
    # has a fixed, recognizable layout.
    np.savez(os.path.join(path, ARRAYS_FILE), **spec.arrays)
    return path


# ---------------------------------------------------------------------------
# load
# ---------------------------------------------------------------------------


def load(path):
    """Rehydrate a :func:`save` artifact into its backend's compiled
    executable.

    No retracing happens: the graph route rebuilds the serialized graph
    and binds a fresh ``repro.runtime`` execution plan to positional
    slots, the lantern route re-runs code generation (forward only) on
    the deserialized program.
    """
    spec_path = os.path.join(path, SPEC_FILE)
    try:
        with open(spec_path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise ExportError(
            f"{path!r} is not a saved-function artifact (no {SPEC_FILE})"
        ) from None
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ExportError(
            f"Unsupported saved-function format_version {version!r} "
            f"(this build reads {FORMAT_VERSION})"
        )
    arrays_path = os.path.join(path, ARRAYS_FILE)
    if os.path.exists(arrays_path):
        with np.load(arrays_path) as data:
            arrays = {k: data[k] for k in data.files}
    else:
        arrays = {}

    common = (
        doc["name"],
        [_decode_input_spec(s) for s in doc["input_specs"]],
        doc["output_template"],
        descriptor_to_structure(doc["output_descriptor"]),
    )
    captures = doc.get("captures", [])
    backend = doc["backend"]
    if backend == "graph":
        from ..framework.graph.func_graph import ExternalCapture
        from ..framework.graph.serialize import (
            GraphSerializationError, graph_from_def)
        from ..function.concrete_function import CompiledGraph

        try:
            graph, inputs, outputs = graph_from_def(
                doc["payload"]["graph_def"], arrays)
        except GraphSerializationError as e:
            raise ExportError(str(e)) from e
        # The trailing graph inputs are the capture placeholders; each
        # is fed from an eager tensor holding its checkpoint array, the
        # way a live trace feeds a closed-over tensor.
        return CompiledGraph(*common, [
            ExternalCapture(ph, "tensor", EagerTensor(arrays[c["key"]]),
                            c["name"])
            for ph, c in zip(inputs[len(inputs) - len(captures):], captures)
        ], graph, inputs, outputs)
    if backend == "lantern":
        from ..function.lowering import CompiledLantern, param_capture
        from ..lantern.serialize import program_from_payload

        program = program_from_payload(doc["payload"]["program"], arrays)
        return CompiledLantern(
            *common, program, doc["payload"]["entry"],
            [param_capture(program.params[c["param"]], c["name"])
             for c in captures])
    raise ExportError(f"Unknown saved-function backend {backend!r}")
