"""``save``/``load``: traced signatures as on-disk artifacts.

``save(fn, path, *args)`` serializes one traced signature — the
SavedModel move, for both backends:

- **graph** route: the concrete function's *optimized* graph, with
  variable reads frozen to constants (GraphDef + checkpoint in one);
- **lantern** route: the staged program (IR instruction blocks) with
  frozen ``Param`` values; compilation re-runs at load time.

The artifact is a directory holding ``saved_function.json`` (signature,
output structure, backend payload) and ``arrays.npz`` (every ndarray the
payload references).  ``load(path)`` rehydrates it into an
:class:`~repro.function.Executable` without retracing — no AutoGraph, no
Python source, no Variables required in the loading process — so the
same artifact answers ``call_flat`` (and serves through
:class:`~repro.serving.ModelServer`) whichever backend produced it.
"""

from __future__ import annotations

import json
import os
import threading

import numpy as np

from ..framework.eager.tensor import EagerTensor
from ..function.executable import (
    Executable,
    ExportError,
    ExportSpec,
    descriptor_to_structure,
    resolve_executable,
)
from ..function.tensor_spec import TensorSpec

__all__ = ["save", "load", "LoadedExecutable"]

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


class LoadedExecutable(Executable):
    """An :class:`Executable` rehydrated from a saved artifact.

    ``variables`` is empty — loaded state is either frozen into the
    payload or held as named *captures* (non-frozen artifacts), which
    :meth:`set_capture_values` can hot-swap without retracing.
    ``export_spec`` re-serializes, making artifacts round-trip
    (``load(save(load(p)))`` is the identity).
    """

    def __init__(self, name, input_specs, output_template, output_descriptor):
        self.name = name
        self._input_specs = list(input_specs)
        self._output_template = [tuple(leaf) for leaf in output_template]
        self._output_descriptor = output_descriptor
        self._output_structure = descriptor_to_structure(output_descriptor)

    @property
    def structured_input_signature(self):
        return list(self._input_specs)

    @property
    def variables(self):
        return []

    def __call__(self, *args):
        """Convenience: positional flat runtime arguments."""
        return self.call_flat(list(args))

    def _cast_args(self, flat_args):
        if len(flat_args) != len(self._input_specs):
            raise ValueError(
                f"{self.name!r} takes {len(self._input_specs)} arguments, "
                f"got {len(flat_args)}"
            )
        cast = []
        for value, spec in zip(flat_args, self._input_specs):
            if isinstance(spec, TensorSpec):
                if isinstance(value, EagerTensor):
                    value = value.numpy()
                value = np.asarray(value, dtype=spec.dtype.np_dtype)
                if not spec.shape.is_compatible_with(value.shape):
                    raise ValueError(
                        f"{self.name!r}: argument of shape {value.shape} is "
                        f"incompatible with {spec}"
                    )
            cast.append(value)
        return cast

    def _export_spec_from_parts(self, backend, payload, arrays):
        return ExportSpec(
            backend=backend,
            name=self.name,
            input_specs=list(self._input_specs),
            output_template=list(self._output_template),
            output_descriptor=self._output_descriptor,
            payload=payload,
            arrays=arrays,
        )

    def __repr__(self):
        return (f"<{type(self).__name__} {self.name!r} "
                f"inputs={self._input_specs}>")


class _LoadedGraphExecutable(LoadedExecutable):
    """A deserialized graph signature bound once to a runtime plan.

    The rebuilt graph compiles into one
    :class:`~repro.runtime.ExecutionPlan` at load time, with the
    artifact's inputs (and trailing capture placeholders) bound to
    positional slots — every ``call_flat`` is a slot-addressed
    ``execute_flat``, the same fast path a live ``ConcreteFunction``
    uses; no per-request feed dicts or plan-cache keys.

    Loaded from a non-frozen artifact, the trailing graph inputs are
    capture placeholders: their values live in ``_capture_state`` (a
    tuple, rebound atomically by :meth:`set_capture_values`) and feed
    every run — weight hot-swaps are atomic under in-flight requests.
    """

    backend = "graph"

    def __init__(self, name, input_specs, output_template,
                 output_descriptor, graph, inputs, outputs, captures=(),
                 capture_values=()):
        super().__init__(name, input_specs, output_template,
                         output_descriptor)
        from ..runtime import BoundPlan, compile_plan

        self._graph = graph
        n_caps = len(captures)
        self._inputs = inputs[:len(inputs) - n_caps]
        self._capture_inputs = inputs[len(inputs) - n_caps:]
        self._capture_names = [c["name"] for c in captures]
        self._capture_state = tuple(
            np.asarray(v) for v in capture_values)
        self._outputs = outputs
        # Serializes swap read-modify-writes; readers (call_flat) just
        # snapshot the tuple attribute and need no lock.
        self._swap_lock = threading.Lock()
        self._bound = BoundPlan(
            compile_plan(graph, outputs, inputs), inputs)

    @property
    def captures(self):
        return list(self._capture_names)

    def capture_values(self):
        state = self._capture_state
        return dict(zip(self._capture_names, state))

    def set_capture_values(self, mapping):
        """Atomically swap capture values (one tuple rebind, no retrace).

        The read-modify-write is serialized behind a lock so concurrent
        swappers of *different* captures cannot silently drop each
        other's update; in-flight calls keep whichever whole tuple they
        snapshotted.
        """
        index = {n: i for i, n in enumerate(self._capture_names)}
        with self._swap_lock:
            state = list(self._capture_state)
            for name, value in mapping.items():
                if name not in index:
                    raise KeyError(
                        f"{self.name!r} has no capture named {name!r}; "
                        f"captures: {sorted(index)}"
                    )
                i = index[name]
                value = np.asarray(value, dtype=state[i].dtype)
                ph = self._capture_inputs[i]
                if not ph.shape.is_compatible_with(value.shape):
                    raise ValueError(
                        f"Capture {name!r} expects shape {ph.shape}, "
                        f"got {value.shape}"
                    )
                state[i] = value
            self._capture_state = tuple(state)

    def capture_specs(self):
        """``[(name, np.dtype, static shape)]`` per capture, in state
        order — what a shared-memory store needs to validate a rebind."""
        return [
            (name, ph.dtype.np_dtype, ph.shape.dims)
            for name, ph in zip(self._capture_names, self._capture_inputs)
        ]

    def set_capture_state(self, arrays):
        """Rebind the *whole* capture tuple to ``arrays`` without copying.

        The fleet's shared-memory hot-swap path: ``arrays`` are typically
        read-only ndarray views into one shared generation segment, and
        this method validates dtype/shape then performs the same single
        atomic tuple rebind as :meth:`set_capture_values` — but with zero
        per-worker copies (``set_capture_values`` casts through
        ``np.asarray`` per capture, which would materialize every weight
        matrix N times fleet-wide).
        """
        arrays = tuple(arrays)
        if len(arrays) != len(self._capture_names):
            raise ValueError(
                f"{self.name!r} has {len(self._capture_names)} captures, "
                f"got {len(arrays)} arrays"
            )
        for name, ph, value in zip(self._capture_names,
                                   self._capture_inputs, arrays):
            if value.dtype != ph.dtype.np_dtype:
                raise ValueError(
                    f"Capture {name!r} expects dtype "
                    f"{ph.dtype.np_dtype}, got {value.dtype}"
                )
            if not ph.shape.is_compatible_with(value.shape):
                raise ValueError(
                    f"Capture {name!r} expects shape {ph.shape}, "
                    f"got {value.shape}"
                )
        with self._swap_lock:
            self._capture_state = arrays

    def engine_stats(self):
        """Bound-plan info for serving observability."""
        return {"bound_plan": self._bound.describe()}

    def call_flat(self, flat_args):
        args = self._cast_args(flat_args)
        if self._capture_inputs:
            # One snapshot per call: a concurrent swap lands wholly
            # before or wholly after this run.
            args = args + list(self._capture_state)
        fetched = self._bound.execute_flat(args)
        tensor_outputs = tuple(EagerTensor(v) for v in fetched)
        return self._pack_outputs(tensor_outputs)

    def export_spec(self, freeze=True):
        from ..framework.graph.serialize import graph_to_def

        state = self._capture_state
        captures = []
        arrays = {}
        if freeze and self._capture_inputs:
            graph_def, arrays = graph_to_def(
                self._graph, self._inputs, self._outputs,
                freeze_placeholders=dict(zip(self._capture_inputs, state)),
            )
        else:
            for i, (name, value) in enumerate(
                    zip(self._capture_names, state)):
                key = f"capture_{i}"
                arrays[key] = value
                captures.append({"name": name, "key": key})
            graph_def, arrays = graph_to_def(
                self._graph, self._inputs + self._capture_inputs,
                self._outputs, arrays=arrays)
        spec = self._export_spec_from_parts(
            "graph", {"graph_def": graph_def}, arrays)
        spec.captures = captures
        return spec


class _LoadedLanternExecutable(LoadedExecutable):
    """A deserialized lantern program, recompiled forward-only.

    Non-frozen artifacts advertise their Params as named captures;
    :meth:`set_capture_values` swaps each Param's storage (per-tensor
    atomic — a running call keeps the array object it already read).
    """

    backend = "lantern"

    def __init__(self, name, input_specs, output_template,
                 output_descriptor, program, entry, captures=()):
        super().__init__(name, input_specs, output_template,
                         output_descriptor)
        from ..lantern.compiler import compile_program

        self._program = program
        self._entry = entry
        self._compiled = compile_program(program, with_grad=False)
        self._capture_to_param = {c["name"]: c["param"] for c in captures}

    @property
    def captures(self):
        return list(self._capture_to_param)

    def capture_values(self):
        values = self._compiled.namespace["_P"]
        return {name: np.asarray(values[param])
                for name, param in self._capture_to_param.items()}

    def set_capture_values(self, mapping):
        """Swap Param values (atomic per tensor, no recompilation)."""
        values = self._compiled.namespace["_P"]
        staged = []
        for name, value in mapping.items():
            param = self._capture_to_param.get(name)
            if param is None:
                raise KeyError(
                    f"{self.name!r} has no capture named {name!r}; "
                    f"captures: {sorted(self._capture_to_param)}"
                )
            old = values[param]
            value = np.asarray(value, dtype=np.float32)
            if value.shape != old.shape:
                raise ValueError(
                    f"Capture {name!r} expects shape {old.shape}, "
                    f"got {value.shape}"
                )
            staged.append((param, value))
        for param, value in staged:
            # Rebind (don't mutate in place): an in-flight call that
            # already read the old array keeps a consistent tensor.
            values[param] = value
            self._compiled.params[param].value = value

    def capture_specs(self):
        """``[(name, np.dtype, shape)]`` per capture, in state order."""
        values = self._compiled.namespace["_P"]
        return [
            (name, values[param].dtype, values[param].shape)
            for name, param in self._capture_to_param.items()
        ]

    def set_capture_state(self, arrays):
        """Rebind every Param to ``arrays`` (:meth:`capture_specs` order).

        Already-float32 ndarrays (e.g. shared-memory views) rebind
        without copying.  Note lantern swaps are atomic *per tensor*:
        the program reads each Param at use time, so a call overlapping
        a swap may mix generations across different Params (the graph
        backend's whole-tuple snapshot does not).
        """
        names = list(self._capture_to_param)
        if len(arrays) != len(names):
            raise ValueError(
                f"{self.name!r} has {len(names)} captures, got "
                f"{len(arrays)} arrays"
            )
        self.set_capture_values(dict(zip(names, arrays)))

    def call_flat(self, flat_args):
        out = self._compiled.namespace[self._entry](
            *self._cast_args(flat_args))
        tensor_outputs = tuple(EagerTensor(np.asarray(r)) for r in out)
        return self._pack_outputs(tensor_outputs)

    def export_spec(self, freeze=True):
        from ..lantern.serialize import program_to_payload

        payload, arrays = program_to_payload(self._program)
        captures = []
        if not freeze:
            param_keys = payload["params"]
            to_param = self._capture_to_param or {
                name: name for name in param_keys
            }
            for name, param in to_param.items():
                captures.append({
                    "name": name, "key": param_keys[param], "param": param,
                })
        spec = self._export_spec_from_parts(
            "lantern", {"program": payload, "entry": self._entry}, arrays)
        spec.captures = captures
        return spec


def load(path):
    """Rehydrate a :func:`save` artifact into an :class:`Executable`.

    No retracing happens: the graph route rebuilds the serialized graph
    and binds a fresh ``repro.runtime`` execution plan to positional
    slots, the lantern route re-runs code generation on the deserialized
    program.
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
        doc["output_descriptor"],
    )
    captures = doc.get("captures", [])
    backend = doc["backend"]
    if backend == "graph":
        from ..framework.graph.serialize import (
            GraphSerializationError, graph_from_def)

        try:
            graph, inputs, outputs = graph_from_def(
                doc["payload"]["graph_def"], arrays)
        except GraphSerializationError as e:
            raise ExportError(str(e)) from e
        return _LoadedGraphExecutable(
            *common, graph, inputs, outputs, captures=captures,
            capture_values=[arrays[c["key"]] for c in captures])
    if backend == "lantern":
        from ..lantern.serialize import program_from_payload

        program = program_from_payload(doc["payload"]["program"], arrays)
        return _LoadedLanternExecutable(
            *common, program, doc["payload"]["entry"], captures=captures)
    raise ExportError(f"Unknown saved-function backend {backend!r}")
