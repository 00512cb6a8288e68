"""The backend-neutral ``Executable`` protocol.

Every compiled flavor of a ``repro.function`` signature — the graph
backend's :class:`~repro.function.ConcreteFunction`, the Lantern
backend's :class:`~repro.function.LanternConcreteFunction`, and
artifacts rehydrated from disk by :mod:`repro.serving.saved_function` —
implements this one surface:

- ``signature`` — the runtime-argument contract, one
  :class:`~repro.function.TensorSpec` (or the ``"Tree"`` marker) per
  flat argument, in ``call_flat`` order;
- ``call_flat(flat_args)`` — execute on flat runtime values and return
  the function's structured result;
- ``variables`` — the mutable state the executable closes over (graph
  ``Variable``s or lantern ``Param``s; empty for frozen artifacts);
- ``captures`` / ``capture_values()`` / ``set_capture_values()`` — the
  closed-over state lifted to runtime inputs, readable and atomically
  hot-swappable (no retrace) where the backend supports it;
- ``export_spec(freeze=True)`` — a serializable description of the
  compiled artifact (or :class:`ExportError` when the trace cannot
  leave the process); ``freeze=False`` keeps captures as named inputs
  with a separate weight checkpoint.

``Function``'s cache, the ``GradientTape`` bridge, the micro-batcher and
the model server are all written against this protocol, so the two
backends (and loaded artifacts) are interchangeable behind it.
"""

from __future__ import annotations

import abc

from ..framework import nest
from ..framework.eager import tape as tape_module

__all__ = [
    "BackendBuilder",
    "Executable",
    "ExecutableOpDef",
    "ExportError",
    "ExportSpec",
    "get_backend_builder",
    "register_backend_builder",
    "resolve_executable",
    "structure_to_descriptor",
    "descriptor_to_structure",
]


class ExportError(RuntimeError):
    """This executable cannot be serialized (and the reason why)."""


class ExportSpec:
    """A backend-tagged, serializable description of one executable.

    Attributes:
      backend: ``"graph"`` or ``"lantern"`` — selects the rehydrator.
      name: the concrete function's display name.
      input_specs: per runtime argument, ``TensorSpec`` or ``"tree"``.
      output_template: flat ``("t", index)`` / ``("c", value)`` leaves.
      output_descriptor: JSON-able structure descriptor for re-packing
        (see :func:`structure_to_descriptor`).
      payload: backend-specific JSON-able body (graph def / lantern
        program).
      arrays: name -> ndarray pool referenced from the payload; stored
        out-of-band (``.npz``) by the saver.
      captures: non-frozen exports only — one ``{"name", "key"}`` dict
        per external capture, in feed order; ``key`` indexes the weight
        checkpoint entry in ``arrays``.  Empty for frozen exports.
    """

    __slots__ = ("backend", "name", "input_specs", "output_template",
                 "output_descriptor", "payload", "arrays", "captures")

    def __init__(self, backend, name, input_specs, output_template,
                 output_descriptor, payload, arrays, captures=()):
        self.backend = backend
        self.name = name
        self.input_specs = list(input_specs)
        self.output_template = list(output_template)
        self.output_descriptor = output_descriptor
        self.payload = payload
        self.arrays = dict(arrays)
        self.captures = list(captures)


class ExecutableOpDef:
    """OpDef stand-in recording one whole executable call on a tape.

    Both backends' tape bridges use this: a traced/compiled call is one
    differentiable "op" whose ``grad_fn`` replays the backend's own
    backward (session-replayed graph gradient, or the captured CPS
    continuation).
    """

    __slots__ = ("name", "grad_fn", "num_outputs", "stateful")

    def __init__(self, name, grad_fn, num_outputs):
        self.name = name
        self.grad_fn = grad_fn
        self.num_outputs = num_outputs
        self.stateful = False


class Executable(abc.ABC):
    """One compiled signature, independent of the backend that built it."""

    #: Which pipeline produced this executable ("graph" / "lantern").
    backend = None

    # -- the protocol ------------------------------------------------------

    @property
    def signature(self):
        """Runtime-argument contract: ``TensorSpec`` / ``"Tree"`` leaves,
        in ``call_flat`` order."""
        return tuple(self.structured_input_signature)

    @abc.abstractmethod
    def call_flat(self, flat_args):
        """Execute on flat runtime values; returns the structured result."""

    @property
    @abc.abstractmethod
    def variables(self):
        """Mutable state this executable reads (Variables / Params)."""

    @abc.abstractmethod
    def export_spec(self):
        """Serializable :class:`ExportSpec`, or raise :class:`ExportError`."""

    # -- captures ----------------------------------------------------------

    @property
    def captures(self):
        """External state captured as runtime inputs (may be empty)."""
        return []

    def capture_values(self):
        """Current capture values, by capture name."""
        return {}

    def set_capture_values(self, mapping):
        """Atomically replace capture values (weight hot-swap).

        Backends with captures override this; the default refuses,
        naming the executable, so servers can surface a clear error.
        """
        if mapping:
            raise KeyError(
                f"{self.name!r} has no swappable captures"
            )

    # -- shared conveniences ----------------------------------------------

    def export_compatibility(self):
        """``(ok, reason)`` without building the full export payload."""
        try:
            self._check_exportable()
        except ExportError as e:
            return False, str(e)
        return True, ""

    def _check_exportable(self):
        """Cheap pre-flight for :meth:`export_spec`; default accepts."""

    @property
    def serving_names(self):
        """Names this executable is registered under in model servers."""
        return tuple(getattr(self, "_serving_names", ()))

    def _mark_served(self, name):
        names = getattr(self, "_serving_names", None)
        if names is None:
            names = []
            self._serving_names = names
        if name not in names:
            names.append(name)

    def _pack_outputs(self, tensor_outputs):
        """Rebuild the structured result from flat tensor outputs."""
        template = self._output_template
        if len(template) == 1 and template[0][0] == "t" and not isinstance(
                self._output_structure, (tuple, list, dict)):
            # Single tensor-leaf result — the overwhelmingly common case
            # on serving hot paths; skip the nest recursion entirely.
            return tensor_outputs[0]
        leaves = [
            tensor_outputs[payload] if kind == "t" else payload
            for kind, payload in template
        ]
        return nest.pack_sequence_as(self._output_structure, leaves)

    def _record_on_tape(self, op_name, grad_fn, eager_inputs, tensor_outputs):
        """Record this call as one differentiable op on the active tape."""
        tape_module.record_operation(
            ExecutableOpDef(op_name, grad_fn, len(tensor_outputs)),
            eager_inputs, tensor_outputs, {})

    def _export_output_parts(self):
        """The template/descriptor pair every backend's export shares."""
        template = []
        for kind, payload in self._output_template:
            if kind == "c" and not _json_able(payload):
                raise ExportError(
                    f"Constant output leaf {payload!r} of {self.name!r} is "
                    "not JSON-serializable; only numbers, strings, booleans "
                    "and None survive export"
                )
            template.append((kind, payload))
        return template, structure_to_descriptor(self._output_structure)


def _json_able(value):
    return value is None or isinstance(value, (bool, int, float, str))


def resolve_executable(fn, args, kwargs, caller):
    """The one Function-or-Executable entry-point contract.

    Shared by every surface taking "a function to deploy" —
    ``saved_function.save``, ``ModelServer.register`` — so they
    dispatch identically: a polymorphic ``Function`` has its signature
    selected (and traced if needed) by ``args``/``kwargs``, a concrete
    ``Executable`` must come alone.
    """
    from .function import Function

    if isinstance(fn, Function):
        return fn.get_concrete_function(*args, **kwargs)
    if isinstance(fn, Executable):
        if args or kwargs:
            raise TypeError(
                f"{caller}(executable) takes no signature arguments; they "
                "only select a signature when passing a polymorphic Function"
            )
        return fn
    raise TypeError(
        f"{caller}() expects a repro.function Function or Executable, got "
        f"{type(fn).__name__}"
    )


# ---------------------------------------------------------------------------
# Backend builders: how Function's cache mints executables
# ---------------------------------------------------------------------------


class BackendBuilder:
    """One backend's recipe for turning a canonical signature into an
    :class:`Executable`.

    ``Function``'s cache is written against this interface only — no
    isinstance checks, no per-backend lookup methods.  A backend may
    re-key the signature in :meth:`prepare` (lantern widens scalars and
    trees) and returns whatever per-signature context :meth:`build`
    needs alongside it.
    """

    #: Registry name, also recorded in ``Function.backend_decisions``.
    name = None
    #: Whether ``reduce_retracing`` shape relaxation applies (the graph
    #: backend mints one trace per shape; lantern keys are already
    #: shape-blind where it matters, so relaxation is meaningless there).
    supports_relaxation = False

    def prepare(self, canonical):
        """Re-key ``canonical`` for this backend; returns
        ``(canonical, context)``."""
        return canonical, None

    def build(self, python_function, canonical, context, name, *,
              autograph, freeze_captures=False, num_workers=None):
        """Compile one executable for the prepared signature.

        ``freeze_captures`` asks the backend to bake closed-over state
        into the trace as constants (no runtime-input captures); a
        backend without that notion may ignore it.  ``num_workers``
        sizes the per-step scheduler of backends that execute plans
        level-parallel (the graph backend's blocked route); others may
        ignore it.
        """
        raise NotImplementedError


_BACKEND_BUILDERS = {}


def register_backend_builder(builder):
    _BACKEND_BUILDERS[builder.name] = builder
    return builder


def get_backend_builder(name):
    builder = _BACKEND_BUILDERS.get(name)
    if builder is None and name == "lantern":
        # The lantern stack (IR, compiler, staging) stays unimported
        # until a lantern signature actually resolves.
        from . import lowering  # noqa: F401  (registers the builder)

        builder = _BACKEND_BUILDERS.get(name)
    if builder is None:
        raise ValueError(f"No backend builder registered for {name!r}")
    return builder


# ---------------------------------------------------------------------------
# Structure descriptors: nest structures <-> JSON
# ---------------------------------------------------------------------------


def structure_to_descriptor(structure):
    """Encode a nest structure (its shape, not its leaves) as JSON data.

    Supports tuples, lists and plain dicts; anything else is a leaf.
    Namedtuples do not survive a process boundary (the class is not
    shipped) and raise :class:`ExportError`.
    """
    if nest._is_namedtuple(structure):
        raise ExportError(
            f"Cannot export a {type(structure).__name__} return structure: "
            "namedtuple classes are not serialized — return a plain "
            "tuple/list/dict instead"
        )
    if isinstance(structure, dict):
        if type(structure) is not dict:
            raise ExportError(
                f"Cannot export a {type(structure).__name__} return "
                "structure; only plain dicts are serialized"
            )
        return {"kind": "dict",
                "items": {k: structure_to_descriptor(structure[k])
                          for k in sorted(structure)}}
    if isinstance(structure, (tuple, list)):
        return {"kind": "tuple" if isinstance(structure, tuple) else "list",
                "items": [structure_to_descriptor(v) for v in structure]}
    return {"kind": "leaf"}


def descriptor_to_structure(descriptor):
    """Rebuild a pack-compatible template from a structure descriptor.

    Leaves become ``None`` placeholders; only the nesting matters to
    ``nest.pack_sequence_as``.
    """
    kind = descriptor["kind"]
    if kind == "leaf":
        return None
    if kind == "dict":
        return {k: descriptor_to_structure(v)
                for k, v in descriptor["items"].items()}
    items = [descriptor_to_structure(v) for v in descriptor["items"]]
    return tuple(items) if kind == "tuple" else items
