"""The backend-neutral ``Executable`` protocol, split where ``save`` /
``load`` split it.

:class:`Executable` is the surface ``Function``'s cache, the
``GradientTape`` bridge, the micro-batcher, the model server and the
fleet are written against: ``signature``, ``call_flat``, ``variables``,
``export_spec`` and the capture surface (``captures`` /
``capture_values`` / ``set_capture_values`` / ``capture_specs`` /
``set_capture_state``) plus ``engine_stats`` / ``plan_describe``.  The
capability methods have refusing or empty defaults, so a stub that
defines only the four abstract members is a valid executable and no
caller probes with ``getattr``.

Every real executable has two halves:

**The compiled half** is what an artifact can rebuild with no Python
source: a name, the input specs, the output template and structure, the
backend's program (an optimized graph bound to a runtime plan, or a
compiled Lantern program) and the capture set.
:class:`CompiledExecutable` owns everything about it that does not
depend on the backend — the positional ``__call__``, the lock-guarded
capture snapshot, the validate-all-then-rebind swap, ``export_spec`` —
and each backend subclasses it **once** (``CompiledGraph`` in
:mod:`.concrete_function`, ``CompiledLantern`` in :mod:`.lowering`) to
supply two things:

- ``call_flat(flat_args)`` — run on flat runtime values, with the
  backend's one argument check raising :class:`~repro.framework.errors.
  FetchError` (wrong arity, rank, static dimension, uncastable value);
- ``_export_payload(freeze)`` — the backend body of an
  :class:`ExportSpec`.

``repro.serving.saved_function.load`` constructs those two classes
directly from the deserialized parts.  A capture is an
:class:`~repro.framework.graph.func_graph.ExternalCapture` live or
loaded: a loaded one is the ``kind="tensor"`` form over an
``EagerTensor`` holding the checkpoint array.

**The traced half** exists only in the process that traced the
function: the Python callable and its canonical signature (:class:`Traced`
— the keyword-accepting ``__call__`` and the one ``_check_compatible``),
the tape bridge and backward pass, ``variables``, blocked lowering,
Lantern staging.  ``ConcreteFunction`` / ``LanternConcreteFunction`` are
``Traced`` subclasses of their backend's compiled class, so
``isinstance(cf, type(load(save(cf))))`` holds.
"""

from __future__ import annotations

import abc
import threading

import numpy as np

from ..framework import nest
from ..framework.eager import tape as tape_module
from ..framework.errors import FetchError, StagingError
from . import signature as signature_lib

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
    def export_spec(self, freeze=True):
        """Serializable :class:`ExportSpec`, or raise :class:`ExportError`;
        ``freeze=False`` keeps captures as named inputs with a separate
        weight checkpoint."""

    # -- capabilities: refusing / empty unless the backend has them ----------

    @property
    def captures(self):
        """External state captured as runtime inputs (may be empty)."""
        return []

    def capture_values(self):
        """Current capture values, by capture name."""
        return {}

    def set_capture_values(self, mapping):
        """Atomically replace capture values (weight hot-swap)."""
        if mapping:
            raise KeyError(
                f"{self.name!r} has no swappable captures"
            )

    def capture_specs(self):
        """``[(name, np.dtype, static dims)]`` per capture, in
        :meth:`set_capture_state` order."""
        return []

    def set_capture_state(self, arrays):
        """Rebind the whole capture set to ``arrays`` without copying."""
        if len(arrays):
            raise ValueError(
                f"{self.name!r} has no swappable captures"
            )

    def use_scheduler(self, scheduler):
        """Step plan levels on ``scheduler``'s worker pool from now on
        (``None``: serially).  A ``Function`` lends its one pool to every
        signature it traces; a backend that steps no plan ignores it."""

    def engine_stats(self):
        """Execution-engine info for serving observability (one dict)."""
        return {}

    def plan_describe(self):
        """Human-readable dump of what was compiled (may be empty)."""
        return ""

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


class CompiledExecutable(Executable):
    """The compiled half: what ``load`` rebuilds, and everything about
    it that is the same on every backend.

    A backend subclass supplies ``call_flat`` and ``_export_payload``,
    and may define :meth:`_sync_captures_locked`.
    """

    def __init__(self, name, input_specs, output_template, output_structure,
                 captures=()):
        self.name = name
        self._input_specs = list(input_specs)
        self._output_template = [tuple(leaf) for leaf in output_template]
        self._output_structure = output_structure
        # ExternalCaptures: closed-over state (or a loaded checkpoint)
        # fed as runtime inputs, resolved fresh on every call.
        self._captures = list(captures)
        # Guards capture reads and writes, so a weight swap is atomic
        # with respect to the snapshot one call feeds its run.
        self._capture_lock = threading.Lock()
        # Pre-bound per-capture readers (Variables via their
        # read-before-run hook): the per-call path skips kind dispatch
        # and the Python wrapper objects.
        self._capture_readers = tuple(c.reader() for c in self._captures)

    @property
    def structured_input_signature(self):
        return list(self._input_specs)

    @property
    def variables(self):
        """Nothing: compiled state is baked into the program or held as
        captures.  The traced half knows the live Variables / Params."""
        return []

    def __call__(self, *args, **kwargs):
        """Positional flat runtime arguments, as :meth:`call_flat`."""
        if kwargs:
            raise FetchError(
                f"{self.name!r} carries no Python signature (it was loaded, "
                f"not traced): pass its {len(self._input_specs)} arguments "
                f"positionally, not by keyword {sorted(kwargs)}"
            )
        return self.call_flat(args)

    # -- captures ------------------------------------------------------------

    @property
    def captures(self):
        """Ordered external captures (Variable reads / tensors)."""
        return list(self._captures)

    def capture_values(self):
        return {c.name: value for c, value in zip(
            self._captures, self._resolved_captures())}

    def capture_specs(self):
        return [(c.name, c.placeholder.dtype.np_dtype,
                 c.placeholder.shape.dims) for c in self._captures]

    def _resolved_captures(self):
        """One atomic snapshot of every capture's current value: swaps
        rebind arrays (never write into them), so a concurrent swap lands
        wholly before or wholly after the run this feeds."""
        if not self._capture_readers:
            return ()
        with self._capture_lock:
            return tuple(read() for read in self._capture_readers)

    #: The snapshot as an attribute — the name the fleet tests read.
    _capture_state = property(_resolved_captures)

    def set_capture_values(self, mapping):
        """Atomically replace capture values (weight hot-swap, no retrace).

        Args:
          mapping: capture name -> array-like, cast to the capture's
            dtype.  Every entry is validated before any is written
            (``KeyError`` for an unknown name, ``ValueError`` for a
            shape the capture cannot take), so a bad value cannot leave
            the model half-swapped.  Variable captures are assigned,
            tensor captures rebound.
        """
        by_name = {c.name: c for c in self._captures}
        staged = []
        for name, value in mapping.items():
            entry = by_name.get(name)
            if entry is None:
                raise KeyError(
                    f"{self.name!r} has no capture named {name!r}; "
                    f"captures: {sorted(by_name)}"
                )
            value = np.asarray(value, dtype=entry.placeholder.dtype.np_dtype)
            if not entry.placeholder.shape.is_compatible_with(value.shape):
                raise ValueError(
                    f"Capture {name!r} expects shape "
                    f"{entry.placeholder.shape}, got {value.shape}"
                )
            staged.append((entry, value))
        with self._capture_lock:
            for entry, value in staged:
                entry.write(value)
            self._sync_captures_locked()

    def _sync_captures_locked(self):
        """Push capture values to wherever the program reads them; runs
        under the capture lock after every swap.  Nothing by default: a
        program fed its captures per call reads them then."""

    def set_capture_state(self, arrays):
        """Rebind the *whole* capture set to ``arrays``
        (:meth:`capture_specs` order) without copying.

        The fleet's shared-memory path: ``arrays`` are read-only views
        into one shared generation segment.  A dtype mismatch is refused
        rather than cast — the cast would materialize every weight once
        per worker — after which this is :meth:`set_capture_values`,
        whose ``np.asarray`` of a correctly-typed array is the array.
        """
        specs = self.capture_specs()
        if len(arrays) != len(specs):
            raise ValueError(
                f"{self.name!r} has {len(specs)} captures, "
                f"got {len(arrays)} arrays"
            )
        for (name, np_dtype, _), value in zip(specs, arrays):
            if value.dtype != np_dtype:
                raise ValueError(
                    f"Capture {name!r} expects dtype {np_dtype}, "
                    f"got {value.dtype}"
                )
        self.set_capture_values(
            {name: value for (name, _, _), value in zip(specs, arrays)})

    # -- export --------------------------------------------------------------

    def export_spec(self, freeze=True):
        """Serialize the compiled half with its current capture values.

        ``freeze=True`` (default) makes a self-contained artifact;
        ``freeze=False`` keeps the captures as named inputs and ships
        their values as a separate weight checkpoint, so the loaded
        artifact's weights hot-swap without retracing.
        """
        template, descriptor = self._export_output_parts()
        payload, arrays, captures = self._export_payload(freeze)
        return ExportSpec(self.backend, self.name, self._input_specs,
                          template, descriptor, payload, arrays, captures)

    def _export_payload(self, freeze):
        """``(payload, arrays, captures)`` of :class:`ExportSpec` for this
        backend's program at the captures' current values."""
        raise NotImplementedError

    def _check_exportable(self):
        self._export_output_parts()

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

    def __repr__(self):
        return (f"<{type(self).__name__} {self.name!r} "
                f"inputs={self._input_specs}>")


class Traced:
    """The traced half both backends share: the Python callable, the
    canonical signature it was traced for, and calls made through it.
    Mixed in *before* the backend's compiled class."""

    def _init_traced(self, python_function, canonical):
        self._python_function = python_function
        self._canonical = canonical
        self._py_signature = signature_lib.signature_of(python_function)

    def __call__(self, *args, **kwargs):
        return self._call_canonical(self._canonicalize(args, kwargs))

    def _canonicalize(self, args, kwargs):
        """The call's canonical signature, checked against the trace's."""
        canonical = self._rekey(signature_lib.canonicalize(
            self._py_signature, args, kwargs))
        self._check_compatible(canonical)
        return canonical

    def _rekey(self, canonical):
        """The backend's ``BackendBuilder.prepare`` re-keying, if any."""
        return canonical

    def _check_compatible(self, canonical):
        """Reject calls whose *full* signature differs from the trace.

        Tensor leaves only need spec compatibility (the traced spec may
        be shape-relaxed), but constants, structure and identity-keyed
        objects were baked into this trace and must match exactly —
        otherwise a call would silently run the wrong specialization.
        """
        *_, st_mine, tokens_mine = self._canonical.key
        *_, st_theirs, tokens_theirs = canonical.key
        if st_mine != st_theirs or len(tokens_mine) != len(tokens_theirs):
            raise StagingError(
                f"Concrete function {self.name!r} was traced for a "
                "different argument structure"
            )
        for mine, theirs in zip(tokens_mine, tokens_theirs):
            if mine[0] == "T" and theirs[0] == "T":
                if not mine[1].is_compatible_with(theirs[1]):
                    raise StagingError(
                        f"Concrete function {self.name!r} expects "
                        f"{mine[1]}, got {theirs[1]}"
                    )
            elif mine != theirs:
                raise StagingError(
                    f"Concrete function {self.name!r} was specialized for "
                    f"argument {mine!r} but was called with {theirs!r}; "
                    "call the polymorphic Function to retrace"
                )

    def _record_on_tape(self, op_name, grad_fn, eager_inputs, tensor_outputs):
        """Record this call as one differentiable op on the active tape."""
        tape_module.record_operation(
            ExecutableOpDef(op_name, grad_fn, len(tensor_outputs)),
            eager_inputs, tensor_outputs, {})


CompiledExecutable.__call__.__ag_do_not_convert__ = True
Traced.__call__.__ag_do_not_convert__ = True


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
              autograph, freeze_captures=False):
        """Compile one executable for the prepared signature.

        ``freeze_captures`` asks the backend to bake closed-over state
        into the trace as constants (no runtime-input captures); a
        backend without that notion may ignore it.
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
