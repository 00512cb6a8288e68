"""The Lantern backend of ``repro.function``: staging traces to §8.

``@repro.function(backend=...)`` routes each signature to one of two
compilation pipelines:

- ``"graph"`` — AutoGraph trace → ``optimize_graph`` → a
  :class:`~repro.runtime.BoundPlan` (:class:`~repro.function.ConcreteFunction`);
- ``"lantern"`` — this module: the same AutoGraph front-end, staged into
  the §8 S-expression IR by a :class:`~repro.lantern.Stager` registered
  as the staging backend (framework ops, ``if`` and ``ops.cond`` on its
  values emit IR; recursion and runtime trees stage as re-entrant IR
  calls, discovering helpers as it goes).  The program is compiled once
  per signature with :func:`~repro.lantern.compile_program`, and its CPS
  backward pass is what the one ``GradientTape`` bridge replays, as it
  replays the graph backend's plan-compiled gradient;
- ``"auto"`` — :func:`choose_backend` inspects the callable and the
  signature: self-recursion or runtime tree arguments ⇒ lantern,
  anything else ⇒ graph.

Lantern signatures are *more* polymorphic than graph ones: trees key by
kind (one compiled program serves every tree shape — the point of §8)
and numeric Python scalars become runtime tensor arguments instead of
baked constants.
"""

from __future__ import annotations

import ast
import inspect
import re
import textwrap

import numpy as np

from ..framework import dtypes, nest
from ..framework.eager.tensor import EagerTensor
from ..framework.errors import FetchError, StagingError
from ..framework.graph.func_graph import ExternalCapture
from ..framework.graph.variables import Variable
from ..lantern.compiler import compile_program
from ..lantern.ir import StagedValue
from ..lantern.lowering import LanternLoweringError
from ..lantern.staging import ReentrantStagingError, StagedArityError, Stager
from . import signature as signature_lib
from .concrete_function import convert_for_trace, classify_outputs
from .executable import CompiledExecutable, ExportError, Traced
from .tensor_spec import TensorSpec

__all__ = [
    "LanternConcreteFunction",
    "LanternLoweringError",
    "choose_backend",
    "detect_self_recursion",
    "lanternize_signature",
]

# Staging restarts allowed while discovering re-entrant helpers /
# correcting output arities before giving up.
_MAX_STAGING_ATTEMPTS = 16


# ---------------------------------------------------------------------------
# Trace inspection: what should "auto" do?
# ---------------------------------------------------------------------------


def _is_tree(leaf):
    """Duck-typed check for §8 runtime tree data (Tree / EMPTY sentinel)."""
    return (
        hasattr(leaf, "is_empty")
        and hasattr(leaf, "is_leaf")
        and hasattr(leaf, "left")
        and not isinstance(leaf, type)
    )


def _function_ast(fn):
    """The ast.FunctionDef of ``fn``'s own source, or None."""
    try:
        source = textwrap.dedent(inspect.getsource(fn))
        module = ast.parse(source)
    except (OSError, TypeError, SyntaxError, IndentationError):
        return None
    name = getattr(fn, "__name__", None)
    for node in ast.walk(module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == name:
                return node
    return None


def detect_self_recursion(fn):
    """True when ``fn``'s body contains a call to its own name.

    This is the static face of the paper's re-entrant staged call: a
    function that recurses can only lower to the Lantern backend, whose
    IR supports staged function calls; the graph IR would unroll it
    against one concrete input (or never terminate).
    """
    node = _function_ast(fn)
    if node is None:
        return False
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == node.name):
            return True
    return False


class _ReturnArity(ast.NodeVisitor):
    """Collects return-statement arities, skipping nested functions."""

    def __init__(self):
        self.arities = set()

    def visit_FunctionDef(self, node):
        pass

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        pass

    def visit_Return(self, node):
        value = node.value
        if isinstance(value, ast.Tuple):
            self.arities.add(len(value.elts))
        else:
            self.arities.add(1)


def infer_n_outputs(fn):
    """Statically infer how many values ``fn`` returns (default 1).

    Recursive functions must declare their output arity *before* the
    body finishes tracing (an IR ``call`` needs it); consistent
    ``return a, b`` statements let us infer it instead of asking.
    """
    node = _function_ast(fn)
    if node is None:
        return 1
    visitor = _ReturnArity()
    for stmt in node.body:
        visitor.visit(stmt)
    if len(visitor.arities) == 1:
        return visitor.arities.pop()
    return 1


def choose_backend(fn, canonical, recursive=None):
    """The ``backend="auto"`` decision for one call signature.

    Returns:
      ``(backend, reason)`` — re-entrant staged calls / recursion or
      runtime tree arguments pick lantern; plain tensor traces pick the
      graph backend.
    """
    if any(_is_tree(leaf) for leaf in canonical.flat_leaves):
        return "lantern", "runtime tree arguments"
    if recursive is None:
        recursive = detect_self_recursion(fn)
    if recursive:
        return "lantern", "self-recursive function"
    return "graph", "tensor trace"


# ---------------------------------------------------------------------------
# Lantern signatures
# ---------------------------------------------------------------------------


def lanternize_signature(canonical):
    """Re-key a canonical signature for the Lantern backend.

    Compared to the graph backend: trees key by *kind* instead of
    identity, and numeric Python scalars become runtime tensor arguments
    instead of value-specialized constants — one compiled program serves
    every tree and every scalar value.  The runtime leaves
    (``tensor_indices`` / ``specs``) are the tensor leaves, the scalars
    and the trees, each tree with the ``"Tree"`` spec; every other leaf
    is baked into the trace.
    """
    st, tokens = canonical.key
    new_tokens = []
    tensor_indices = []
    specs = []
    keepalive = []
    spec_iter = iter(canonical.specs)
    tensor_set = set(canonical.tensor_indices)

    for i, leaf in enumerate(canonical.flat_leaves):
        if i in tensor_set:
            spec = next(spec_iter)
            token = ("T", spec)
        elif _is_tree(leaf):
            spec = "Tree"
            token = ("LT", "tree")
        elif isinstance(leaf, (int, float)) and not isinstance(leaf, bool):
            spec = TensorSpec((), dtypes.int32 if isinstance(leaf, int)
                              else dtypes.float32)
            token = ("T", spec)
        else:
            new_tokens.append(tokens[i])
            if tokens[i][0] in ("V", "O"):
                keepalive.append(leaf)
            continue
        tensor_indices.append(i)
        specs.append(spec)
        new_tokens.append(token)

    key = ("lantern", st, tuple(new_tokens))
    return signature_lib.CanonicalSignature(
        key=key,
        relaxed_key=key,
        structure=canonical.structure,
        flat_leaves=canonical.flat_leaves,
        tensor_indices=tensor_indices,
        specs=specs,
        keepalive=keepalive,
    )


# ---------------------------------------------------------------------------
# The compiled half
# ---------------------------------------------------------------------------


def param_capture(param, name, kind="tensor", source=None):
    """``(capture, param)``: the capture feeding ``param`` before each
    run — ``source`` (a closed-over ``Variable``, re-read, or eager
    tensor), else the Param's own storage, so in-place training stays
    visible and a swap rebinds it like any other.  A ``TensorSpec``
    stands in for the placeholder (only its dtype and shape are read)."""
    if source is None:
        source = EagerTensor(param.value)
    return ExternalCapture(TensorSpec(source.shape, source.dtype), kind,
                           source, name), param


class CompiledLantern(CompiledExecutable):
    """The Lantern backend's compiled half: a staged program, compiled.

    Captures map onto the program's ``Param`` storage: each Param is
    refreshed from its capture before every execution, so optimizer
    steps and weight hot-swaps are visible with no recompilation (the
    graph backend's capture feeds, by other means).  The program reads
    each Param at use time, so a swap is atomic *per tensor*: a call
    overlapping one may mix generations across Params.  ``load``
    builds this class forward-only from a deserialized program;
    :class:`LanternConcreteFunction` builds it, with the CPS backward
    pass, from a trace.
    """

    backend = "lantern"

    def __init__(self, name, input_specs, output_template, output_structure,
                 program, entry, capture_params=(), with_grad=False):
        super().__init__(name, input_specs, output_template,
                         output_structure, [c for c, _ in capture_params])
        self.program = program
        self._fn_name = entry
        self._capture_params = list(capture_params)
        self._compiled = compile_program(program, with_grad=with_grad)

    def _sync_captures_locked(self):
        for entry, param in self._capture_params:
            value = entry.resolve()
            if value is not param.value:
                # Rebinding (not writing into) the Param's storage keeps
                # a concurrently executing call on the array it already
                # read; _P was built from the old array object and must
                # follow.
                param.value = value = np.asarray(value, np.float32)
                self._compiled.namespace["_P"][param.name] = value

    def _sync_captures(self):
        """Refresh the Params from their captures before executing."""
        if self._capture_params:
            with self._capture_lock:
                self._sync_captures_locked()

    def call_flat(self, flat_args):
        """Run the compiled program on flat runtime arguments: one value
        per :attr:`signature` entry — numeric arrays for ``TensorSpec``
        slots (cast to the spec, the one argument check), tree data for
        ``"Tree"`` slots."""
        specs = self._input_specs
        if len(flat_args) != len(specs):
            raise FetchError(
                f"{self.name!r} takes {len(specs)} argument(s), "
                f"got {len(flat_args)}"
            )
        args = []
        for value, spec in zip(flat_args, specs):
            if isinstance(spec, TensorSpec):
                if isinstance(value, EagerTensor):
                    value = value.numpy()
                try:
                    value = np.asarray(value, dtype=spec.dtype.np_dtype)
                except (TypeError, ValueError) as e:
                    raise FetchError(
                        f"{self.name!r}: argument for {spec} cannot be "
                        f"cast to {spec.dtype.name}: {e}"
                    ) from e
                if not spec.shape.is_compatible_with(value.shape):
                    raise FetchError(
                        f"{self.name!r}: argument of shape {value.shape} "
                        f"is incompatible with {spec}"
                    )
            args.append(value)
        return self._pack_outputs(self._execute(args)[0])

    def _execute(self, args):
        """``(tensor outputs, backward continuation or None)`` of the
        entry point on marshalled ``args``."""
        self._sync_captures()
        out = self._compiled.namespace[self._fn_name](*args)
        bwd = None
        if self._compiled.with_grad:
            out, bwd = out[:-1], out[-1]
        return tuple(EagerTensor(np.asarray(r)) for r in out), bwd

    def _export_payload(self, freeze):
        """Lantern programs always checkpoint Params apart from the
        instruction payload, so ``freeze`` only controls whether the
        artifact *advertises* the captured ones as swappable."""
        from ..lantern.serialize import (
            LanternSerializationError, program_to_payload)

        self._sync_captures()
        try:
            payload, arrays = program_to_payload(self.program)
        except LanternSerializationError as e:
            raise ExportError(str(e)) from e
        captures = [] if freeze else [
            {"name": c.name, "key": payload["params"][p.name],
             "param": p.name} for c, p in self._capture_params]
        return {"program": payload, "entry": self._fn_name}, arrays, captures


# ---------------------------------------------------------------------------
# The traced half
# ---------------------------------------------------------------------------


def _ir_name(fn, taken):
    """``fn``'s name as an IR function name: a Python identifier in the
    generated source (``<lambda>`` and the like sanitized), not in
    ``taken``."""
    base = re.sub(r"\W", "_", getattr(fn, "__name__", "fn"))
    if not base or base[0].isdigit():
        base = f"fn_{base}"
    name, i = base, 1
    while name in taken:
        name = f"{base}_{i}"
        i += 1
    return name


class LanternConcreteFunction(Traced, CompiledLantern):
    """One signature of a ``repro.function`` compiled to the §8 backend:
    :class:`CompiledLantern` plus the traced half.

    The callable is staged with a ``Stager`` (converted with AutoGraph
    unless ``autograph=False``), promoting re-entrant helper functions
    to IR functions as discovery finds them.  The program's Params are
    its captures: a Param the function reaches by any path is read live,
    and closed-over Variables and eager tensors stage as Params over
    their storage (constants with ``freeze_captures``).
    """

    prepare = staticmethod(lanternize_signature)

    def __init__(self, python_function, canonical, name,
                 autograph=True, freeze_captures=False):
        if any(getattr(spec, "grid", None) is not None
               for spec in canonical.specs):
            raise StagingError(
                f"repro.function {name!r} has a block-partitioned "
                "input; blocked plans are a graph-backend feature — "
                "use backend='graph'"
            )
        self._init_traced(python_function, canonical)
        self.name = name  # staging names the function in errors
        self._fn_name = _ir_name(python_function, ())
        output_template, output_structure, program, capture_params = (
            self._stage(convert_for_trace(python_function, autograph),
                        freeze_captures))
        super().__init__(name, canonical.specs, output_template,
                         output_structure, program, self._fn_name,
                         capture_params, with_grad=True)

    # -- construction ------------------------------------------------------

    def _staged_params_and_leaves(self, stager):
        staged_params = []
        call_leaves = list(self._canonical.flat_leaves)
        for i, spec in zip(self._canonical.tensor_indices,
                           self._canonical.specs):
            if spec == "Tree":
                param = stager.staged_arg("tree", f"a_{self._fn_name}_")
            elif spec.dtype == dtypes.bool_:
                raise LanternLoweringError(
                    f"{self._fn_name!r} takes a boolean argument ({spec}); "
                    "Lantern computes in float32, which has no booleans",
                    reason="boolean")
            else:
                param = stager.staged_arg(
                    "tensor", f"a_{self._fn_name}_", spec.shape)
            staged_params.append(param)
            call_leaves[i] = param
        return staged_params, call_leaves

    def _stage(self, fn, freeze_captures):
        """``(output_template, output_structure, program,
        capture_params)`` of ``fn`` (the callable to trace, converted or
        not) staged on this signature."""
        n_outputs = infer_n_outputs(self._python_function)
        # Promoted re-entrant helpers, keyed by the function *object*
        # (two same-named closures must not collide).
        helpers = {}
        template = structure = None

        def outputs(result):
            nonlocal template, structure
            template, values = classify_outputs(result, lambda leaf: (
                leaf if isinstance(leaf, (StagedValue, EagerTensor, Variable))
                else None))
            if not values:
                raise LanternLoweringError(
                    f"{self._fn_name!r} returns no tensors (constant-only "
                    "outputs); there is nothing to compile for the "
                    "Lantern backend — use backend='graph'",
                    reason="constant outputs")
            structure = nest.pack_sequence_as(result, [None] * len(template))
            return values

        for _ in range(_MAX_STAGING_ATTEMPTS):
            stager = Stager(freeze_captures=freeze_captures)
            try:
                with stager.active():
                    # Declare every known helper before tracing any body:
                    # recursive helpers that call each other intercept
                    # instead of inlining forever.
                    for target, h in helpers.items():
                        stager.declare_staged(
                            target, h["kinds"], n_outputs=h["n_outputs"],
                            name=h["ir_name"])
                    stager.trace_declared()
                    staged_params, call_leaves = \
                        self._staged_params_and_leaves(stager)
                    call_args, call_kwargs = nest.pack_sequence_as(
                        self._canonical.structure, call_leaves)
                    stager.stage_function(
                        fn, staged_params, list(call_args), call_kwargs,
                        n_outputs=n_outputs, name=self._fn_name,
                        outputs=outputs)
            except ReentrantStagingError as e:
                if e.target not in helpers:
                    helpers[e.target] = {
                        "kinds": e.arg_kinds,
                        "n_outputs": infer_n_outputs(e.target),
                        "ir_name": _ir_name(e.target, {self._fn_name} | {
                            h["ir_name"] for h in helpers.values()}),
                    }
                continue
            except StagedArityError as e:
                for h in helpers.values():
                    if h["ir_name"] == e.name:
                        h["n_outputs"] = e.actual
                        break
                else:
                    n_outputs = e.actual
                continue
            program = stager.program
            captured = {p.name: (kind, source)
                        for source, kind, p in stager.captures.values()}
            return template, structure, program, [
                param_capture(p, name, *captured.get(name, ("tensor", None)))
                for name, p in program.params.items()]
        raise LanternLoweringError(
            f"Staging {self._fn_name!r} to Lantern did not converge after "
            f"{_MAX_STAGING_ATTEMPTS} attempts (re-entrant helper or "
            "output-arity discovery loop)"
        )

    # -- introspection -----------------------------------------------------

    @property
    def source(self):
        """Generated Python source (stand-in for Lantern's emitted C++)."""
        return self._compiled.source

    @property
    def params(self):
        """Closure Params staged into the program (name -> Param)."""
        return self._compiled.params

    @property
    def variables(self):
        """The program's Params (lantern's state carriers)."""
        return list(self._compiled.params.values())

    # -- execution ---------------------------------------------------------

    def _run_traced(self, args, taped):
        # The variables' pre-call values: the tape watches these reads.
        var_caps = [(c, p) for c, p in self._capture_params
                    if c.kind == "variable"] if taped else []
        state_inputs = tuple(c.source.value() for c, _ in var_caps)
        tensor_outputs, bwd = self._execute(args)
        return self._pack_outputs(tensor_outputs), tensor_outputs, (
            (self._make_grad_fn(bwd, var_caps), state_inputs)
            if taped else None)

    def call_with_grad(self, *args, seed=1.0, **kwargs):
        """Forward + CPS backward in one shot, without a tape.

        Zeroes the program's gradient slots, runs the continuation with
        ``seed`` and syncs accumulated gradients onto the Params (read
        them via :attr:`params`).  Returns the forward outputs.
        """
        tensor_outputs, bwd = self._execute(
            self._canonicalize(args, kwargs).tensor_values())
        self._compiled.zero_grads()
        bwd(*([seed] * len(tensor_outputs)))
        self._compiled.sync_param_grads()
        return self._pack_outputs(tensor_outputs)

    def zero_grads(self):
        """Zero the program's Param gradient slots (PyTorch-style)."""
        self._compiled.zero_grads()

    def _make_grad_fn(self, bwd, var_caps=()):
        def grad_fn(record, *out_grads):
            seeds = [
                g.numpy() if isinstance(g, EagerTensor) else np.asarray(g)
                for g in out_grads
            ]
            # No zeroing here: a tape may replay several recorded calls
            # of this function (e.g. a summed batch loss) and their Param
            # contributions must accumulate.  Callers reading
            # ``cf.params[...].grad`` across training steps call
            # ``zero_grads()`` between steps, like any autograd engine.
            # (A call is only replayed if a *watched* tensor feeds it —
            # Params are invisible to the tape; Param-only training
            # should use ``call_with_grad``.)
            slots = self._compiled.namespace["_G"]
            before = [slots[p.name].copy() for _, p in var_caps]
            d_params = bwd(*seeds)
            self._compiled.sync_param_grads()
            grads = [EagerTensor(np.asarray(d))
                     for d, spec in zip(d_params, self._input_specs)
                     if spec != "Tree"]
            # Variable-capture gradients: this call's contribution is the
            # delta its continuation accumulated into the Param slot
            # (the slot itself may carry other replayed calls' grads).
            for (_, p), pre in zip(var_caps, before):
                grads.append(EagerTensor(np.asarray(slots[p.name] - pre)))
            return grads

        return grad_fn

    def __repr__(self):
        return (f"<LanternConcreteFunction {self.name!r} "
                f"functions={list(self.program.functions)} "
                f"captures={[c.name for c in self._captures]}>")


CompiledLantern.call_flat.__ag_do_not_convert__ = True
LanternConcreteFunction.call_with_grad.__ag_do_not_convert__ = True
