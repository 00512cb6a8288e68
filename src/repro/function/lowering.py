"""Backend dispatch for ``repro.function``: lowering traces to Lantern.

``@repro.function(backend=...)`` routes each signature to one of two
compilation pipelines:

- ``"graph"`` — the PR-1 pipeline: AutoGraph trace → ``optimize_graph``
  → cached ``Session`` plan (:class:`~repro.function.ConcreteFunction`);
- ``"lantern"`` — this module: the same front-end lowered to the §8
  S-expression backend.  Non-recursive tensor traces are translated
  *from the optimized graph* (:func:`repro.lantern.lower_graph`);
  recursive functions and functions over runtime trees are staged
  directly through the shared AutoGraph SCT with a
  :class:`~repro.lantern.Stager`, discovering re-entrant helpers as it
  goes.  Either way the result is compiled once per signature with
  :func:`~repro.lantern.compile_program`, and the CPS backward pass is
  wired into the ``GradientTape`` bridge exactly like the graph
  backend's session-replayed gradient;
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
from ..framework.eager import tape as tape_module
from ..framework.eager.tensor import EagerTensor
from ..framework.errors import FetchError
from ..framework.graph.func_graph import ExternalCapture
from ..framework.graph.optimize import optimize_graph
from ..lantern.compiler import compile_program
from ..lantern.lowering import LanternLoweringError, lower_graph
from ..lantern.staging import ReentrantStagingError, StagedArityError, Stager
from . import signature as signature_lib
from .concrete_function import classify_outputs, trace_func_graph
from .executable import BackendBuilder, CompiledExecutable, ExportError, \
    Traced, register_backend_builder
from .tensor_spec import TensorSpec

__all__ = [
    "LanternConcreteFunction",
    "LanternLoweringError",
    "choose_backend",
    "detect_self_recursion",
    "has_tree_leaves",
    "lanternize_signature",
]

# Staging restarts allowed while discovering re-entrant helpers /
# correcting output arities before giving up.
_MAX_STAGING_ATTEMPTS = 16


# ---------------------------------------------------------------------------
# Trace inspection: what should "auto" do, and which lantern route?
# ---------------------------------------------------------------------------


def _is_tree(leaf):
    """Duck-typed check for §8 runtime tree data (Tree / EMPTY sentinel)."""
    return (
        hasattr(leaf, "is_empty")
        and hasattr(leaf, "is_leaf")
        and hasattr(leaf, "left")
        and not isinstance(leaf, type)
    )


def has_tree_leaves(canonical):
    """True when any argument leaf is runtime tree data."""
    return any(_is_tree(leaf) for leaf in canonical.flat_leaves)


def closes_over_params(fn):
    """True when ``fn`` references lantern Params — through closure
    cells, default arguments or module globals it names — directly or
    one container deep.  Such functions must take the staged route: a
    graph trace would bake the Params into Const nodes and training
    would silently stop updating the compiled artifact."""
    from ..lantern.ir import Param

    candidates = list(getattr(fn, "__defaults__", None) or ())
    for cell in getattr(fn, "__closure__", None) or ():
        try:
            candidates.append(cell.cell_contents)
        except ValueError:  # empty cell
            continue
    code = getattr(fn, "__code__", None)
    fn_globals = getattr(fn, "__globals__", None)
    if code is not None and fn_globals is not None:
        for name in code.co_names:
            if name in fn_globals:
                candidates.append(fn_globals[name])
    for value in candidates:
        if isinstance(value, Param):
            return True
        if isinstance(value, dict):
            items = value.values()
        elif isinstance(value, (list, tuple)):
            items = value
        else:
            continue
        if any(isinstance(item, Param) for item in items):
            return True
    return False


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
    if has_tree_leaves(canonical):
        return "lantern", "runtime tree arguments"
    if recursive is None:
        recursive = detect_self_recursion(fn)
    if recursive:
        return "lantern", "self-recursive function"
    return "graph", "tensor trace"


# ---------------------------------------------------------------------------
# Lantern signatures
# ---------------------------------------------------------------------------


def _scalar_spec(leaf):
    return TensorSpec(
        (), dtypes.int32 if isinstance(leaf, int) else dtypes.float32)


def lanternize_signature(canonical):
    """Re-key a canonical signature for the Lantern backend.

    Returns ``(canonical, leaf_plan)`` where ``leaf_plan`` maps each flat
    leaf to ``"tensor"`` (runtime numeric argument), ``"tree"`` (runtime
    tree data) or ``"const"`` (baked into the trace).  Compared to the
    graph backend: trees key by *kind* instead of identity, and numeric
    Python scalars become runtime tensor arguments instead of
    value-specialized constants — one compiled program serves every tree
    and every scalar value.
    """
    st, tokens = canonical.key
    new_tokens = []
    leaf_plan = []
    tensor_indices = []
    specs = []
    keepalive = []
    spec_iter = iter(canonical.specs)
    tensor_set = set(canonical.tensor_indices)

    for i, leaf in enumerate(canonical.flat_leaves):
        if i in tensor_set:
            spec = next(spec_iter)
            leaf_plan.append("tensor")
            tensor_indices.append(i)
            specs.append(spec)
            new_tokens.append(("T", spec))
        elif _is_tree(leaf):
            leaf_plan.append("tree")
            new_tokens.append(("LT", "tree"))
        elif isinstance(leaf, (int, float)) and not isinstance(leaf, bool):
            spec = _scalar_spec(leaf)
            leaf_plan.append("tensor")
            tensor_indices.append(i)
            specs.append(spec)
            new_tokens.append(("T", spec))
        else:
            leaf_plan.append("const")
            new_tokens.append(tokens[i])
            if tokens[i][0] in ("V", "O"):
                keepalive.append(leaf)

    key = ("lantern", st, tuple(new_tokens))
    lanternized = signature_lib.CanonicalSignature(
        key=key,
        relaxed_key=key,
        structure=canonical.structure,
        flat_leaves=canonical.flat_leaves,
        tensor_indices=tensor_indices,
        specs=specs,
        keepalive=keepalive,
    )
    return lanternized, leaf_plan


# ---------------------------------------------------------------------------
# The compiled half
# ---------------------------------------------------------------------------


def param_capture(param, name):
    """``(capture, param)`` for a Param no Variable or tensor outside the
    program feeds: a tensor capture over the Param's own storage, so
    in-place training stays visible and a swap rebinds it like any other.
    A ``TensorSpec`` stands in for the placeholder (only its dtype and
    shape are ever read)."""
    return ExternalCapture(
        TensorSpec(param.value.shape, dtypes.float32), "tensor",
        EagerTensor(param.value), name), param


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


class LanternConcreteFunction(Traced, CompiledLantern):
    """One signature of a ``repro.function`` compiled to the §8 backend:
    :class:`CompiledLantern` plus the traced half.

    Two construction routes:

    - **graph-lowered**: trace with AutoGraph into a ``FuncGraph``,
      optimize, then translate the optimized graph to Lantern IR
      (closed-over Variables / tensors become captures);
    - **staged**: stage the callable directly with a ``Stager`` (needed
      for recursion and runtime trees), promoting re-entrant helper
      functions to IR functions as discovery finds them (the closure's
      Params become captures over their own storage).
    """

    def __init__(self, python_function, canonical, leaf_plan, name,
                 autograph=True, freeze_captures=False):
        self._init_traced(python_function, canonical)
        self._leaf_plan = list(leaf_plan)
        self.name = name  # the routes below name the function in errors
        # The IR function name becomes a Python identifier in the
        # generated source; sanitize <lambda> and the like.
        raw = getattr(python_function, "__name__", "fn")
        fn_name = re.sub(r"\W", "_", raw)
        if not fn_name or fn_name[0].isdigit():
            fn_name = f"fn_{fn_name}"
        self._fn_name = fn_name
        self._param_kinds = [p for p in self._leaf_plan if p != "const"]
        spec_iter = iter(canonical.specs)
        input_specs = [next(spec_iter) if kind == "tensor" else "Tree"
                       for kind in self._param_kinds]

        if ("tree" in self._param_kinds
                or detect_self_recursion(python_function)
                or closes_over_params(python_function)):
            # freeze_captures does not apply here: the staged route's
            # closed-over state carriers are lantern Params, which are
            # runtime storage by construction.
            self.route = "staged"
            parts = self._build_staged()
        else:
            self.route = "graph-lowered"
            parts = self._build_graph_lowered(autograph, freeze_captures)
        output_template, output_structure, program, capture_params = parts
        super().__init__(name, input_specs, output_template,
                         output_structure, program, fn_name, capture_params,
                         with_grad=True)

    # -- construction ------------------------------------------------------
    # Each route returns ``(output_template, output_structure, program,
    # capture_params)``.

    def _staged_params_and_leaves(self, stager):
        staged_params = []
        call_leaves = list(self._canonical.flat_leaves)
        for i, plan in enumerate(self._leaf_plan):
            if plan == "const":
                continue
            param = stager.staged_arg(plan, f"a_{self._fn_name}_")
            staged_params.append(param)
            call_leaves[i] = param
        return staged_params, call_leaves

    def _helper_ir_name(self, target, helpers):
        """A unique, identifier-safe IR name for a promoted helper."""
        base = re.sub(r"\W", "_", getattr(target, "__name__", "helper"))
        if not base or base[0].isdigit():
            base = f"fn_{base}"
        taken = {h["ir_name"] for h in helpers.values()} | {self._fn_name}
        name, i = base, 1
        while name in taken:
            name = f"{base}_{i}"
            i += 1
        return name

    def _build_staged(self):
        fn = self._python_function
        n_outputs = infer_n_outputs(fn)
        # Promoted re-entrant helpers, keyed by the function *object*
        # (two same-named closures must not collide).
        helpers = {}
        for _ in range(_MAX_STAGING_ATTEMPTS):
            stager = Stager()
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
                    fdef = stager.stage_function(
                        fn, staged_params, list(call_args), call_kwargs,
                        n_outputs=n_outputs, name=self._fn_name)
            except ReentrantStagingError as e:
                if e.target not in helpers:
                    helpers[e.target] = {
                        "kinds": e.arg_kinds,
                        "n_outputs": infer_n_outputs(e.target),
                        "ir_name": self._helper_ir_name(e.target, helpers),
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
            return (
                [("t", i) for i in range(fdef.n_outputs)],
                tuple([None] * fdef.n_outputs) if fdef.n_outputs > 1
                else None,
                program,
                [param_capture(p, name)
                 for name, p in program.params.items()])
        raise LanternLoweringError(
            f"Staging {self._fn_name!r} to Lantern did not converge after "
            f"{_MAX_STAGING_ATTEMPTS} attempts (re-entrant helper or "
            "output-arity discovery loop)"
        )

    def _build_graph_lowered(self, autograph, freeze_captures):
        fn = self._python_function
        fg, placeholders, result = trace_func_graph(
            fn, self._canonical, self.name, autograph=autograph,
            freeze_captures=freeze_captures)
        if fg.get_collection("variables"):
            raise LanternLoweringError(
                f"{self._fn_name!r} creates Variables; the Lantern backend "
                "has no variable state — use Params or backend='graph'"
            )
        stateful = [op.name for op in fg.ops if op.op_def.stateful]
        if stateful:
            raise LanternLoweringError(
                f"{self._fn_name!r} stages stateful ops {stateful}; the "
                "Lantern backend is purely functional — use backend='graph'"
            )
        output_template, tensor_outs = classify_outputs(
            fg, result, self.name)
        if not tensor_outs:
            raise LanternLoweringError(
                f"{self._fn_name!r} returns no tensors (constant-only "
                "outputs); there is nothing to compile for the Lantern "
                "backend — use backend='graph'"
            )
        captures = list(fg.external_captures)
        capture_phs = [c.placeholder for c in captures]
        anchors = tensor_outs + placeholders + capture_phs
        opt_graph, fmap = optimize_graph(fg, anchors)
        remap = fmap.__getitem__
        self.optimized_graph = opt_graph
        program, fdef, capture_params = lower_graph(
            opt_graph,
            [remap(ph) for ph in placeholders],
            [remap(t) for t in tensor_outs],
            name=self._fn_name,
            captures=[
                (remap(c.placeholder), c.name, c.resolve())
                for c in captures
            ],
        )
        return (output_template, result, program,
                [(c, capture_params[c.name]) for c in captures
                 if c.name in capture_params])

    # -- introspection -----------------------------------------------------

    @property
    def compiled_program(self):
        """The executable lantern artifact (``.source`` is inspectable)."""
        return self._compiled

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

    def _rekey(self, canonical):
        return lanternize_signature(canonical)[0]

    def _runtime_args(self, canonical):
        args = []
        for leaf, plan in zip(canonical.flat_leaves, self._leaf_plan):
            if plan == "const":
                continue
            if plan == "tensor" and isinstance(leaf, EagerTensor):
                args.append(leaf.numpy())
            else:
                args.append(leaf)
        return args

    def _call_canonical(self, canonical):
        tape_active = bool(tape_module._TAPE_STACK)
        # Pre-call variable values: the tape watches these eager reads.
        var_caps = [(c, p) for c, p in self._capture_params
                    if c.kind == "variable"] if tape_active else []
        var_inputs = tuple(c.source.value() for c, _ in var_caps)
        tensor_outputs, bwd = self._execute(self._runtime_args(canonical))
        if tape_active and tensor_outputs:
            eager_inputs = tuple(
                leaf if isinstance(leaf, EagerTensor)
                else EagerTensor(np.asarray(leaf))
                for leaf, plan in zip(canonical.flat_leaves, self._leaf_plan)
                if plan == "tensor"
            ) + var_inputs
            self._record_on_tape(
                f"{self.name}_lantern_call",
                self._make_grad_fn(bwd, var_caps),
                eager_inputs, tensor_outputs)
        return self._pack_outputs(tensor_outputs)

    def call_with_grad(self, *args, seed=1.0, **kwargs):
        """Forward + CPS backward in one shot, without a tape.

        Zeroes the program's gradient slots, runs the continuation with
        ``seed`` and syncs accumulated gradients onto the Params (read
        them via :attr:`params`).  Returns the forward outputs.
        """
        tensor_outputs, bwd = self._execute(
            self._runtime_args(self._canonicalize(args, kwargs)))
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
            grads = []
            for pos, kind in enumerate(self._param_kinds):
                if kind == "tensor":
                    grads.append(EagerTensor(np.asarray(d_params[pos])))
            # Variable-capture gradients: this call's contribution is the
            # delta its continuation accumulated into the Param slot
            # (the slot itself may carry other replayed calls' grads).
            for (_, p), pre in zip(var_caps, before):
                grads.append(EagerTensor(np.asarray(slots[p.name] - pre)))
            return grads

        return grad_fn

    def __repr__(self):
        return (f"<LanternConcreteFunction {self.name!r} route={self.route} "
                f"functions={list(self.program.functions)}>")


CompiledLantern.call_flat.__ag_do_not_convert__ = True
LanternConcreteFunction.call_with_grad.__ag_do_not_convert__ = True


class _LanternBackendBuilder(BackendBuilder):
    """The lantern route: lanternize the key, lower (once) per signature."""

    name = "lantern"

    def prepare(self, canonical):
        return lanternize_signature(canonical)

    def build(self, python_function, canonical, leaf_plan, name, *,
              autograph, freeze_captures=False):
        for spec in canonical.specs:
            if getattr(spec, "grid", None) is not None:
                from ..framework.errors import StagingError

                raise StagingError(
                    f"repro.function {name!r} has a block-partitioned "
                    "input; blocked plans are a graph-backend feature — "
                    "use backend='graph'"
                )
        return LanternConcreteFunction(
            python_function, canonical, leaf_plan, name,
            autograph=autograph, freeze_captures=freeze_captures)


register_backend_builder(_LanternBackendBuilder())
