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
import threading

import numpy as np

from ..framework import dtypes, nest
from ..framework.eager import tape as tape_module
from ..framework.eager.tensor import EagerTensor
from ..framework.errors import StagingError
from ..framework.graph.optimize import optimize_graph
from ..lantern.compiler import compile_program
from ..lantern.lowering import LanternLoweringError, lower_graph
from ..lantern.staging import ReentrantStagingError, StagedArityError, Stager
from . import signature as signature_lib
from .concrete_function import classify_outputs, trace_func_graph
from .executable import BackendBuilder, Executable, ExportError, ExportSpec, \
    register_backend_builder
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
# The lantern concrete function
# ---------------------------------------------------------------------------


class LanternConcreteFunction(Executable):
    """One signature of a ``repro.function`` compiled to the §8 backend.

    Two construction routes, both producing a
    :class:`~repro.lantern.CompiledProgram` cached for the signature:

    - **graph-lowered**: trace with AutoGraph into a ``FuncGraph``,
      optimize, then translate the optimized graph to Lantern IR;
    - **staged**: stage the callable directly with a ``Stager`` (needed
      for recursion and runtime trees), promoting re-entrant helper
      functions to IR functions as discovery finds them.
    """

    backend = "lantern"

    def __init__(self, python_function, canonical, leaf_plan, name,
                 autograph=True, freeze_captures=False):
        self._python_function = python_function
        self._canonical = canonical
        self._leaf_plan = list(leaf_plan)
        self._py_signature = signature_lib.signature_of(python_function)
        self.name = name
        # The IR function name becomes a Python identifier in the
        # generated source; sanitize <lambda> and the like.
        raw = getattr(python_function, "__name__", "fn")
        fn_name = re.sub(r"\W", "_", raw)
        if not fn_name or fn_name[0].isdigit():
            fn_name = f"fn_{fn_name}"
        self._fn_name = fn_name
        self._param_kinds = [p for p in self._leaf_plan if p != "const"]
        # External captures (graph-lowered route only; the staged route's
        # state carriers are lantern Params, already mutable in place).
        self._capture_entries = []
        self._capture_params = []
        self._capture_lock = threading.Lock()

        needs_staging = ("tree" in self._param_kinds
                         or detect_self_recursion(python_function)
                         or closes_over_params(python_function))
        if needs_staging:
            # freeze_captures does not apply here: the staged route's
            # closed-over state carriers are lantern Params, which are
            # runtime storage by construction.
            self.route = "staged"
            self._build_staged()
        else:
            self.route = "graph-lowered"
            self._build_graph_lowered(autograph, freeze_captures)

    # -- construction ------------------------------------------------------

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
            self.program = stager.program
            self._compiled = compile_program(stager.program, with_grad=True)
            self._n_outputs = fdef.n_outputs
            self._output_template = [("t", i) for i in range(fdef.n_outputs)]
            self._output_structure = (
                tuple([None] * fdef.n_outputs) if fdef.n_outputs > 1
                else None)
            return
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
        self._output_template, tensor_outs = classify_outputs(
            fg, result, self.name)
        if not tensor_outs:
            raise LanternLoweringError(
                f"{self._fn_name!r} returns no tensors (constant-only "
                "outputs); there is nothing to compile for the Lantern "
                "backend — use backend='graph'"
            )
        self._output_structure = result
        self._capture_entries = list(fg.external_captures)
        capture_phs = [c.placeholder for c in self._capture_entries]
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
                for c in self._capture_entries
            ],
        )
        # entry -> the Param mirroring it in the compiled program; the
        # Param's storage is refreshed from the capture source before
        # every execution, so optimizer steps and weight hot-swaps are
        # visible with no recompilation (same contract as the graph
        # backend's capture feeds).
        self._capture_params = [
            (c, capture_params[c.name]) for c in self._capture_entries
            if c.name in capture_params
        ]
        self.program = program
        self._compiled = compile_program(program, with_grad=True)
        self._n_outputs = fdef.n_outputs

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
    def structured_input_signature(self):
        spec_iter = iter(self._canonical.specs)
        out = []
        for plan in self._leaf_plan:
            if plan == "tensor":
                out.append(next(spec_iter))
            elif plan == "tree":
                out.append("Tree")
        return out

    @property
    def variables(self):
        """The program's Params (lantern's state carriers)."""
        return list(self._compiled.params.values())

    # -- captures -----------------------------------------------------------

    @property
    def captures(self):
        """Ordered external captures (graph-lowered route; may be empty)."""
        return list(self._capture_entries)

    def capture_values(self):
        """Current capture values (and staged-route Param values), by name."""
        with self._capture_lock:
            out = {c.name: np.asarray(c.resolve())
                   for c in self._capture_entries}
            for name, param in self._compiled.params.items():
                out.setdefault(name, np.asarray(param.value))
        return out

    def set_capture_values(self, mapping):
        """Atomically replace capture (or Param) values — no recompile.

        Keys name either an external capture (graph-lowered route:
        Variables / eager tensors, which are written through) or a
        staged-route lantern Param (updated in place).
        """
        by_name = {c.name: c for c in self._capture_entries}
        staged = []
        for name, value in mapping.items():
            entry = by_name.get(name)
            if entry is None and name not in self._compiled.params:
                known = sorted(set(by_name) | set(self._compiled.params))
                raise KeyError(
                    f"{self.name!r} has no capture or Param named "
                    f"{name!r}; known: {known}"
                )
            value = np.asarray(value, np.float32)
            # Validate every entry before writing any: a bad value in a
            # multi-tensor swap must not leave the model half-swapped.
            if entry is not None:
                if not entry.placeholder.shape.is_compatible_with(
                        value.shape):
                    raise ValueError(
                        f"Capture {name!r} expects shape "
                        f"{entry.placeholder.shape}, got {value.shape}"
                    )
            else:
                expect = self._compiled.params[name].value.shape
                if value.shape != expect:
                    raise ValueError(
                        f"Param {name!r} expects shape {expect}, "
                        f"got {value.shape}"
                    )
            staged.append((entry, name, value))
        with self._capture_lock:
            for entry, name, value in staged:
                if entry is not None:
                    if entry.kind == "variable":
                        entry.source._state.write(value)
                        entry.source._eager_value_cache = None
                    else:
                        # Rebind, don't mutate: an in-flight call keeps
                        # the consistent array it already read.
                        entry.source._value = value
                else:
                    self._rebind_param(self._compiled.params[name], value)
            self._sync_captures_locked()

    def _rebind_param(self, param, value):
        # Rebinding (not writing into) the Param's storage keeps a
        # concurrently executing compiled call on the array it already
        # read; _P must follow the rebind since it was built from the
        # old array object.
        param.value = value
        self._compiled.namespace["_P"][param.name] = value

    def _sync_captures_locked(self):
        for entry, param in self._capture_params:
            value = np.asarray(entry.resolve(), np.float32)
            if value is not param.value:
                self._rebind_param(param, value)

    def _sync_captures(self):
        """Refresh capture Params from their sources before executing."""
        if not self._capture_params:
            return
        with self._capture_lock:
            self._sync_captures_locked()

    # -- export -------------------------------------------------------------

    def export_spec(self, freeze=True):
        """Serialize the staged program with current Param values.

        Lantern programs always checkpoint Params separately from the
        instruction payload, so ``freeze`` only controls whether the
        artifact *advertises* them as swappable captures
        (``freeze=False``) or as baked state (``freeze=True``).
        """
        from ..lantern.serialize import (
            LanternSerializationError, program_to_payload)

        template, descriptor = self._export_output_parts()
        self._sync_captures()
        try:
            payload, arrays = program_to_payload(self.program)
        except LanternSerializationError as e:
            raise ExportError(str(e)) from e
        captures = []
        if not freeze:
            public = {p.name: c.name for c, p in self._capture_params}
            for param_name, key in payload["params"].items():
                captures.append({
                    "name": public.get(param_name, param_name),
                    "key": key,
                    "param": param_name,
                })
        payload = {"program": payload, "entry": self._fn_name}
        return ExportSpec(
            backend="lantern",
            name=self.name,
            input_specs=list(self.structured_input_signature),
            output_template=template,
            output_descriptor=descriptor,
            payload=payload,
            arrays=arrays,
            captures=captures,
        )

    def _check_exportable(self):
        self._export_output_parts()

    # -- execution ---------------------------------------------------------

    def __call__(self, *args, **kwargs):
        canonical = signature_lib.canonicalize(
            self._py_signature, args, kwargs)
        canonical, _ = lanternize_signature(canonical)
        self._check_compatible(canonical)
        return self._call_canonical(canonical)

    def _check_compatible(self, canonical):
        _, st_mine, tokens_mine = self._canonical.key
        _, st_theirs, tokens_theirs = canonical.key
        if st_mine != st_theirs or len(tokens_mine) != len(tokens_theirs):
            raise StagingError(
                f"Lantern concrete function {self.name!r} was compiled for "
                "a different argument structure"
            )
        for mine, theirs in zip(tokens_mine, tokens_theirs):
            if mine[0] == "T" and theirs[0] == "T":
                if not mine[1].is_compatible_with(theirs[1]):
                    raise StagingError(
                        f"Lantern concrete function {self.name!r} expects "
                        f"{mine[1]}, got {theirs[1]}"
                    )
            elif mine != theirs:
                raise StagingError(
                    f"Lantern concrete function {self.name!r} was "
                    f"specialized for argument {mine!r} but was called "
                    f"with {theirs!r}"
                )

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

    def _variable_capture_params(self):
        return [(c, p) for c, p in self._capture_params
                if c.kind == "variable"]

    def _call_canonical(self, canonical):
        tape_active = bool(tape_module._TAPE_STACK)
        # Pre-call variable values: the tape watches these eager reads.
        var_caps = self._variable_capture_params() if tape_active else []
        var_inputs = tuple(c.source.value() for c, _ in var_caps)
        self._sync_captures()
        out = self._compiled.namespace[self._fn_name](
            *self._runtime_args(canonical))
        results, bwd = out[:-1], out[-1]
        tensor_outputs = tuple(
            EagerTensor(np.asarray(r)) for r in results)
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

    def call_flat(self, flat_args):
        """Run the compiled program on flat runtime arguments.

        ``flat_args`` holds one value per :attr:`signature` entry —
        numeric arrays for ``TensorSpec`` slots, tree data for ``"Tree"``
        slots — mirroring the graph backend's ``call_flat``.
        """
        self._sync_captures()
        out = self._compiled.namespace[self._fn_name](*[
            a.numpy() if isinstance(a, EagerTensor) else a
            for a in flat_args
        ])
        results = out[:-1]
        tensor_outputs = tuple(EagerTensor(np.asarray(r)) for r in results)
        return self._pack_outputs(tensor_outputs)

    def call_with_grad(self, *args, seed=1.0, **kwargs):
        """Forward + CPS backward in one shot, without a tape.

        Zeroes the program's gradient slots, runs the continuation with
        ``seed`` and syncs accumulated gradients onto the Params (read
        them via :attr:`params`).  Returns the forward outputs.
        """
        canonical = signature_lib.canonicalize(
            self._py_signature, args, kwargs)
        canonical, _ = lanternize_signature(canonical)
        self._check_compatible(canonical)
        self._sync_captures()
        out = self._compiled.namespace[self._fn_name](
            *self._runtime_args(canonical))
        results, bwd = out[:-1], out[-1]
        self._compiled.zero_grads()
        bwd(*([seed] * len(results)))
        self._compiled.sync_param_grads()
        tensor_outputs = tuple(EagerTensor(np.asarray(r)) for r in results)
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


LanternConcreteFunction.__call__.__ag_do_not_convert__ = True
LanternConcreteFunction.call_flat.__ag_do_not_convert__ = True
LanternConcreteFunction.call_with_grad.__ag_do_not_convert__ = True


def lower_concrete_function(python_function, canonical, name,
                            autograph=True):
    """Compile ``python_function`` for one lanternized signature."""
    lanternized, leaf_plan = lanternize_signature(canonical)
    return LanternConcreteFunction(
        python_function, lanternized, leaf_plan, name, autograph=autograph)


class _LanternBackendBuilder(BackendBuilder):
    """The lantern route: lanternize the key, lower (once) per signature."""

    name = "lantern"

    def prepare(self, canonical):
        return lanternize_signature(canonical)

    def build(self, python_function, canonical, leaf_plan, name, *,
              autograph, freeze_captures=False, num_workers=None):
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
