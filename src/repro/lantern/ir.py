"""The Lantern IR: SSA blocks of numeric instructions with staged values.

Tracing converted Python produces :class:`Block` objects containing
instructions; :mod:`repro.lantern.compiler` lowers a :class:`Program`
to executable code (the stand-in for Lantern's generated C++).

Instruction forms (tuples, first element is the tag):
  ("op", out, op_name, args)            -- numeric primitive
  ("const", out, value)                 -- literal (stored in const pool)
  ("param", out, name)                  -- model parameter reference
  ("field", out, obj, field_name)       -- runtime-data field access (trees)
  ("call", outs, fn_name, args)         -- staged function call (recursion!)
  ("if", outs, cond, then_block, else_block)
where ``out(s)``/``args`` are symbol-name strings.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

import numpy as np

from repro.framework.registry import get_op_def
from repro.framework.shapes import TensorShape, unknown

from .sexpr import Sym, format_sexpr

__all__ = [
    "Param",
    "StagedValue",
    "StagedTensor",
    "StagedBool",
    "StagedTree",
    "RefusedValue",
    "Block",
    "FunctionDef",
    "Program",
    "Builder",
    "LanternOp",
    "OPS",
    "reduction_op",
    "op_def_or_none",
    "static_shape",
]

class LanternOp(NamedTuple):
    """Everything the package knows about one IR primitive.

    Expressions are Python source over NumPy, written as ``str.format``
    templates: ``{0}``, ``{1}`` name the operands, ``{out}`` the
    forward result and ``{g}`` the gradient arriving at it.  Besides
    ``np`` they may call the helpers in ``compiler.RUNTIME``.

    Attributes:
      arity: number of operands.
      forward: the expression computing the result.
      adjoints: one expression per operand — the gradient it receives;
        ``None`` for an operand that carries none.  An adjoint that
        needs statements of its own is instead a callable
        ``fn(emit, fresh_idx, g, out, *operands)`` that emits them with
        ``emit(line)`` and returns the per-operand expressions.
      graph: ``(graph op type, attr form)`` this primitive lowers from,
        or ``None``.  The attr form is the graph op's attrs with
        defaults (``None`` / ``False``) dropped and a reduction axis
        normalised to one non-negative int.
    """

    arity: int
    forward: str
    adjoints: tuple | Callable
    graph: tuple | None = None


def _xent_adjoint(emit, fresh_idx, g, out, logits, label):
    """``softmax(logits) - onehot(label)``; the label carries no gradient."""
    tmp = f"_sm{fresh_idx()}"
    emit(f"{tmp} = _softmax({logits})")
    emit(f"{tmp} = {tmp}.reshape(1, -1).copy(); "
         f"{tmp}[0, int({label})] -= 1.0")
    return (f"{g} * {tmp}", None)


# The IR's op vocabulary, declared once.  Every other place that needs
# to know an op reads it here: ``Builder.emit`` and
# ``serialize.program_from_payload`` (is the name an op?), the
# compiler (``forward``, ``adjoints``), the immediate NumPy mode of
# ``lantern.ops`` (``forward``, evaluated) and the Stager's per-op hook
# (``graph``).  Adding a Lantern op = one entry.  The names are the
# serialized IR, so an entry may be added but never renamed.
OPS = {
    # A broadcasting op's gradient has the result's shape; ``_unb``
    # sums it back onto each operand's (a no-op where they match).
    "add": LanternOp(2, "{0} + {1}", ("_unb({g}, {0})", "_unb({g}, {1})"),
                     ("Add", {})),
    "sub": LanternOp(2, "{0} - {1}", ("_unb({g}, {0})", "_unb(-({g}), {1})"),
                     ("Sub", {})),
    "mul": LanternOp(2, "{0} * {1}",
                     ("_unb({g} * {1}, {0})", "_unb({g} * {0}, {1})"),
                     ("Mul", {})),
    "div": LanternOp(2, "{0} / {1}",
                     ("_unb({g} / {1}, {0})",
                      "_unb(-({g}) * {0} / ({1} * {1}), {1})"),
                     ("Div", {})),
    "neg": LanternOp(1, "-{0}", ("-({g})",), ("Neg", {})),
    "tanh": LanternOp(1, "np.tanh({0})", ("{g} * (1.0 - {out} * {out})",),
                      ("Tanh", {})),
    "sigmoid": LanternOp(1, "_sigmoid({0})", ("{g} * {out} * (1.0 - {out})",),
                         ("Sigmoid", {})),
    "relu": LanternOp(1, "np.maximum({0}, 0.0)", ("{g} * ({0} > 0)",),
                      ("Relu", {})),
    "exp": LanternOp(1, "np.exp({0})", ("{g} * {out}",), ("Exp", {})),
    "log": LanternOp(1, "np.log({0})", ("{g} / {0}",), ("Log", {})),
    "sqrt": LanternOp(1, "np.sqrt({0})", ("{g} * 0.5 / {out}",),
                      ("Sqrt", {})),
    "square": LanternOp(1, "np.square({0})", ("{g} * 2.0 * {0}",),
                        ("Square", {})),
    "abs": LanternOp(1, "np.abs({0})", ("{g} * np.sign({0})",), ("Abs", {})),
    "transpose": LanternOp(1, "np.transpose({0})", ("np.transpose({g})",),
                           ("Transpose", {})),
    "maximum": LanternOp(2, "np.maximum({0}, {1})",
                         ("_unb({g} * ({0} >= {1}), {0})",
                          "_unb({g} * ({0} < {1}), {1})"),
                         ("Maximum", {})),
    # The IR's matmul is 2-D; ``_dot`` is its ``@`` off NumPy's slow
    # path for the batch-1 weight gradients.
    "matmul": LanternOp(2, "{0} @ {1}",
                        ("_dot({g}, {1}.T)", "_dot({0}.T, {g})"),
                        ("MatMul", {})),
    # Sparse softmax cross entropy: (logits, label) -> scalar.
    "xent": LanternOp(2, "_xent({0}, {1})", _xent_adjoint),
    # Negation of a staged boolean (``Stager.not_``).
    "not": LanternOp(1, "not {0}", (None,)),
}

# Concatenation of two operands along axis 0 / 1; the adjoint splits the
# gradient where the first operand ends.
for _axis, _index in ((0, ""), (1, ":, ")):
    _split = f"np.shape({{0}})[{_axis}]"
    OPS[f"concat{_axis}"] = LanternOp(
        2, f"np.concatenate(({{0}}, {{1}}), axis={_axis})",
        (f"({{g}})[{_index}:{_split}]", f"({{g}})[{_index}{_split}:]"),
        ("Concat", {"axis": _axis}))


def reduction_op(fn, axis, keepdims):
    """Name of the ``fn`` (``'sum'`` / ``'mean'``) reduction: over
    everything (``axis=None``: ``sum``, ``sumk``) or along axis 0 / 1
    (``sum0``, ``sum1k``); a ``k`` suffix keeps the reduced dimension."""
    return fn + ("" if axis is None else str(axis)) + ("k" if keepdims else "")


# Lantern values are at most rank 2, so these twelve cover every
# reduction a lowerable graph can ask for.  The gradient broadcasts back
# over the operand (after re-inserting a dropped axis); a mean also
# divides by the number of elements reduced.
for _fn, _type in (("sum", "Sum"), ("mean", "Mean")):
    for _axis in (None, 0, 1):
        for _keep in (False, True):
            _kwargs, _form, _g = "", {}, "{g}"
            _count = " / np.size({0})"
            if _axis is not None:
                _kwargs, _form = f", axis={_axis}", {"axis": _axis}
                _count = f" / np.shape({{0}})[{_axis}]"
                if not _keep:
                    _g = f"np.expand_dims({{g}}, {_axis})"
            if _keep:
                _kwargs += ", keepdims=True"
                _form["keepdims"] = True
            if _fn == "sum":
                _count = ""
            OPS[reduction_op(_fn, _axis, _keep)] = LanternOp(
                1, f"np.{_fn}({{0}}{_kwargs})",
                (f"{_g} * np.ones_like({{0}}){_count}",), (_type, _form))


def op_def_or_none(op_type):
    """The registry's ``OpDef`` for ``op_type``, or None."""
    try:
        return get_op_def(op_type)
    except KeyError:
        return None


def static_shape(value):
    """A staged value's or a concrete operand's static ``TensorShape``."""
    if isinstance(value, StagedValue):
        return unknown if value.shape is None else TensorShape(value.shape)
    return TensorShape(np.shape(value))


def _result_shape(op_name, args):
    """The static shape of ``op_name`` on ``args``: the ``shape_fn`` of
    the registry op it lowers from, or None where there is no such op
    or rule.  A concrete argument is passed as the array it is, so a
    rule that reads an operand's value reads it."""
    graph = OPS[op_name].graph
    op_def = graph and op_def_or_none(graph[0])
    if op_def is None or op_def.shape_fn is None:
        return None
    try:
        return op_def.shape_fn([a if isinstance(a, StagedValue) else np.asarray(a)
                                for a in args], graph[1])[0]
    except Exception:  # noqa: BLE001 - no rule for these operands
        return None


class Param:
    """A trainable model parameter (numpy storage + gradient slot)."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name, value):
        self.name = name
        self.value = np.asarray(value, dtype=np.float32)
        self.grad = np.zeros_like(self.value)

    def __array__(self, dtype=None):
        return self.value if dtype is None else self.value.astype(dtype)

    def __repr__(self):
        return f"Param({self.name!r}, shape={self.value.shape})"


class StagedValue:
    """Base class for values flowing through tracing; ``shape`` is the
    static shape where known (from a spec, a constant or the framework
    op that made it), else None."""

    __slots__ = ("sym", "builder", "shape")

    # NumPy operands defer to our reflected operators instead of
    # broadcasting over the staged value as an object array.
    __array_ufunc__ = None

    def __init__(self, sym, builder, shape=None):
        self.sym = sym
        self.builder = builder
        self.shape = shape

    def __repr__(self):
        return f"<{type(self).__name__} {self.sym}>"

    def __bool__(self):
        raise TypeError(
            f"Staged Lantern value {self.sym} has no Python truth value; "
            "use AutoGraph conversion so control flow stages into the IR."
        )


class StagedTensor(StagedValue):
    """A staged numeric value (scalar, row vector or matrix)."""

    __slots__ = ()

    def _emit_binary(self, op, other, reverse=False):
        other = self.builder.as_staged(other)
        a, b = (other, self) if reverse else (self, other)
        return self.builder.emit(op, a, b)

    def __add__(self, other):
        return self._emit_binary("add", other)

    def __radd__(self, other):
        return self._emit_binary("add", other, reverse=True)

    def __sub__(self, other):
        return self._emit_binary("sub", other)

    def __rsub__(self, other):
        return self._emit_binary("sub", other, reverse=True)

    def __mul__(self, other):
        return self._emit_binary("mul", other)

    def __rmul__(self, other):
        return self._emit_binary("mul", other, reverse=True)

    def __truediv__(self, other):
        return self._emit_binary("div", other)

    def __rtruediv__(self, other):
        return self._emit_binary("div", other, reverse=True)

    def __neg__(self):
        return self.builder.emit("neg", self)

    def __matmul__(self, other):
        return self._emit_binary("matmul", other)

    # The IR has no comparisons or indexing: these reach the framework
    # op's lowering, which refuses them by name.

    def _framework_op(self, op_type, *operands, **attrs):
        from .lowering import lower_op_call

        return lower_op_call(self.builder, op_type, [self, *operands], attrs)

    __lt__ = functools.partialmethod(_framework_op, "Less")
    __le__ = functools.partialmethod(_framework_op, "LessEqual")
    __gt__ = functools.partialmethod(_framework_op, "Greater")
    __ge__ = functools.partialmethod(_framework_op, "GreaterEqual")

    def __getitem__(self, index):
        return self._framework_op("GetItem", index=index)


class RefusedValue(StagedTensor):
    """What an op the IR cannot express yields: no instruction, only the
    refusal, which ops on it pass on and a live use (a result, a branch
    condition, a call argument) raises — so an unused op is dropped, as
    a graph trace prunes it."""

    __slots__ = ("error",)

    def __init__(self, error, builder):
        super().__init__(None, builder)
        self.error = error


def live(value):
    """``value``, unless it is a :class:`RefusedValue`: then its refusal
    is raised."""
    if isinstance(value, RefusedValue):
        raise value.error
    return value


class StagedBool(StagedValue):
    """A staged boolean (e.g. ``tree.is_empty``)."""

    __slots__ = ()


_TREE_FIELD_KINDS = {
    "left": "tree",
    "right": "tree",
    "is_leaf": "bool",
    "is_empty": "bool",
    "value": "tensor",
    "embedding": "tensor",
    "label": "tensor",
}


class StagedTree(StagedValue):
    """Staged runtime tree data (paper §8: Lantern handles recursive
    data structures the TF graph IR cannot)."""

    __slots__ = ()

    def __getattr__(self, name):
        kind = _TREE_FIELD_KINDS.get(name)
        if kind is None:
            raise AttributeError(
                f"Staged trees expose {sorted(_TREE_FIELD_KINDS)}, not {name!r}"
            )
        return self.builder.emit_field(self, name, kind)


class Block:
    """A straight-line (plus nested ifs) sequence of instructions."""

    __slots__ = ("instructions", "result_syms")

    def __init__(self):
        self.instructions = []
        self.result_syms = ()

    def to_sexpr(self):
        body = [_instr_to_sexpr(i) for i in self.instructions]
        return (Sym("block"), *body, (Sym("result"), *map(Sym, self.result_syms)))


def _instr_to_sexpr(instr):
    tag = instr[0]
    if tag == "op":
        _, out, op_name, args = instr
        return (Sym("let"), Sym(out), (Sym(op_name), *map(Sym, args)))
    if tag == "const":
        _, out, value = instr
        rendered = float(value) if np.isscalar(value) else Sym(f"<array{np.shape(value)}>")
        return (Sym("let"), Sym(out), (Sym("const"), rendered))
    if tag == "param":
        _, out, name = instr
        return (Sym("let"), Sym(out), (Sym("param"), name))
    if tag == "field":
        _, out, obj, field = instr
        return (Sym("let"), Sym(out), (Sym("field"), Sym(obj), Sym(field)))
    if tag == "call":
        _, outs, fn_name, args = instr
        return (
            Sym("let"), (Sym("values"), *map(Sym, outs)),
            (Sym("call"), Sym(fn_name), *map(Sym, args)),
        )
    if tag == "if":
        _, outs, cond, then_block, else_block = instr
        return (
            Sym("let"), (Sym("values"), *map(Sym, outs)),
            (Sym("if"), Sym(cond), then_block.to_sexpr(), else_block.to_sexpr()),
        )
    raise ValueError(f"Unknown instruction {instr!r}")


class FunctionDef:
    """A staged function: parameters, body block, output arity."""

    __slots__ = ("name", "param_syms", "param_kinds", "block", "n_outputs")

    def __init__(self, name, param_syms, param_kinds, n_outputs):
        self.name = name
        self.param_syms = param_syms
        self.param_kinds = param_kinds
        self.block = Block()
        self.n_outputs = n_outputs

    def to_sexpr(self):
        return (
            Sym("def"), Sym(self.name),
            tuple(Sym(p) for p in self.param_syms),
            self.block.to_sexpr(),
        )


class Program:
    """A set of staged functions plus the constant and parameter pools."""

    def __init__(self):
        self.functions = {}
        self.consts = {}
        # name -> Param, registered as ``param`` instructions are emitted,
        # so callers can compile without hand-collecting the closure's
        # parameters.
        self.params = {}

    def to_sexpr(self):
        return (Sym("program"), *[f.to_sexpr() for f in self.functions.values()])

    def to_string(self):
        return format_sexpr(self.to_sexpr())


class Builder:
    """Emits instructions into a stack of blocks during tracing."""

    #: ``fn(value)`` staging an eager tensor or Variable (a Param
    #: capture or a constant), else None; the ``Stager`` sets it.
    external = None

    def __init__(self, program):
        self.program = program
        self._counter = 0
        self._block_stack = []

    # -- symbols -----------------------------------------------------------

    def fresh(self, prefix="x"):
        self._counter += 1
        return f"{prefix}{self._counter}"

    @property
    def current_block(self):
        if not self._block_stack:
            raise RuntimeError("No active Lantern block (not tracing)")
        return self._block_stack[-1]

    def push_block(self, block):
        self._block_stack.append(block)

    def pop_block(self):
        return self._block_stack.pop()

    # -- staged value creation ------------------------------------------------

    def as_staged(self, value):
        if isinstance(value, StagedValue):
            return value
        if isinstance(value, Param):
            return self.emit_param(value)
        if isinstance(value, (int, float, np.ndarray, np.generic)):
            return self.emit_const(value)
        if self.external is not None:
            staged = self.external(value)
            if staged is not None:
                return staged
        # AutoGraph models a branch that never assigns/returns a symbol
        # as an Undefined sentinel; surface the fix instead of the type.
        if any(k.__name__ == "Undefined" for k in type(value).__mro__):
            raise TypeError(
                "A staged Lantern conditional leaves a value undefined in "
                "one branch (e.g. an early `return` inside `if` with no "
                "`else`); both branches must produce the same values — "
                "write `if ...: ... else: ...` with one return per branch"
            )
        raise TypeError(f"Cannot stage value of type {type(value).__name__}")

    def emit(self, op_name, *args):
        if op_name not in OPS:
            raise ValueError(f"Unknown Lantern op {op_name!r}")
        arg_vals = [self.as_staged(a) for a in args]
        for a in arg_vals:
            if isinstance(a, RefusedValue):
                return a
        out = self.fresh()
        self.current_block.instructions.append(
            ("op", out, op_name, [a.sym for a in arg_vals])
        )
        return StagedTensor(out, self, _result_shape(op_name, arg_vals))

    def emit_const(self, value):
        out = self.fresh("c")
        # No literal spells nan / inf: they travel as arrays do.  An
        # array is copied, so the caller writing into it later does not
        # reach the program.
        if not np.isscalar(value) or not np.isfinite(value):
            value = np.array(value, dtype=np.float32)
        self.program.consts[out] = value
        self.current_block.instructions.append(("const", out, value))
        return StagedTensor(out, self, np.shape(value))

    def emit_param(self, param):
        existing = self.program.params.setdefault(param.name, param)
        if existing is not param:
            raise ValueError(
                f"Two distinct Params named {param.name!r} were staged into "
                "one program; parameter names must be unique"
            )
        out = self.fresh("p")
        self.current_block.instructions.append(("param", out, param.name))
        return StagedTensor(out, self, param.value.shape)

    def emit_field(self, obj, field, kind):
        out = self.fresh("f")
        self.current_block.instructions.append(("field", out, obj.sym, field))
        if kind == "tree":
            return StagedTree(out, self)
        if kind == "bool":
            return StagedBool(out, self)
        return StagedTensor(out, self)

    def emit_call(self, fn_name, args, n_outputs):
        arg_vals = [live(self.as_staged(a)) for a in args]
        outs = [self.fresh("r") for _ in range(n_outputs)]
        self.current_block.instructions.append(
            ("call", outs, fn_name, [a.sym for a in arg_vals])
        )
        results = tuple(StagedTensor(o, self) for o in outs)
        return results[0] if n_outputs == 1 else results

    def emit_if(self, cond, then_fn, else_fn, n_outputs):
        """Trace both branches into sub-blocks; returns output tensors."""
        live(cond)
        then_block = Block()
        self.push_block(then_block)
        try:
            then_vals = _as_value_tuple(self, then_fn())
            then_block.result_syms = tuple(v.sym for v in then_vals)
        finally:
            self.pop_block()
        else_block = Block()
        self.push_block(else_block)
        try:
            else_vals = _as_value_tuple(self, else_fn())
            else_block.result_syms = tuple(v.sym for v in else_vals)
        finally:
            self.pop_block()

        if len(then_block.result_syms) != len(else_block.result_syms):
            raise ValueError(
                "Staged Lantern conditional branches must produce the same "
                f"number of values ({len(then_block.result_syms)} vs "
                f"{len(else_block.result_syms)})"
            )
        outs = [self.fresh("v") for _ in range(len(then_block.result_syms))]
        self.current_block.instructions.append(
            ("if", outs, cond.sym, then_block, else_block)
        )
        return tuple(StagedTensor(o, self) for o in outs)


def _as_value_tuple(builder, values):
    if not isinstance(values, tuple):
        values = (values,)
    return tuple(live(builder.as_staged(v)) for v in values)
