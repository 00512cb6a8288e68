"""Lantern compiler: lowers the IR to executable code (paper §8).

Where the real Lantern emits C++ with continuation-based back-propagation
(the ``cont``/``cont_l``/``cont_r`` lambdas in the paper's generated
snippet), we emit Python source with the *same structure*: each staged
function compiles to

    def f(args...):
        <forward SSA>
        def _bwd(d_out...):          # the continuation
            <reverse adjoints; recursive calls invoke child continuations>
            return (d_arg...)
        return (out..., _bwd)

Compilation happens once; afterwards training steps run the generated
code directly — no tracing, no dispatch, no tape — which is why the
staged TreeLSTM beats the define-by-run comparator in Table 3.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from ..framework.kernels import _sigmoid
from .ir import _TREE_FIELD_KINDS, OPS, Param, Program

__all__ = ["compile_program", "CompiledProgram", "RUNTIME", "seeds"]


def _unb(grad, like):
    """Unbroadcast ``grad`` onto the shape of ``like`` (an array or a
    Python scalar)."""
    shape = getattr(like, "shape", ())
    if getattr(grad, "shape", ()) == shape:
        return grad
    g = np.asarray(grad)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (gd, ld) in enumerate(zip(g.shape, shape)):
        if ld == 1 and gd != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _dot(a, b):
    """``a @ b`` for 2-D operands, through ``np.dot`` where that gives the
    same bytes.  ``np.matmul`` has a slow path for a contraction
    dimension of 1, which every weight gradient of a batch-1 product is
    (``[128,1] @ [1,64]``: ~25 us under ``@``, ~3 us under ``np.dot``,
    the same BLAS product).  ``@`` stays where the bytes differ: an
    operand of one element (``np.dot`` scales with BLAS, which skips a
    zero factor, so ``0 * inf`` gives 0, not nan) and operands of two
    dtypes (``np.matmul`` then sums in its own loop, not in BLAS)."""
    if a.dtype == b.dtype and a.size > 1 < b.size:
        return np.dot(a, b)
    return a @ b


def _zeros_like(value):
    """The gradient of a tensor no gradient reached: a zero of its shape
    and dtype, or ``0.0`` for a scalar (a weak Python scalar, so it
    promotes nothing).  A bare ``0.0`` for a matrix would broadcast
    through ``np.dot`` into a gradient of the wrong shape."""
    return np.zeros_like(value) if np.ndim(value) else 0.0


def seeds(outputs, seed):
    """The continuation's arguments seeding every output with ``seed``:
    the scalar for a scalar output, an array of it for a tensor."""
    return [np.full_like(out, seed) if np.ndim(out) else seed
            for out in outputs]


def _np_sigmoid(x):
    return _sigmoid(np.asarray(x, dtype=np.float32))


def _np_xent(logits, label):
    logits = np.asarray(logits)
    shifted = logits - logits.max()
    log_probs = shifted - np.log(np.exp(shifted).sum())
    return -float(log_probs.reshape(-1)[int(label)])


def _np_softmax(logits):
    logits = np.asarray(logits)
    e = np.exp(logits - logits.max())
    return e / e.sum()


#: What an op's expressions (``ir.OPS``) and so the generated code may
#: name, besides the program's own symbols.
RUNTIME = {
    "np": np,
    "_sigmoid": _np_sigmoid,
    "_xent": _np_xent,
    "_softmax": _np_softmax,
    "_unb": _unb,
    "_dot": _dot,
    "_zeros_like": _zeros_like,
}


class _Emitter:
    """Accumulates generated source lines with indentation."""

    def __init__(self):
        self.lines = []

    def emit(self, indent, text):
        self.lines.append("    " * indent + text)

    def source(self):
        return "\n".join(self.lines) + "\n"


class _GradNames:
    """Tracks gradient accumulation variables within one backward scope."""

    def __init__(self):
        self.seen = set()

    def accum(self, emitter, indent, sym, expr):
        var = f"g_{sym}"
        if sym in self.seen:
            emitter.emit(indent, f"{var} = {var} + ({expr})")
        else:
            emitter.emit(indent, f"{var} = {expr}")
            self.seen.add(sym)
        return var

    def read(self, sym):
        return f"g_{sym}" if sym in self.seen else None


def _block_defined_syms(block):
    defined = set()
    for instr in block.instructions:
        tag = instr[0]
        if tag in ("op", "const", "param", "field"):
            defined.add(instr[1])
        elif tag in ("call", "if"):
            defined.update(instr[1])
    return defined


def _block_used_syms(block):
    used = set()
    for instr in block.instructions:
        tag = instr[0]
        if tag == "op":
            used.update(instr[3])
        elif tag == "field":
            used.add(instr[2])
        elif tag == "call":
            used.update(instr[3])
        elif tag == "if":
            used.add(instr[2])
            for sub in (instr[3], instr[4]):
                used |= _block_used_syms(sub) - _block_defined_syms(sub)
                used.update(sub.result_syms)
    used.update(block.result_syms)
    return used


def _diff_free_syms(block):
    """Free symbols of a block that can carry gradients (sorted)."""
    free = _block_used_syms(block) - _block_defined_syms(block)
    return sorted(free)


class _FunctionCompiler:
    def __init__(self, fdef, with_grad, fresh_idx):
        self.fdef = fdef
        self.with_grad = with_grad
        # Numbers the ``_d<n>`` / ``_sm<n>`` temporaries; shared by the
        # functions of one ``compile_program`` call, so the source
        # depends on the program alone.
        self._fresh_idx = fresh_idx
        self._closure_counter = 0
        self._call_bwd_names = {}
        self._if_bwd_names = {}
        self._if_free_syms = {}
        # Symbols holding runtime data (trees, booleans), which carry no
        # gradient; every other symbol is a tensor.
        self._kinds = dict(zip(fdef.param_syms, fdef.param_kinds))

    def generate(self, emitter):
        f = self.fdef
        emitter.emit(0, f"def {f.name}({', '.join(f.param_syms)}):")
        self._emit_forward_block(emitter, 1, f.block)
        results = ", ".join(f.block.result_syms)
        if self.with_grad:
            self._emit_backward_fn(
                emitter, 1, "_bwd", f.block, list(f.param_syms)
            )
            emitter.emit(1, f"return ({results}, _bwd)")
        else:
            emitter.emit(1, f"return ({results},)")
        emitter.emit(0, "")

    # ------------------------------------------------------------ forward

    def _emit_forward_block(self, emitter, indent, block):
        for instr in block.instructions:
            tag = instr[0]
            if tag == "op":
                _, out, op, args = instr
                emitter.emit(
                    indent, f"{out} = {OPS[op].forward.format(*args)}")
            elif tag == "const":
                _, out, value = instr
                if np.isscalar(value):
                    emitter.emit(indent, f"{out} = {float(value)!r}")
                else:
                    emitter.emit(indent, f"{out} = _C[{out!r}]")
            elif tag == "param":
                _, out, name = instr
                emitter.emit(indent, f"{out} = _P[{name!r}]")
            elif tag == "field":
                _, out, obj, field = instr
                self._kinds[out] = _TREE_FIELD_KINDS.get(field, "tensor")
                emitter.emit(indent, f"{out} = {obj}.{field}")
            elif tag == "call":
                _, outs, fn_name, args = instr
                targets = ", ".join(outs)
                if self.with_grad:
                    bwd_var = self._fresh_closure("_bc")
                    emitter.emit(
                        indent,
                        f"{targets}, {bwd_var} = {fn_name}({', '.join(args)})",
                    )
                    self._call_bwd_names[id(instr)] = bwd_var
                else:
                    emitter.emit(
                        indent,
                        f"{targets}{',' if len(outs) == 1 else ''} = "
                        f"{fn_name}({', '.join(args)})",
                    )
            elif tag == "if":
                self._emit_forward_if(emitter, indent, instr)
            else:  # pragma: no cover - defensive
                raise ValueError(f"Unknown instruction {instr!r}")

    def _emit_forward_if(self, emitter, indent, instr):
        _, outs, cond, then_block, else_block = instr
        free = sorted(
            set(_diff_free_syms(then_block)) | set(_diff_free_syms(else_block))
        )
        self._if_free_syms[id(instr)] = free
        bif_var = self._fresh_closure("_bif") if self.with_grad else None
        self._if_bwd_names[id(instr)] = bif_var

        emitter.emit(indent, f"if {cond}:")
        self._emit_branch(emitter, indent + 1, then_block, outs, free, bif_var)
        emitter.emit(indent, "else:")
        self._emit_branch(emitter, indent + 1, else_block, outs, free, bif_var)

    def _emit_branch(self, emitter, indent, block, outs, free, bif_var):
        self._emit_forward_block(emitter, indent, block)
        for out, res in zip(outs, block.result_syms):
            emitter.emit(indent, f"{out} = {res}")
        if not outs:
            emitter.emit(indent, "pass")
        if bif_var is not None:
            self._emit_backward_fn(emitter, indent, bif_var, block, free)

    # ------------------------------------------------------------ backward

    def _emit_backward_fn(self, emitter, indent, name, block, param_syms):
        """The continuation of ``block``: takes the gradients of its
        results, returns those of ``param_syms``."""
        d_params = ", ".join(f"d_{i}" for i in range(len(block.result_syms)))
        emitter.emit(indent, f"def {name}({d_params}):")
        grads = _GradNames()
        for i, res in enumerate(block.result_syms):
            grads.accum(emitter, indent + 1, res, f"d_{i}")
        self._emit_backward_block(emitter, indent + 1, block, grads)
        ret = ", ".join(grads.read(s) or self._zero(s) for s in param_syms)
        if len(param_syms) == 1:
            emitter.emit(indent + 1, f"return ({ret},)")
        else:
            emitter.emit(indent + 1, f"return ({ret})")

    def _emit_backward_block(self, emitter, indent, block, grads):
        for instr in reversed(block.instructions):
            tag = instr[0]
            if tag == "op":
                self._emit_op_adjoint(emitter, indent, instr, grads)
            elif tag == "const":
                continue
            elif tag == "param":
                _, out, name = instr
                g = grads.read(out)
                if g is not None:
                    emitter.emit(
                        indent,
                        f"_G[{name!r}] += _unb({g}, _G[{name!r}])",
                    )
            elif tag == "field":
                continue  # runtime data carries no gradient
            elif tag == "call":
                _, outs, fn_name, args = instr
                bwd_var = self._call_bwd_names[id(instr)]
                d_args = ", ".join(
                    grads.read(o) or self._zero(o) for o in outs)
                tmp = f"_d{self._fresh_idx()}"
                emitter.emit(indent, f"{tmp} = {bwd_var}({d_args})")
                for i, arg in enumerate(args):
                    grads.accum(emitter, indent, arg, f"{tmp}[{i}]")
            elif tag == "if":
                _, outs, cond, then_block, else_block = instr
                free = self._if_free_syms[id(instr)]
                bif_var = self._if_bwd_names[id(instr)]
                d_outs = ", ".join(
                    grads.read(o) or self._zero(o) for o in outs)
                tmp = f"_d{self._fresh_idx()}"
                emitter.emit(indent, f"{tmp} = {bif_var}({d_outs})")
                for i, sym in enumerate(free):
                    grads.accum(emitter, indent, sym, f"{tmp}[{i}]")

    def _emit_op_adjoint(self, emitter, indent, instr, grads):
        _, out, op, args = instr
        g = grads.read(out)
        if g is None:
            return
        adjoints = OPS[op].adjoints
        if callable(adjoints):
            adjoints = adjoints(functools.partial(emitter.emit, indent),
                                self._fresh_idx, g, out, *args)
        else:
            adjoints = [a and a.format(*args, g=g, out=out) for a in adjoints]
        for arg, adjoint in zip(args, adjoints):
            if adjoint is not None:
                grads.accum(emitter, indent, arg, adjoint)

    def _zero(self, sym):
        """The gradient a continuation passes for ``sym`` when none
        reached it: a zero shaped like a tensor, ``0.0`` for runtime
        data."""
        if self._kinds.get(sym, "tensor") == "tensor":
            return f"_zeros_like({sym})"
        return "0.0"

    def _fresh_closure(self, prefix):
        self._closure_counter += 1
        return f"{prefix}{self._closure_counter}"


class CompiledProgram:
    """Executable artifact of :func:`compile_program`.

    Attributes:
      namespace: the generated module globals (functions by name).
      params: name -> Param (shared storage with the caller).
      source: the generated Python source (inspectable, like the paper's
        generated C++ listing).
    """

    def __init__(self, namespace, params, source, with_grad):
        self.namespace = namespace
        self.params = params
        self.source = source
        self.with_grad = with_grad

    def func(self, name):
        return self.namespace[name]

    def zero_grads(self):
        for g in self.namespace["_G"].values():
            g[...] = 0.0

    def grads(self):
        return self.namespace["_G"]

    def run(self, name, *args):
        """Forward-only invocation; returns output tuple (or single)."""
        out = self.namespace[name](*args)
        if self.with_grad:
            out = out[:-1]
        return out[0] if len(out) == 1 else out

    def run_with_grad(self, name, *args, seed=1.0):
        """Run forward + backward (every output element seeded with
        ``seed``).

        Returns the forward outputs; gradients accumulate into
        ``self.grads()`` / the Param objects.
        """
        if not self.with_grad:
            raise RuntimeError("Program compiled without gradients")
        out = self.namespace[name](*args)
        results, bwd = out[:-1], out[-1]
        bwd(*seeds(results, seed))
        return results[0] if len(results) == 1 else results

    def sync_param_grads(self):
        """Copy accumulated grads back onto the Param objects."""
        g = self.namespace["_G"]
        for name, param in self.params.items():
            param.grad = g[name]


def compile_program(program, params=None, with_grad=True):
    """Compile a staged :class:`Program` into executable functions.

    Args:
      program: the traced IR.
      params: dict name -> Param (or ndarray) for ``param`` instructions;
        merged over the Params the Builder registered on the program while
        staging (``program.params``).
      with_grad: also generate the continuation-based backward pass.

    Returns:
      CompiledProgram.
    """
    if not isinstance(program, Program):
        raise TypeError("compile_program expects a lantern.ir.Program")
    merged = dict(getattr(program, "params", {}))
    merged.update(params or {})
    params = merged

    param_objs = {
        name: p if isinstance(p, Param) else Param(name, p)
        for name, p in params.items()
    }

    emitter = _Emitter()
    fresh_idx = itertools.count(1).__next__
    for fdef in program.functions.values():
        _FunctionCompiler(fdef, with_grad, fresh_idx).generate(emitter)
    source = emitter.source()

    namespace = {
        **RUNTIME,
        "_P": {name: p.value for name, p in param_objs.items()},
        "_G": {name: np.zeros_like(p.value) for name, p in param_objs.items()},
        "_C": {
            k: np.asarray(v, dtype=np.float32)
            for k, v in program.consts.items()
            if not np.isscalar(v)
        },
    }
    code = compile(source, "<lantern-generated>", "exec")
    exec(code, namespace)
    return CompiledProgram(namespace, param_objs, source, with_grad)
