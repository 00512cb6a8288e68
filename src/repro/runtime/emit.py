"""The plan emitter: every walk of an ``ExecutionPlan`` is generated code.

A plan runs as ONE generated Python function per walk, written on the
plan's first execution with that walk by :func:`walk`, the only place a
walk is written:

- every value slot is a local variable: the feeds are unpacked once
  from the walk's argument (``s5, s6, = f``), a baked constant is a
  global of the walk's own namespace (``c3``), and a step result stays
  in its local until a later step reads it;
- each step is ONE source line, ``s7 = k2(s5, c3)``; a multi-output step
  unpacks (``s9_0, s9_1 = k4(s7)``);
- a fused group (:mod:`repro.runtime.fusion`) is ONE line too: its
  members' ufunc calls nest in the root's, and a walrus names a
  temporary only where the fuser proved a member may write into it
  (``s7 = u_tanh(u_add((t0 := u_multiply(s8, s8)), c5, out=t0),
  out=t0)``); temporary names restart at ``t0`` in every group, and
  the line ends by deleting them (``; del t0``) where they are walk
  locals, so no temporary outlives its group;
- a step armed with a recycled buffer is ``s8 = _inplace(r3, s7, s5)``:
  :func:`_inplace` is the one copy of the ``type``/shape/dtype guard and
  of the counted fallback to the allocating kernel when the ``out=``
  write is refused (for a fused group, the root's own ufunc, its
  operands being the members' calls);
- an exception from a step becomes the ``ExecutionError`` naming its op
  (the kernel's exception as ``__cause__``): the traceback's line number
  in the generated code says which step raised (:func:`_error`);
- the walk returns the flat fetches and writes nothing back.

Two flags vary the emission.  *Recorded* (``repro.observe`` is on) runs
the same lines inside a ``plan.execute`` span with each step called
through :func:`_step`, which wraps it in a ``step`` span (a fused group
as one ``lambda``, so its span covers every member's call).  *Levels* (a
parallel ``BlockScheduler`` is bound) walks the plan's wavefront levels:
a one-step level is its serial line, a wider level is one
``scheduler.map`` over per-step thunks — one ``lambda`` line each — whose
results the walk unpacks; recorded, each level is a ``level[i]`` span.

A staged ``While`` runs no walk per turn: :func:`loop` writes its
condition plan's and body plan's lines into ONE Python ``while`` (names
prefixed ``c`` and ``b``), with ``if not c: break``, the turn bound and
the loop variables' reassignment, and checks what the binder would —
each capture once at entry, each loop variable at the top of every
turn — as lines of its own.  It is written once per (condition, body)
pair and kind (serial / recorded), kept by the body plan
(``ExecutionPlan._loop``), and called once per run of the loop.

A walk is written once per plan and kind and kept by its plan
(``ExecutionPlan._walks``); kernels, ufuncs, in-place records,
constants and op names are globals of the namespace it is compiled in,
never source text.  Walks and loop walks are the only code
``repro.runtime`` compiles.  Nothing keeps the source: no cache of it,
no ``linecache`` entry.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..framework.errors import ExecutionError
from ..observe.events import RECORDER as _REC
from .engine import cast, feed_check, shape_error

__all__ = ["LEVELS", "RECORDED", "loop", "walk"]

#: Walk-kind bits: ``0`` is the serial walk.
RECORDED, LEVELS = 1, 2

_file_ids = itertools.count()


# -- what the generated code calls -----------------------------------------


def _inplace(record, buf, *args):
    """One in-place step: write into ``buf`` when it is still an ndarray
    of the planned shape and dtype, else (or when the ``out=`` write is
    refused) call the allocating kernel.

    Static shapes/dtypes matched at compile time; the guard protects
    against kernels whose actual output metadata diverged from inference.
    """
    ikernel, kernel, shape, dtype = record
    if type(buf) is np.ndarray and buf.shape == shape and buf.dtype == dtype:
        try:
            out = ikernel(*args, out=buf)
        except (TypeError, ValueError):
            # The ufunc refused the out= cast (an operand is not of its
            # declared dtype); NumPy rejects before writing, so fall
            # back clean — and say so.
            _REC.counter("runtime.inplace_refusals")
        else:
            if out is not None:
                return out
    return kernel(*args)


def _step(name, slot, kernel, *args):
    """One step of a recorded walk, inside a ``step`` span named after
    its op (so the profiler's top-kernels view aggregates directly)."""
    t0 = _REC.begin()
    try:
        return kernel(*args)
    finally:
        _REC.end(name, "step", t0, {"slot": slot})


def _call(thunk):
    return thunk()


def _error(e, names, step_at, filename):
    """The ``ExecutionError`` for ``e``, raised by the step whose line
    the innermost generated frame of its traceback was running, or
    ``None`` if that line is no step (a loop walk's check or test)."""
    line = 0
    tb = e.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code.co_filename == filename:
            line = tb.tb_lineno
        tb = tb.tb_next
    i = step_at.get(line)
    if i is None:
        return None
    name = names[i]
    return ExecutionError(
        f"Error executing op {name!r}: {e}", op_name=name)


# -- the emitter -----------------------------------------------------------


class _Lines:
    """The source lines of one plan's steps, written into ``namespace``.

    Every name a line uses starts with ``prefix``: a step's result is
    ``{prefix}s7``, its kernel ``{prefix}k2``, a baked constant
    ``{prefix}c3``, an in-place record ``{prefix}r4``, so two plans'
    lines can share one function (:func:`loop`).  ``feeds`` names the
    local each feed (in ``plan.feed_slots`` order) is read from;
    ``first`` is the plan's first step's index into ``N``.
    """

    def __init__(self, plan, namespace, recorded, prefix="", feeds=None,
                 first=0):
        self.steps, self.namespace = plan.steps, namespace
        self.recorded, self.prefix, self.first = recorded, prefix, first
        self.base = plan.base_values
        self.arity = {s[0]: s[3] for s in plan.steps}
        slots = [slot for _t, slot in plan.feed_slots]
        self.fed = dict(zip(slots, feeds or [f"s{j}" for j in slots]))

    def ref(self, loc):
        j, k = loc
        n, p = self.arity.get(j), self.prefix
        if n is not None:
            return f"{p}s{j}" if n == 1 else f"{p}s{j}_{k}"
        name = self.fed.get(j)
        if name is not None:
            return name
        self.namespace[f"{p}c{j}"] = self.base[j][0]
        return f"{p}c{j}"

    def ufunc(self, u):
        """The global naming ufunc ``u`` (``u_tanh``)."""
        name = f"u_{u.__name__}"
        self.namespace[name] = u
        return name

    def operands(self, members, m, temps, reuse):
        """The operand texts of fused member ``m`` (a locator's local, or
        a member's own call) and the temporary its ``out=`` names: member
        ``reuse``'s result, named by a walrus unless that member already
        wrote into (and so returned) a temporary."""
        texts, out = [], None
        for a in members[m][1]:
            if type(a) is not int:
                texts.append(self.ref(a))
                continue
            u, _args, inner = members[a]
            args, held = self.operands(members, a, temps, inner)
            text = f"{self.ufunc(u)}({', '.join(args)})"
            if a == reuse:
                out = held or f"t{next(temps)}"
                if held is None:
                    text = f"({out} := {text})"
            texts.append(text)
        return (texts + [f"out={out}"] if out else texts), out

    def call(self, i, temps=None):
        """Step ``i``'s call; a fused group's walrus temporaries count
        off ``temps``."""
        slot, kernel, locators, _n, _name, inplace = self.steps[i]
        p, namespace = self.prefix, self.namespace
        fused = type(kernel) is tuple
        if fused:
            # A fused group (root last): its members' calls nest in the
            # root's, temporaries named afresh per group.
            members = kernel
            kernel, _args, reuse = members[-1]
            fn, (args, _out) = self.ufunc(kernel), self.operands(
                members, len(members) - 1,
                itertools.count() if temps is None else temps,
                None if inplace else reuse)
        else:
            fn, args = f"{p}k{i}", [self.ref(loc) for loc in locators]
            namespace[fn] = kernel
        if inplace is not None:
            fn, args = "_inplace", [f"{p}r{i}", self.ref(inplace[:2]), *args]
            namespace[f"{p}r{i}"] = (
                inplace[2], kernel, inplace[3], inplace[4])
        name = f"N[{self.first + i}]"
        if self.recorded and fused:
            # The step span covers every member's call.
            fn, args = "_step", [name, str(slot),
                                 f"lambda: {fn}({', '.join(args)})"]
        elif self.recorded:
            fn, args = "_step", [name, str(slot), fn, *args]
        return f"{fn}({', '.join(args)})"

    def targets(self, slot):
        """The locals a step's outputs land in: ``s7``, ``s9_0, s9_1``,
        or none at all."""
        n, p = self.arity[slot], self.prefix
        return f"{p}s{slot}" if n == 1 else ", ".join(
            f"{p}s{slot}_{k}" for k in range(n))

    def line(self, i):
        """Step ``i``'s line.  Where a fused group's walrus binds a walk
        local (no ``lambda`` around it), the line drops its temporaries
        as the group ends, so none outlives its group."""
        outs, temps = self.targets(self.steps[i][0]), itertools.count()
        text = f"{outs} = {self.call(i, temps)}" if outs else self.call(
            i, temps)
        n = 0 if self.recorded else next(temps)
        if n:
            text += "; del " + ", ".join(f"t{k}" for k in range(n))
        return text


def _namespace(names):
    return {
        "_ExecutionError": ExecutionError, "_REC": _REC,
        "_inplace": _inplace, "_step": _step, "_call": _call,
        "_error": _error, "N": names,
    }


def _compile(src, namespace, step_at, name):
    filename = f"<repro.plan {name} {next(_file_ids)}>"
    namespace["_AT"], namespace["_FILE"] = step_at, filename
    exec(compile("\n".join(src) + "\n", filename, "exec"), namespace)
    _REC.counter("runtime.walks_emitted")
    return namespace[name]


def walk(plan, kind):
    """Write and compile the walk ``kind`` (``RECORDED`` / ``LEVELS``
    bits) of ``plan``: a function ``(feeds, scheduler=None)`` that runs
    every step on ``feeds`` (one value per ``plan.feed_slots`` entry, in
    that order) and returns the flat fetches."""
    steps = plan.steps
    recorded = kind & RECORDED
    namespace = _namespace(tuple(s[4] for s in steps))
    w = _Lines(plan, namespace, recorded)

    # The try body: (step index | None, text) per line; a line that is
    # no step answers for the next step line (the last step's, at the
    # end).
    body = []
    levels = plan.levels if kind & LEVELS else None
    if levels is None:
        body.extend((i, w.line(i)) for i in range(len(steps)))
    for index, level in enumerate(levels or ()):
        if recorded:
            body.append((None, "tl = _REC.begin()"))
        if len(level) == 1:
            body.append((level[0], w.line(level[0])))
        else:
            outs = ", ".join(
                f"({w.targets(steps[i][0])})" if steps[i][3] > 1
                else w.targets(steps[i][0]) or "_" for i in level)
            body.append((None, f"{outs} = scheduler.map(_call, ("))
            body.extend((i, f"    lambda: {w.call(i)},") for i in level)
            body.append((None, "))"))
        if recorded:
            body.append((None, f'_REC.end("level[{index}]", "level", tl, '
                               f'{{"steps": {len(level)}}})'))

    src = ["def walk(f, scheduler=None):"]
    if w.fed:
        src.append("    " + "".join(f"{v}, " for v in w.fed.values())
                   + "= f")
    if recorded:
        src.append("    t = _REC.begin()")
    src.append("    try:")
    step_at, pending = {}, []
    for i, text in body:
        src.append("        " + text)
        pending.append(len(src))
        if i is not None:
            step_at.update(dict.fromkeys(pending, i))
            pending = []
    step_at.update(dict.fromkeys(pending, len(steps) - 1))
    if not body:
        src.append("        pass")
    src += ["    except _ExecutionError:",
            "        raise",
            "    except Exception as e:",
            "        raise _error(e, N, _AT, _FILE) from e"]
    if recorded:
        src += ["    finally:",
                '        _REC.end("plan.execute", "plan", t, '
                f'{{"steps": {len(steps)}}})']
    src.append("    return [" + ", ".join(
        w.ref(loc) if loc[0] >= 0 else "None"
        for loc in plan.fetch_locators) + "]")
    return _compile(src, namespace, step_at, "walk")


def _checks(value, check, namespace):
    """The lines holding ``value`` (a local) to a feed's check
    (:func:`repro.runtime.engine.feed_check`): the binder's coercion,
    shape test and ``FetchError``s, written out."""
    np_dtype, exact, partial, name = check
    if np_dtype is None:
        return []
    key = f"_{value}"
    namespace[f"d{key}"], namespace[f"n{key}"] = np_dtype, name
    lines = [f"if type({value}) is not _ndarray or {value}.dtype != d{key}: "
             f"{value} = _cast({value}, d{key}, n{key})"]
    if exact is not None:
        test, namespace[f"e{key}"] = f"{value}.shape != e{key}", exact
    elif partial is not None:
        rank, known, namespace[f"e{key}"] = partial
        test = " or ".join([f"{value}.ndim != {rank}"] + [
            f"{value}.shape[{i}] != {d}" for i, d in known])
    else:
        return lines
    return lines + [
        f"if {test}: raise _shape_error({value}, n{key}, e{key})"]


def loop(cond, body, n_vars, kind):
    """Write and compile the loop walk of a staged ``While`` whose
    condition and body are the plans ``cond`` and ``body`` (``kind``:
    the ``RECORDED`` bit): a function ``(args, m)`` taking the While
    op's inputs (``n_vars`` loop variables, then the condition's
    captures, then the body's) and at most ``m`` turns, returning the
    final loop variables.

    The whole loop is one Python ``while``: the condition's lines,
    ``if not c: break``, the body's lines and the loop variables'
    reassignment, every name prefixed by its plan (``cs3``, ``bk7``).
    A loop variable ``r0`` is what the body last returned (and what the
    loop returns); what the plans read is ``v0``, the same value held
    to the binder's rule (:func:`_checks`) at the top of each turn, and
    each capture is held to it once, at entry — so a turn calls no
    binder and no walk.  A failing check raises its ``FetchError``
    unwrapped, as the binder would; a failing step raises the
    ``ExecutionError`` naming its op.
    """
    recorded = kind & RECORDED
    namespace = _namespace(tuple(s[4] for s in cond.steps + body.steps))
    namespace.update(_ndarray=np.ndarray, _cast=cast,
                     _shape_error=shape_error)
    carried = [f"r{k}" for k in range(n_vars)]
    checks = {}
    for k, (t, _slot) in enumerate(cond.feed_slots[:n_vars]):
        checks[f"v{k}"] = _checks(f"v{k}", feed_check(t), namespace)
    # A loop variable no check holds is read as it came.
    read = [f"v{k}" if checks[f"v{k}"] else f"r{k}" for k in range(n_vars)]

    def lines(plan, prefix, first):
        caps = [f"{prefix}x{k}"
                for k in range(len(plan.feed_slots) - n_vars)]
        for v, (t, _slot) in zip(caps, plan.feed_slots[n_vars:]):
            checks[v] = _checks(v, feed_check(t), namespace)
        return _Lines(plan, namespace, recorded, prefix, read + caps,
                      first), caps

    c, cond_caps = lines(cond, "c", 0)
    b, body_caps = lines(body, "b", len(cond.steps))
    src = ["def loop(f, m):",
           "    " + "".join(f"{v}, " for v in carried + cond_caps
                            + body_caps) + "= f"]
    src += ["    " + text for v in cond_caps + body_caps
            for text in checks[v]]
    src += ["    n = 0", "    try:", "        while True:"]
    for r, v in zip(carried, read):
        if v != r:
            src.append(f"            {v} = {r}")
            src += ["            " + text for text in checks[v]]
    step_at = {}

    def run(w):
        if recorded:
            src.append("            tp = _REC.begin()")
        for i in range(len(w.steps)):
            src.append("            " + w.line(i))
            step_at[len(src)] = w.first + i
        if recorded:
            src.append('            _REC.end("plan.execute", "plan", tp, '
                       f'{{"steps": {len(w.steps)}}})')

    run(c)
    src += ["            if not " + c.ref(cond.fetch_locators[0])
            + ": break",
            "            if n >= m: break"]
    run(b)
    src += ["            " + "".join(f"{r}, " for r in carried) + "= "
            + ", ".join(b.ref(loc) for loc in body.fetch_locators[:n_vars])
            + ",",
            "            n += 1",
            "    except _ExecutionError:",
            "        raise",
            "    except Exception as e:",
            "        x = _error(e, N, _AT, _FILE)",
            "        if x is None:",
            "            raise",
            "        raise x from e",
            "    return [" + ", ".join(carried) + "]"]
    return _compile(src, namespace, step_at, "loop")
