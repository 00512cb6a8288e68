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

A walk is written once per plan and kind and kept by its plan
(``ExecutionPlan._walks``); kernels, ufuncs, in-place records,
constants and op names are globals of the namespace it is compiled in,
never source text.  It is the only code ``repro.runtime`` compiles.
Nothing keeps the source: no cache of it, no ``linecache`` entry.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..framework.errors import ExecutionError
from ..observe.events import RECORDER as _REC

__all__ = ["LEVELS", "RECORDED", "walk"]

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
    the innermost generated frame of its traceback was running."""
    line = 0
    tb = e.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code.co_filename == filename:
            line = tb.tb_lineno
        tb = tb.tb_next
    name = names[step_at.get(line, 0)]
    return ExecutionError(
        f"Error executing op {name!r}: {e}", op_name=name)


# -- the emitter -----------------------------------------------------------


def walk(plan, kind):
    """Write and compile the walk ``kind`` (``RECORDED`` / ``LEVELS``
    bits) of ``plan``: a function ``(feeds, scheduler=None)`` that runs
    every step on ``feeds`` (one value per ``plan.feed_slots`` entry, in
    that order) and returns the flat fetches."""
    steps = plan.steps
    recorded = kind & RECORDED
    arity = {s[0]: s[3] for s in steps}
    feed_slots = [slot for _t, slot in plan.feed_slots]
    fed = set(feed_slots)
    base = plan.base_values
    names = tuple(s[4] for s in steps)
    namespace = {
        "_ExecutionError": ExecutionError, "_REC": _REC,
        "_inplace": _inplace, "_step": _step, "_call": _call,
        "_error": _error, "N": names,
    }

    def ref(loc):
        j, k = loc
        n = arity.get(j)
        if n is not None:
            return f"s{j}" if n == 1 else f"s{j}_{k}"
        if j in fed:
            return f"s{j}"
        namespace[f"c{j}"] = base[j][0]
        return f"c{j}"

    def ufunc(u):
        """The global naming ufunc ``u`` (``u_tanh``)."""
        name = f"u_{u.__name__}"
        namespace[name] = u
        return name

    def operands(members, m, temps, reuse):
        """The operand texts of fused member ``m`` (a locator's local, or
        a member's own call) and the temporary its ``out=`` names: member
        ``reuse``'s result, named by a walrus unless that member already
        wrote into (and so returned) a temporary."""
        texts, out = [], None
        for a in members[m][1]:
            if type(a) is not int:
                texts.append(ref(a))
                continue
            u, _args, inner = members[a]
            args, held = operands(members, a, temps, inner)
            text = f"{ufunc(u)}({', '.join(args)})"
            if a == reuse:
                out = held or f"t{next(temps)}"
                if held is None:
                    text = f"({out} := {text})"
            texts.append(text)
        return (texts + [f"out={out}"] if out else texts), out

    def call(i, temps=None):
        """Step ``i``'s call; a fused group's walrus temporaries count
        off ``temps``."""
        slot, kernel, locators, _n, _name, inplace = steps[i]
        fused = type(kernel) is tuple
        if fused:
            # A fused group (root last): its members' calls nest in the
            # root's, temporaries named afresh per group.
            members = kernel
            kernel, _args, reuse = members[-1]
            fn, (args, _out) = ufunc(kernel), operands(
                members, len(members) - 1,
                itertools.count() if temps is None else temps,
                None if inplace else reuse)
        else:
            fn, args = f"k{i}", [ref(loc) for loc in locators]
            namespace[fn] = kernel
        if inplace is not None:
            fn, args = "_inplace", [f"r{i}", ref(inplace[:2]), *args]
            namespace[f"r{i}"] = (inplace[2], kernel, inplace[3], inplace[4])
        if recorded and fused:
            # The step span covers every member's call.
            fn, args = "_step", [f"N[{i}]", str(slot),
                                 f"lambda: {fn}({', '.join(args)})"]
        elif recorded:
            fn, args = "_step", [f"N[{i}]", str(slot), fn, *args]
        return f"{fn}({', '.join(args)})"

    def targets(slot):
        """The locals a step's outputs land in: ``s7``, ``s9_0, s9_1``,
        or none at all."""
        n = arity[slot]
        return f"s{slot}" if n == 1 else ", ".join(
            f"s{slot}_{k}" for k in range(n))

    def line(i):
        """Step ``i``'s line.  Where a fused group's walrus binds a walk
        local (no ``lambda`` around it), the line drops its temporaries
        as the group ends, so none outlives its group."""
        outs, temps = targets(steps[i][0]), itertools.count()
        text = f"{outs} = {call(i, temps)}" if outs else call(i, temps)
        n = 0 if recorded else next(temps)
        if n:
            text += "; del " + ", ".join(f"t{k}" for k in range(n))
        return text

    # The try body: (step index | None, text) per line; a line that is
    # no step answers for the next step line (the last step's, at the
    # end).
    body = []
    levels = plan.levels if kind & LEVELS else None
    if levels is None:
        body.extend((i, line(i)) for i in range(len(steps)))
    for index, level in enumerate(levels or ()):
        if recorded:
            body.append((None, "tl = _REC.begin()"))
        if len(level) == 1:
            body.append((level[0], line(level[0])))
        else:
            outs = ", ".join(
                f"({targets(steps[i][0])})" if steps[i][3] > 1
                else targets(steps[i][0]) or "_" for i in level)
            body.append((None, f"{outs} = scheduler.map(_call, ("))
            body.extend((i, f"    lambda: {call(i)},") for i in level)
            body.append((None, "))"))
        if recorded:
            body.append((None, f'_REC.end("level[{index}]", "level", tl, '
                               f'{{"steps": {len(level)}}})'))

    src = ["def walk(f, scheduler=None):"]
    if feed_slots:
        src.append("    " + "".join(f"s{j}, " for j in feed_slots) + "= f")
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
        ref(loc) if loc[0] >= 0 else "None"
        for loc in plan.fetch_locators) + "]")

    filename = f"<repro.plan walk {next(_file_ids)}>"
    namespace["_AT"], namespace["_FILE"] = step_at, filename
    exec(compile("\n".join(src) + "\n", filename, "exec"), namespace)
    _REC.counter("runtime.walks_emitted")
    return namespace["walk"]
