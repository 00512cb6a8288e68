"""``BoundPlan``: the one binder, and the one way a plan is run.

A consumer that always feeds the same tensors in the same order — a
traced ``ConcreteFunction``, a loaded serving artifact, the
micro-batcher's batched dispatch, a ``Cond`` branch fed its captures, a
``Session`` entry for one ``(fetches, feed set)`` — binds those tensors
to plan slots *once*, at construction.  Each call is then
``execute_flat(args)``: :meth:`BoundPlan.bind` (one checked store per
argument into the list of feed values the walk unpacks) and the plan's
generated walk — no ``nest.flatten``, no cache key, no feed dict, no
copy of the plan's slot table.  Arguments that are already
correctly-dtyped ndarrays are used as-is (dtype/shape metadata was
resolved at bind time); anything else is coerced through ``np.asarray``.

A feed is checked by one rule, :func:`feed_check` decided once per feed
and :func:`cast` / :func:`shape_error` raising the ``FetchError``s: the
binder applies it per call, and a staged ``While``'s generated loop
(:func:`repro.runtime.emit.loop`) writes it as lines, once per loop
variable per turn and once per capture at loop entry.
"""

from __future__ import annotations

import numpy as np

from ..framework.errors import FetchError

__all__ = ["BoundPlan", "cast", "feed_check", "shape_error"]


def feed_check(t):
    """``(np_dtype, exact, partial, name)``: what a value fed to ``t``
    is checked against, decided once per feed.  ``np_dtype`` is
    ``None`` for a ``variant`` feed, which is checked not at all.  A
    fully-defined shape is one tuple equality (``exact``); a partial
    one is ``(rank, known, declared)``, compared by rank and its known
    ``(index, dim)`` pairs only, so ``[None]`` is one rank check; an
    unknown rank checks nothing."""
    dims = t.shape.dims
    exact = partial = None
    if dims is not None and None not in dims:
        exact = tuple(dims)
    elif dims is not None:
        partial = (len(dims), tuple(
            (i, d) for i, d in enumerate(dims) if d is not None),
            f"({', '.join(str(d) for d in dims)})")
    return t.dtype.np_dtype, exact, partial, t.name


def cast(a, np_dtype, name):
    """``a`` as an ndarray of ``np_dtype``, or the ``FetchError`` of a
    feed that cannot be."""
    try:
        return np.asarray(a, dtype=np_dtype)
    except (TypeError, ValueError) as e:
        raise FetchError(
            f"Feed for {name!r} cannot be cast to {np_dtype}: {e}") from e


def shape_error(a, name, declared):
    """The ``FetchError`` of a feed ``a`` whose shape is not the
    ``declared`` one (a tuple, or a partial shape's text)."""
    return FetchError(
        f"Feed for {name!r} has shape {a.shape}, incompatible with "
        f"declared {declared}")


class BoundPlan:
    """An :class:`~repro.runtime.plan.ExecutionPlan` bound to a fixed
    positional argument order."""

    __slots__ = ("plan", "scheduler", "calls", "_arg_binds", "_n_args")

    def __init__(self, plan, arg_tensors, scheduler=None):
        """Bind ``arg_tensors`` (the plan's feed tensors, in the order
        ``execute_flat`` will receive their values) to plan slots.

        Validation work that does not depend on per-call values — slot
        resolution, dtype lookup, which shape check a feed needs —
        happens here, once.  ``scheduler`` (a
        :class:`repro.blocks.BlockScheduler`) turns on level-parallel step
        execution; ``None`` keeps the serial kernel loop.
        """
        position_of = {id(t): i for i, (t, _slot) in
                       enumerate(plan.feed_slots)}
        binds = []
        for t in arg_tensors:
            position = position_of.pop(id(t), None)
            if position is None:
                raise FetchError(
                    f"Cannot bind {t!r}: not an unbound feed of this plan"
                )
            binds.append((position, *feed_check(t)))
        if position_of:
            unbound = [t.name for t, _slot in plan.feed_slots
                       if id(t) in position_of]
            raise FetchError(
                f"Plan feeds {unbound} were not bound to argument positions"
            )
        self.plan = plan
        self.scheduler = scheduler
        self._arg_binds = tuple(binds)
        self._n_args = len(binds)
        # Lifetime execute_flat count.  Updated without a lock: one
        # CPython int add on a path that already runs the kernel loop,
        # so the serving-observability counter is approximate under
        # threads rather than a contention point.
        self.calls = 0

    @property
    def graph_version(self):
        return self.plan.graph_version

    def describe(self):
        """Observability snapshot: how big the bound plan is, how many
        of its steps recycle a buffer and how often it has run (surfaced
        in ``GET /v1/models``)."""
        plan = self.plan
        info = {
            "args": self._n_args,
            "steps": len(plan.steps),
            "levels": len(plan.levels),
            "inplace_steps": plan.inplace_steps,
            "calls": self.calls,
            "graph_version": plan.graph_version,
        }
        fused = plan.fused_groups
        if fused:
            info["fused_steps"] = len(fused)
            info["fused_ops"] = sum(len(g[1]) for g in fused)
            info["fused_kernels"] = [g[0] for g in fused]
        return info

    def bind(self, args):
        """The feed checks: the list of feed values a walk takes, each
        positional argument at its feed's position.

        The per-call overhead is intentionally minimal: inputs that are
        already ndarrays of the bound dtype are stored into their slot
        untouched (no validation copy); others are coerced once.  Shape
        compatibility against the bound placeholder's static shape is
        still enforced, by the check decided once per feed
        (:func:`feed_check`): silently broadcasting a wrong-shaped
        feed is how serving bugs become model bugs.  The
        caller's arrays are never written: buffer reuse only ever
        targets intermediates the plan itself allocated.
        """
        if len(args) != self._n_args:
            raise FetchError(
                f"Bound plan takes {self._n_args} positional values, "
                f"got {len(args)}"
            )
        self.calls += 1
        values = [None] * self._n_args
        for (position, np_dtype, exact, partial, name), a in zip(
                self._arg_binds, args):
            if np_dtype is not None:
                if type(a) is not np.ndarray or a.dtype != np_dtype:
                    a = cast(a, np_dtype, name)
                if exact is not None:
                    if a.shape != exact:
                        raise shape_error(a, name, exact)
                elif partial is not None:
                    rank, known, declared = partial
                    if a.ndim != rank or known and any(
                            a.shape[i] != d for i, d in known):
                        raise shape_error(a, name, declared)
            values[position] = a
        return values

    def execute_flat(self, args):
        """Run the plan on positional argument values; returns the flat
        fetch results (ndarrays, in fetch order)."""
        scheduler = self.scheduler
        return self.plan.walk(scheduler)(self.bind(args), scheduler)

    def __repr__(self):
        return f"<BoundPlan args={self._n_args} plan={self.plan!r}>"
