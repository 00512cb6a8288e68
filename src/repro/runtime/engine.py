"""``BoundPlan``: the one binder, and the one way a plan is run.

A consumer that always feeds the same tensors in the same order — a
traced ``ConcreteFunction``, a loaded serving artifact, the
micro-batcher's batched dispatch, a ``Cond``/``While`` sub-graph fed its
loop variables and captures, a ``Session`` entry for one ``(fetches,
feed set)`` — binds those tensors to plan slots *once*, at construction.
Each call is then ``execute_flat(args)``: a list copy of the plan's base
values, one checked slot store per argument, and the plan's walk — no
``nest.flatten``, no cache key, no feed dict.  Arguments that are
already correctly-dtyped ndarrays are used as-is (dtype/shape metadata
was resolved at bind time); anything else is coerced through
``np.asarray``.  This is the only feed validation in the engine and the
only caller of :meth:`ExecutionPlan.execute
<repro.runtime.plan.ExecutionPlan.execute>`.
"""

from __future__ import annotations

import numpy as np

from ..framework.errors import FetchError

__all__ = ["BoundPlan"]


class BoundPlan:
    """An :class:`~repro.runtime.plan.ExecutionPlan` bound to a fixed
    positional argument order."""

    __slots__ = ("plan", "scheduler", "calls", "_arg_binds", "_n_args")

    def __init__(self, plan, arg_tensors, scheduler=None):
        """Bind ``arg_tensors`` (the plan's feed tensors, in the order
        ``execute_flat`` will receive their values) to plan slots.

        Validation work that does not depend on per-call values — slot
        resolution, dtype lookup, static-shape extraction — happens here,
        once.  ``scheduler`` (a :class:`repro.blocks.BlockScheduler`)
        turns on level-parallel step execution; ``None`` keeps the serial
        kernel loop.
        """
        slot_of = {id(t): slot for t, slot in plan.feed_slots}
        binds = []
        for t in arg_tensors:
            slot = slot_of.pop(id(t), None)
            if slot is None:
                raise FetchError(
                    f"Cannot bind {t!r}: not an unbound feed of this plan"
                )
            dims = t.shape.dims
            # Fully-defined shapes compare as one tuple equality on the
            # hot path; partial shapes keep the per-dimension walk.
            exact = dims if dims is not None and None not in dims else None
            partial = dims if exact is None else None
            binds.append((slot, t.dtype.np_dtype, exact, partial, t.name))
        if slot_of:
            leftover = set(slot_of.values())
            unbound = [t.name for t, slot in plan.feed_slots
                       if slot in leftover]
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
        """Observability snapshot: how big the bound plan is and how
        often it has run (surfaced in ``GET /v1/models``)."""
        plan = self.plan
        info = {
            "args": self._n_args,
            "steps": len(plan.steps),
            "levels": len(plan.levels),
            "calls": self.calls,
            "graph_version": plan.graph_version,
        }
        fused = plan.fused_groups
        if fused:
            info["fused_steps"] = len(fused)
            info["fused_ops"] = sum(len(g[1]) for g in fused)
            info["fused_kernels"] = [g[0] for g in fused]
        return info

    def execute_flat(self, args):
        """Run the plan on positional argument values; returns the flat
        fetch results (ndarrays, in fetch order).

        The per-call overhead is intentionally minimal: inputs that are
        already ndarrays of the bound dtype are stored into their slot
        untouched (no validation copy); others are coerced once.  Shape
        compatibility against the bound placeholder's static shape is
        still enforced — it is one tuple walk, and silently broadcasting
        a wrong-shaped feed is how serving bugs become model bugs.  The
        caller's arrays are never written: buffer reuse only ever
        targets intermediates the plan itself allocated.
        """
        if len(args) != self._n_args:
            raise FetchError(
                f"Bound plan takes {self._n_args} positional values, "
                f"got {len(args)}"
            )
        self.calls += 1
        plan = self.plan
        values = list(plan.base_values)
        for (slot, np_dtype, exact, partial, name), a in zip(
                self._arg_binds, args):
            if np_dtype is not None:
                if type(a) is not np.ndarray or a.dtype != np_dtype:
                    try:
                        a = np.asarray(a, dtype=np_dtype)
                    except (TypeError, ValueError) as e:
                        raise FetchError(
                            f"Feed for {name!r} cannot be cast to "
                            f"{np_dtype}: {e}"
                        ) from e
                if exact is not None:
                    if a.shape != exact:
                        raise FetchError(
                            f"Feed for {name!r} has shape {a.shape}, "
                            f"incompatible with declared {exact}"
                        )
                elif partial is not None:
                    shape = a.shape
                    if len(shape) != len(partial) or any(
                            d is not None and d != s
                            for d, s in zip(partial, shape)):
                        raise FetchError(
                            f"Feed for {name!r} has shape {shape}, "
                            f"incompatible with declared "
                            f"({', '.join(str(d) for d in partial)})"
                        )
            values[slot] = (a,)
        plan.execute(values, self.scheduler)
        return plan.fetch(values)

    def __repr__(self):
        return f"<BoundPlan args={self._n_args} plan={self.plan!r}>"
