"""What a workload is, and the helpers several of them share."""

from __future__ import annotations

import importlib.util
import itertools
import pathlib
import tempfile

import numpy as np

from .. import ROOT

__all__ = ["Workload", "Probes", "load_fresh", "require"]

_fresh_ids = itertools.count(1)


def load_fresh(path):
    """Execute a shifted copy of the Python file at ``path`` as a new
    module.

    AutoGraph's conversion cache is keyed by code object, and code
    objects compare by value (name, bytecode, constants, first line - not
    file name), so re-executing the same source would still hit.  The
    copy starts with a number of blank lines no earlier copy had, which
    gives every function in it a first line, hence a code object, the
    cache has not seen: the way to time a *cold* conversion or first call
    more than once per process.  The copy is a real file (AutoGraph reads
    source through ``inspect``) in the temp dir, which the harness points
    inside the checkout.
    """
    serial = next(_fresh_ids)
    name = f"bench_fresh_{serial}_{path.stem}"
    copy = pathlib.Path(tempfile.gettempdir()) / f"{name}.py"
    copy.write_text("\n" * serial + path.read_text())
    spec = importlib.util.spec_from_file_location(name, copy)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MODELS = ROOT / "bench" / "models.py"


def require(condition, message):
    """Set-up correctness gate: a wrong first result aborts the run."""
    if not condition:
        raise RuntimeError(f"benchmark set-up check failed: {message}")


class Probes:
    """How many outside-timed calls each per-layer probe makes.

    ``fast`` is for microsecond-scale calls, ``slow`` for millisecond-scale
    ones (the issue's floors are 200 and 20 at full length); both shrink
    with ``--seconds`` so the smoke run stays short.
    """

    def __init__(self, seconds):
        share = min(1.0, seconds / 8.0)
        self.fast = max(5, int(200 * share))
        self.slow = max(2, int(20 * share))


class Workload:
    """One benchmark workload.

    Subclasses fill in ``name`` and the methods below.  Inputs come from
    ``self.rng`` (seeded by ``--seed``) and nothing else.
    """

    name = None
    #: Operations repeat in a cycle of this many unequal members; windows
    #: hold whole cycles (1: every operation is alike).
    cycle = 1
    #: Whether the calibration loop is interleaved and the timings scaled
    #: by it (see :mod:`bench.measure`).
    calibrated = True

    def __init__(self, seed):
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def setup(self):
        """Everything a user waits for before the first result: build the
        model, trace/compile (or save, load and start the fleet), run one
        operation and check it against the reference."""
        raise NotImplementedError

    def callers(self):
        """The closed-loop callers of the untraced run."""
        raise NotImplementedError

    def traced_callers(self, spans):
        """The same operations, decomposed into their layer calls, each
        call wrapped in a span of ``spans``."""
        raise NotImplementedError

    def layers(self, spans, untraced, probes):
        """The per-layer metrics: ``{name: value}`` from the traced pass
        (``spans``), the short untraced pass before it (``untraced``, a
        :func:`bench.measure.summarize` dict) and outside-timed probes."""
        raise NotImplementedError

    def teardown(self):
        """Stop everything ``setup`` started (no-op by default)."""

