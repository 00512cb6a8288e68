"""The perf ledger: end-to-end and per-layer benchmark for ``repro``.

Every number is taken **from outside** the program: the workloads in
:mod:`bench.workloads` call the library's public functions and time
those calls with the benchmark's own clock and span recorder
(:mod:`bench.spans`).  Nothing under ``src/`` is instrumented or changed.

Entry points (see ``bench/README.md``)::

    python3 -m bench --workload W --seed N --seconds S --trace 0|1
    python3 -m bench run [--seed N] [--out FILE]
    python3 -m bench compare A.json B.json
"""

import pathlib

#: The checkout root: ``BENCHMARK.json`` and ``src/`` live here.
ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Everything a run leaves behind (traces, temp files, saved artifacts).
OUT = ROOT / "bench" / "out"
