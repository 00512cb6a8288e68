"""The measurement protocol shared by every workload.

All load is **closed loop**: each caller (a Python loop, or an RPC client
thread that waits for its reply) starts its next operation only when the
previous one has returned.  A run is a warm-up followed by ``WINDOWS``
windows of equal length; latency percentiles and throughput are taken per
window and the reported number is the median over windows.

**Why every window is calibrated.**  The two-core virtual machines this
runs on slow down by up to 1.4x for anything from milliseconds to half a
minute at a time, whatever the guest does: the median latency of a whole
8 s run varies by 30 % between runs of the same code, and no choice of
window inside the run helps when the whole run was slow.  So a fixed
calibration loop (interpreter arithmetic plus a small matmul and
``tanh``; nothing of the program under test) is interleaved with the
operations - one pass per half millisecond of operation time, about a
twentieth of the run - and each window's numbers are scaled to the
speed at which one pass takes ``REFERENCE_CALIBRATION_S``.  Interleaved,
the loop sees the same instants and the same cache state as the
operations, and tracks their speed with a correlation of 0.97 (a burst
of passes between windows does not: 0.6); scaled window medians repeat
within 3-5 % where raw ones vary by 25 %.  A change to the program moves
the scaled numbers exactly as it moves the raw ones, because the loop
does not run the program.  Calibration time is taken out of throughput.

The serving workloads are **not** calibrated: their round trip is mostly
timer and I/O wait, which does not scale with CPU speed, and passes run
from two client threads beside a busy server process measure their own
contention (31-65 us within one run) rather than the machine.  Their raw
window medians repeat within a few percent as they are.
"""

from __future__ import annotations

import array
import statistics
import threading
import time

import numpy as np

__all__ = ["Caller", "Calibrator", "closed_loop", "summarize", "time_calls",
           "p50", "scale_to_reference", "CHECK_EVERY",
           "REFERENCE_CALIBRATION_S"]

#: Windows per measured run (fewer when they would be shorter than
#: ``MIN_WINDOW_S``, as in a smoke run).
WINDOWS = 8
MIN_WINDOW_S = 0.25
#: Measured operations are checked against the reference one in this many
#: (every warm-up operation is checked).
CHECK_EVERY = 50
#: The speed all timings are scaled to: a machine on which one pass of
#: the calibration loop, interleaved with operations, takes this long.
REFERENCE_CALIBRATION_S = 27e-6
#: Operation time after which the calibration loop gets its turn: one
#: pass per this much, so about a twentieth of the run.
CALIBRATE_EVERY_S = 500e-6
#: Most passes in one turn (after one long operation).
MAX_PASSES = 100


def windows_for(seconds):
    """How many windows a measured stretch of ``seconds`` is cut into."""
    return max(1, min(WINDOWS, int(seconds / MIN_WINDOW_S)))


class Calibrator:
    """The fixed calibration loop."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(64, 96)).astype(np.float32)
        self._b = rng.normal(size=(96, 96)).astype(np.float32)

    def one_pass(self):
        total = 0
        for i in range(300):
            total += i * i
        np.tanh(self._a @ self._b)
        return total


def scale_to_reference(calibration_s):
    """The factor that takes a time measured while a calibration pass
    took ``calibration_s`` to the reference speed."""
    return REFERENCE_CALIBRATION_S / calibration_s


class Caller:
    """One closed-loop caller: ``op()`` performs one user-level operation
    and returns its result, ``check(result)`` says whether it is right.

    With ``prepare``, each operation is ``op(prepare())`` and only ``op``
    is timed: for benchmark-side work (making a fresh input) that is not
    part of what the user waits for.
    """

    def __init__(self, op, check, prepare=None):
        self.op = op
        self.check = check
        self.prepare = prepare


class _Log:
    """What one caller did in one window."""

    def __init__(self):
        # Packed doubles, not lists of float objects: a fast workload logs
        # 10^5 operations, and the log must not show up in its peak RSS.
        self.durations = array.array("d")
        self.calibration = array.array("d")
        self.last_end = None
        self.failed = 0


def _drive(caller, log, deadline, cycle, check_every, calibrate):
    """Operations until ``deadline``, and then on to the end of the
    current cycle of ``cycle`` operations (so every window of a workload
    whose operations differ holds the same mix)."""
    op, check, prepare = caller.op, caller.check, caller.prepare
    clock = time.perf_counter
    durations, calibration = log.durations, log.calibration
    done = 0
    uncalibrated = 0.0
    while True:
        prepared = (prepare(),) if prepare is not None else ()
        start = clock()
        if start >= deadline and done and done % cycle == 0:
            return
        try:
            result = op(*prepared)
        except Exception:  # noqa: BLE001 - a failed operation is a data point
            end = clock()
            ok = False
        else:
            end = clock()
            # Checking is outside the timed span of the operation.
            ok = check(result) if done % check_every == 0 else True
        if not ok:
            log.failed += 1
        durations.append(end - start)
        log.last_end = end
        done += 1
        uncalibrated += end - start
        if calibrate is not None and uncalibrated >= CALIBRATE_EVERY_S:
            for _ in range(min(MAX_PASSES,
                               int(uncalibrated / CALIBRATE_EVERY_S))):
                t0 = clock()
                calibrate()
                calibration.append(clock() - t0)
            uncalibrated = 0.0


def _window(callers, seconds, cycle, check_every, calibrate):
    """Drive every caller (one thread each; a lone caller runs on the
    calling thread) for ``seconds``.  Returns ``(start, logs)``."""
    logs = [_Log() for _ in callers]
    start = time.perf_counter()
    args = (start + seconds, cycle, check_every, calibrate)
    if len(callers) == 1:
        _drive(callers[0], logs[0], *args)
    else:
        threads = [threading.Thread(target=_drive, args=(c, log) + args)
                   for c, log in zip(callers, logs)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    return start, logs


def closed_loop(callers, warmup_s, measure_s, cycle=1, calibrated=True):
    """Warm up for ``warmup_s`` (every operation checked, none timed),
    then measure ``measure_s`` in windows, the calibration loop
    interleaved if ``calibrated``.  Returns the windows for
    :func:`summarize`: a list of ``(start, logs)``, the warm-up first."""
    calibrate = Calibrator().one_pass if calibrated else None
    windows = windows_for(measure_s)
    out = [_window(callers, warmup_s, cycle, 1, calibrate)]
    for _ in range(windows):
        out.append(_window(callers, measure_s / windows, cycle, CHECK_EVERY,
                           calibrate))
    return out


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an already sorted list."""
    i = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[i]


def _median_and_spread(values):
    """Median over windows, and ``(max - min) / median``."""
    med = statistics.median(values)
    return med, (max(values) - min(values)) / med


def summarize(run):
    """Statistics of a :func:`closed_loop` run.

    Per window: the median and p90 of every caller's operations, and the
    throughput - each caller's count over the time from the window's
    start to its last completion less its calibration time, callers
    added up - all scaled by the window's median calibration pass.
    Reported: the median over windows of each (``p50_s``, ``p90_s``,
    ``throughput``) with its ``spread`` over windows; the unscaled
    ``raw_p50_s`` and whole-run ``raw_p99_s``; the median
    ``calibration_s``; and ``samples`` / ``attempted`` / ``failed``
    (warm-up included in the last two).
    """
    (_, warm_logs), measured = run[0], run[1:]
    p50s, p90s, rates, raw_p50s, calibrations, everything = (
        [], [], [], [], [], [])
    for start, logs in measured:
        passes = [c for log in logs for c in log.calibration]
        # An uncalibrated run counts as taken at the reference speed.
        calibrations.append(statistics.median(passes) if passes
                            else REFERENCE_CALIBRATION_S)
        scale = scale_to_reference(calibrations[-1])
        durations = sorted(d for log in logs for d in log.durations)
        everything.extend(durations)
        raw_p50s.append(statistics.median(durations))
        p50s.append(raw_p50s[-1] * scale)
        p90s.append(_percentile(durations, 0.90) * scale)
        rates.append(sum(
            len(log.durations)
            / (log.last_end - start - sum(log.calibration))
            for log in logs) / scale)
    p50_s, p50_spread = _median_and_spread(p50s)
    p90_s, p90_spread = _median_and_spread(p90s)
    rate, rate_spread = _median_and_spread(rates)
    all_logs = warm_logs + [log for _, logs in measured for log in logs]
    everything.sort()
    return {
        "p50_s": p50_s,
        "p90_s": p90_s,
        "throughput": rate,
        "spread": {"p50": p50_spread, "p90": p90_spread,
                   "throughput": rate_spread},
        "raw_p50_s": statistics.median(raw_p50s),
        "raw_p99_s": _percentile(everything, 0.99),
        "calibration_s": statistics.median(calibrations),
        "samples": len(everything),
        "attempted": sum(len(log.durations) for log in all_logs),
        "failed": sum(log.failed for log in all_logs),
    }


def time_calls(fn, calls):
    """Seconds of each of ``calls`` back-to-back calls of ``fn()``."""
    clock = time.perf_counter
    out = []
    for _ in range(calls):
        start = clock()
        fn()
        out.append(clock() - start)
    return out


def p50(fn, calls):
    """Median seconds of ``calls`` calls of ``fn()``."""
    return statistics.median(time_calls(fn, calls))
