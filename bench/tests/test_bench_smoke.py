"""Smoke test of the benchmark itself: plumbing, not speed.

One ``python3 -m bench run --smoke`` (one 0.3 s window per pass) must
emit exactly the workload and metric names ``BENCHMARK.json`` declares,
all finite, with no failed operation; a second traced pass with the same
seed must reproduce every count metric exactly.  No timing is asserted.
"""

import concurrent.futures
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from bench import ROOT, harness, report

SEED = 7


@pytest.fixture(scope="module")
def spec():
    return harness.benchmark_spec()


@pytest.fixture(scope="module")
def smoke(spec, tmp_path_factory):
    """``(saved run, second traced pass per workload)``, made side by
    side: the machine has two cores and each pass is mostly waiting."""
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    names = [w["name"] for w in spec["workloads"]]
    cli = subprocess.Popen(
        [sys.executable, "-m", "bench", "run", "--smoke",
         "--seed", str(SEED), "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        again = pool.submit(lambda: {
            name: harness.run_workload(
                name, SEED, report.SMOKE_SECONDS, trace=1, setup_reps=1)
            for name in names})
        log, _ = cli.communicate(timeout=170)
        again = again.result()
    assert cli.returncode == 0, log
    return json.loads(out.read_text()), again


def test_emits_exactly_the_declared_names(spec, smoke):
    saved, _ = smoke
    (run,) = saved["runs"]
    assert list(run) == [w["name"] for w in spec["workloads"]]
    for entry in run.values():
        assert list(entry["untraced"]["metrics"]) == [
            m["name"] for m in spec["end_to_end"]]
        assert list(entry["traced"]["metrics"]) == [
            m["name"] for m in spec["per_layer"]]


def test_values_are_finite_and_nothing_failed(smoke):
    saved, _ = smoke
    for name, entry in saved["runs"][0].items():
        for result in entry.values():
            assert result["failed"] == 0, name
            assert result["attempted"] >= 1, name
            for metric, m in result["metrics"].items():
                assert math.isfinite(m["value"]), (name, metric)
        for metric, m in entry["untraced"]["metrics"].items():
            assert m["value"] > 0, (name, metric)


def test_count_metrics_repeat_exactly(spec, smoke):
    saved, again = smoke
    counts = [m["name"] for m in spec["per_layer"]
              if m["unit"] in ("count", "bytes", "chars")
              # Measured under live load, not a fixed block of calls.
              and m["name"] not in ("serving.batching.avg_batch_size",
                                    "serving.server.shed")]
    assert len(counts) >= 12
    for name, entry in saved["runs"][0].items():
        first = entry["traced"]["metrics"]
        second = again[name]["metrics"]
        for metric in counts:
            assert first[metric]["value"] == second[metric]["value"], (
                name, metric)


def test_seed_changes_the_inputs_not_the_names():
    from bench.workloads import WORKLOADS

    def inputs(seed):
        workload = WORKLOADS["rnn_unrolled"](seed)
        workload.make_inputs()
        return workload.args

    assert np.array_equal(inputs(1)[0], inputs(1)[0])
    assert not np.array_equal(inputs(1)[0], inputs(2)[0])
    assert inputs(1)[0].shape == inputs(2)[0].shape


def test_compare_a_run_with_itself_finds_nothing_worse(smoke, tmp_path,
                                                       capsys):
    saved, _ = smoke
    path = tmp_path / "saved.json"
    path.write_text(json.dumps(saved))
    assert report.compare(str(path), str(path)) == 0
    table = capsys.readouterr().out
    assert " worse" not in table
    assert table.count("failed_share") == len(saved["runs"][0])
