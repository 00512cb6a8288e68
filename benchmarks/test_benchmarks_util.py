"""Unit tests: the benchmark harness itself."""

import numpy as np
import pytest

import benchmarks_util as bu


class TestMeasure:
    def test_protocol_counts(self):
        calls = []
        result = bu.measure(lambda: calls.append(1), warmup=3, runs=5)
        assert len(calls) == 8  # warmups + timed runs
        assert len(result.times) == 5

    def test_statistics(self):
        result = bu.BenchResult([0.1, 0.2, 0.3], label="t")
        assert np.isclose(result.mean, 0.2)
        assert result.std > 0

    def test_throughput(self):
        result = bu.BenchResult([0.5, 0.5])
        mean, std = result.throughput(10.0)
        assert np.isclose(mean, 20.0)
        assert np.isclose(std, 0.0)

    def test_times_positive(self):
        result = bu.measure(lambda: sum(range(100)), warmup=0, runs=3)
        assert np.all(result.times > 0)


class TestScaling:
    def test_scaled_honors_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_FAST", raising=False)
        assert bu.scaled(100, 5) == 100
        assert not bu.fast_mode()
        monkeypatch.setenv("REPRO_BENCH_FAST", "1")
        assert bu.scaled(100, 5) == 5
        assert bu.fast_mode()

    def test_zero_means_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_FAST", "0")
        assert not bu.fast_mode()


class TestPrintTable:
    def test_prints_rows(self, capsys):
        bu.print_table("T", ["a", "b"], [["x", 1], ["y", 2]])
        out = capsys.readouterr().out
        assert "=== T ===" in out
        assert "x" in out and "2" in out
