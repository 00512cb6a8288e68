"""LatencyHistogram: the fixed log-bucket replacement for the sliding
latency window — bounded quantile error, exact merge, sparse encoding."""

import json
import random

import pytest

from repro.serving.server import LatencyHistogram


def _histogram(samples):
    hist = LatencyHistogram()
    for seconds in samples:
        hist.record(seconds)
    return hist


def _exact(samples, q):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@pytest.mark.parametrize("seed", range(5))
def test_quantiles_within_one_buckets_relative_error(seed):
    rng = random.Random(seed)
    # Log-normal around 1 ms with a heavy tail: ~6 octaves of spread.
    samples = [rng.lognormvariate(-7.0, 1.0) for _ in range(5000)]
    hist = _histogram(samples)
    assert hist.count == 5000
    assert hist.total == pytest.approx(sum(samples))
    for q in (0.0, 0.5, 0.9, 0.99, 0.999, 1.0):
        exact = _exact(samples, q)
        assert abs(hist.quantile(q) - exact) <= (
            exact * LatencyHistogram.RELATIVE_ERROR * (1 + 1e-9))
    stats = hist.stats()
    assert stats["count"] == 5000
    assert stats["mean_ms"] == round(sum(samples) / 5000 * 1e3, 3)
    assert stats["p50_ms"] <= stats["p99_ms"]


def test_merge_equals_histogram_of_the_union():
    rng = random.Random(7)
    a = [rng.lognormvariate(-7.0, 0.8) for _ in range(3000)]
    b = [rng.lognormvariate(-5.0, 0.3) for _ in range(1000)]
    merged = _histogram(a).merge(_histogram(b).to_doc())
    union = _histogram(a + b)
    assert merged.buckets == union.buckets
    assert merged.count == union.count == 4000
    assert merged.total == pytest.approx(union.total)
    for q in (0.5, 0.99):
        assert merged.quantile(q) == union.quantile(q)


def test_sparse_doc_round_trips_through_json():
    rng = random.Random(3)
    hist = _histogram(rng.lognormvariate(-7.0, 1.0) for _ in range(2000))
    doc = json.loads(json.dumps(hist.to_doc()))
    # Occupied buckets only, flat: [index, samples, index, samples, ...].
    assert len(doc["buckets"]) == 2 * len(hist.buckets)
    assert len(hist.buckets) < LatencyHistogram.BUCKETS // 2
    back = LatencyHistogram().merge(doc)
    assert back.buckets == hist.buckets
    assert (back.count, back.total) == (hist.count, hist.total)
    assert back.stats() == hist.stats()


def test_empty_and_out_of_range_samples():
    empty = LatencyHistogram()
    assert empty.stats() == {
        "count": 0, "mean_ms": 0.0, "p50_ms": 0.0, "p99_ms": 0.0}
    assert LatencyHistogram().merge(empty.to_doc()).count == 0
    # Clock granularity can hand record() a zero; a wedged request can
    # hand it hours.  Both clamp to an end bucket instead of raising.
    hist = _histogram([0.0, 1e-9, 3600.0])
    assert set(hist.buckets) == {0, LatencyHistogram.BUCKETS - 1}
    assert hist.count == 3
