"""Regression tests: Session plan-cache keys must survive id() recycling.

The cache keys plans by ``id()`` of the fetch/feed tensors.  CPython
recycles ids aggressively once an object is garbage collected, so a key
that outlives its tensors could serve a stale plan compiled for a
*different* tensor.  The fix: every cache entry holds strong references
to its fetches and feed keys, making id reuse impossible while the entry
is alive.
"""

import gc

import numpy as np
import pytest

from repro import framework as fw
from repro.framework import ops


def test_plan_cache_holds_strong_references():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [])
        y = ops.multiply(x, 2.0)
    sess = fw.Session(g)
    assert sess.run(y, {x: 3.0}) == 6.0

    entries = list(sess._plan_cache.values())
    assert len(entries) == 1
    _, feed_refs, fetch_refs = entries[0]
    assert any(t is y for t in fetch_refs)
    assert any(t is x for t in feed_refs)


def test_dead_fetch_id_cannot_alias_new_tensor():
    g = fw.Graph()
    with g.as_default():
        a = ops.constant(2.0)
        y = ops.multiply(a, 3.0)
    sess = fw.Session(g)
    assert sess.run(y) == 6.0

    # Drop every Python reference to the fetched tensor and collect. If
    # the cache did not hold a strong reference, a tensor allocated now
    # could reuse id(y) and silently hit y's compiled plan.
    del y
    gc.collect()

    g2 = fw.Graph()
    with g2.as_default():
        z = ops.multiply(ops.constant(10.0), 10.0)
    # Foreign-graph fetches must be rejected, never served a stale plan.
    with pytest.raises(fw.FetchError):
        sess.run(z)

    # The original plan still works via the cache's own strong reference.
    (_, _, kept_fetches) = list(sess._plan_cache.values())[0]
    assert sess.run(kept_fetches[0]) == 6.0


def test_distinct_fetches_get_distinct_plans():
    g = fw.Graph()
    with g.as_default():
        a = ops.constant(1.0)
        y1 = ops.add(a, 1.0)
        y2 = ops.add(a, 2.0)
    sess = fw.Session(g)
    assert sess.run(y1) == 2.0
    assert sess.run(y2) == 3.0
    assert len(sess._plan_cache) == 2


def test_feed_keys_kept_alive_per_entry():
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [2])
        y = ops.reduce_sum(x)
    sess = fw.Session(g)
    assert sess.run(y, {x: [1.0, 2.0]}) == 3.0
    (_, feed_refs, _) = list(sess._plan_cache.values())[0]
    assert len(feed_refs) == 1 and feed_refs[0] is x
