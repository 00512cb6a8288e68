"""``Session``'s bounded LRU of bound plans: eviction, recency, races.

A session compiles one plan per (fetches, feed set, graph version) key
and keeps at most 128 of them.  These tests pin that contract by what a
caller can observe — how often ``compile_plan`` runs, how many entries
are alive, what the results are — with the constant monkeypatched small:
the bound holds under concurrent compiles, recency protects hot plans,
and eviction never breaks correctness (an evicted plan is recompiled,
never served stale).
"""

import gc
import sys
import threading

import numpy as np
import pytest

from repro import framework as fw
from repro.framework import ops
from repro.framework.graph import session as session_lib


@pytest.fixture
def compiles(monkeypatch):
    """The fetch names of every plan ``Session`` compiled, in order."""
    seen = []
    real = session_lib.compile_plan

    def counting(graph, fetches, feeds):
        seen.append([f.name for f in fetches])
        return real(graph, fetches, feeds)

    monkeypatch.setattr(session_lib, "compile_plan", counting)
    return seen


def _capacity(monkeypatch, n):
    monkeypatch.setattr(session_lib, "_MAX_PLANS", n)


def _run_threads(threads):
    """Start and join under a 10 us switch interval, so a lost update in
    the shared LRU would show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


def test_default_capacity_is_128():
    assert session_lib._MAX_PLANS == 128
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [])
        outs = [ops.multiply(x, float(i)) for i in range(140)]
    sess = fw.Session(g)
    for out in outs:
        sess.run(out, {x: 1.0})
    assert len(sess._plan_cache) == 128


def test_lru_evicts_the_least_recently_run(monkeypatch, compiles):
    _capacity(monkeypatch, 2)
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [])
        a, b, c = (ops.add(x, float(i)) for i in range(3))
    sess = fw.Session(g)
    sess.run(a, {x: 0.0})
    sess.run(b, {x: 0.0})
    sess.run(a, {x: 0.0})               # refresh a's recency
    sess.run(c, {x: 0.0})               # evicts b (least recent)
    first = [[a.name], [b.name], [c.name]]
    assert compiles == first
    sess.run(a, {x: 0.0})
    sess.run(c, {x: 0.0})
    assert compiles == first            # both still bound
    assert sess.run(b, {x: 0.0}) == 1.0
    assert compiles == first + [[b.name]]
    assert len(sess._plan_cache) == 2


def test_session_cache_bounded_and_correct_after_eviction(monkeypatch,
                                                          compiles):
    _capacity(monkeypatch, 3)
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [])
        outs = [ops.multiply(x, float(i)) for i in range(10)]
    sess = fw.Session(g)
    for i, out in enumerate(outs):
        assert sess.run(out, {x: 2.0}) == pytest.approx(2.0 * i)
    assert len(sess._plan_cache) == 3
    assert len(compiles) == 10
    # Evicted fetches recompile and still compute correctly.
    assert sess.run(outs[0], {x: 3.0}) == pytest.approx(0.0)
    assert sess.run(outs[1], {x: 3.0}) == pytest.approx(3.0)
    assert len(compiles) == 12


def test_hot_fetch_survives_churn(monkeypatch, compiles):
    _capacity(monkeypatch, 3)
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [])
        hot = ops.multiply(x, 100.0)
        churn = [ops.add(x, float(i)) for i in range(6)]
    sess = fw.Session(g)
    sess.run(hot, {x: 1.0})
    for c in churn:
        sess.run(c, {x: 1.0})
        sess.run(hot, {x: 1.0})  # keep hot recent
    assert sess.run(hot, {x: 1.0}) == 100.0
    assert compiles.count([hot.name]) == 1


def test_racing_first_runs_compile_once_and_agree(compiles):
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [4])
        y = ops.reduce_sum(ops.tanh(ops.multiply(x, 3.0)))
    sess = fw.Session(g)
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    fed = np.linspace(-1, 1, 4, dtype=np.float32)
    results, errors = [], []

    def worker():
        barrier.wait()
        try:
            results.append(sess.run(y, {x: fed}))
        except Exception as e:  # noqa: BLE001 - surfaced via main thread
            errors.append(e)

    _run_threads([threading.Thread(target=worker)
                  for _ in range(n_threads)])
    assert errors == []
    assert compiles == [[y.name]]
    assert len({np.asarray(r).tobytes() for r in results}) == 1
    assert len(results) == n_threads


def test_concurrent_compiles_respect_capacity_and_results(monkeypatch):
    """Many threads compiling distinct plans against a small cache: the
    bound holds and every result is right."""
    _capacity(monkeypatch, 4)
    g = fw.Graph()
    n_fetches, n_threads, n_rounds = 8, 8, 6
    with g.as_default():
        x = ops.placeholder(fw.float32, [])
        outs = [ops.add(ops.multiply(x, float(i)), 1.0) for i in range(n_fetches)]
    sess = fw.Session(g)

    errors = []
    barrier = threading.Barrier(n_threads)

    def worker(tid):
        rng = np.random.RandomState(tid)
        barrier.wait()
        try:
            for _ in range(n_rounds):
                i = int(rng.randint(n_fetches))
                got = sess.run(outs[i], {x: 2.0})
                if not np.isclose(got, 2.0 * i + 1.0):
                    errors.append((i, got))
                if len(sess._plan_cache) > 4:
                    errors.append(len(sess._plan_cache))
        except Exception as e:  # noqa: BLE001 - surfaced via main thread
            errors.append(e)

    _run_threads([threading.Thread(target=worker, args=(t,))
                  for t in range(n_threads)])
    assert errors == []
    assert len(sess._plan_cache) <= 4


def test_eviction_drops_refs(monkeypatch):
    """Only the entry holds the fetch / feed objects for a key, and an
    evicted entry is gone from the session."""
    _capacity(monkeypatch, 1)
    g = fw.Graph()
    with g.as_default():
        x = ops.placeholder(fw.float32, [])
        a = ops.add(x, 1.0)
        b = ops.add(x, 2.0)
    sess = fw.Session(g)
    sess.run(a, {x: 0.0})
    (entry_a,) = sess._plan_cache.values()
    assert entry_a[2][0] is a
    sess.run(b, {x: 0.0})
    (entry_b,) = sess._plan_cache.values()
    assert entry_b is not entry_a
    assert entry_b[2][0] is b
    assert not any(holder is entry_a for holder in gc.get_referrers(a))
