"""MicroBatcher: idle dispatch, coalescing, padding, splitting, error
and lifecycle.

The batcher never waits on a timer, so nothing here does either: a test
that needs requests to share a batch parks the worker inside a gated
executable, queues them, and opens the gate.
"""

import statistics
import threading
import time

import numpy as np
import pytest

import repro
from gated_executable import GatedExecutable, wait_for
from repro.framework import ops
from repro.serving import MicroBatcher


def _model(backend="graph"):
    w = np.random.default_rng(0).normal(size=(4, 2)).astype(np.float32)

    @repro.function(backend=backend)
    def f(x):
        return ops.matmul(x, w)

    return f.get_concrete_function(repro.TensorSpec([None, 4], "float32")), w


def _submit_all(batcher, examples):
    results = [None] * len(examples)
    errors = [None] * len(examples)

    def run(i):
        try:
            results[i] = batcher.submit([examples[i]])
        except Exception as e:  # noqa: BLE001
            errors[i] = e

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(len(examples))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, errors


def _submit_queued(batcher, gate, primer, examples, priorities=None):
    """Queue ``examples`` (in order) behind a ``primer`` request that
    holds the worker inside ``gate``, then open the gate.  Returns the
    queued examples' ``(results, errors)``."""
    priorities = priorities or ["normal"] * len(examples)
    results = [None] * len(examples)
    errors = [None] * len(examples)

    def run(i):
        try:
            results[i] = batcher.submit([examples[i]],
                                        priority=priorities[i])
        except Exception as e:  # noqa: BLE001
            errors[i] = e

    threads = [threading.Thread(target=lambda: batcher.submit([primer]))]
    threads[0].start()
    try:
        assert gate.entered.wait(10.0)
        for i in range(len(examples)):
            threads.append(threading.Thread(target=run, args=(i,)))
            threads[-1].start()
            wait_for(lambda: batcher.queue_depth() == i + 1,
                      "request never queued")
    finally:
        gate.release.set()
        for t in threads:
            t.join(10.0)
    assert not any(t.is_alive() for t in threads), "a submit never returned"
    return results, errors


@pytest.mark.parametrize("backend", ["graph", "lantern"])
def test_concurrent_requests_coalesce(backend):
    cf, w = _model(backend)
    gate = GatedExecutable(cf)
    rng = np.random.default_rng(1)
    examples = [rng.normal(size=(4,)).astype(np.float32) for _ in range(23)]
    with MicroBatcher(gate, max_batch_size=8) as batcher:
        results, errors = _submit_queued(
            batcher, gate, np.ones(4, np.float32), examples)
        stats = batcher.stats
    assert errors == [None] * 23
    for x, r in zip(examples, results):
        np.testing.assert_allclose(r.numpy(), x @ w, rtol=1e-5)
    # Everything that arrived while the first batch ran coalesced, in
    # arrival order, into as few executions as max_batch_size allows.
    assert [len(b) for b in gate.batches] == [1, 8, 8, 7]
    assert gate.batches[1] == [float(x[0]) for x in examples[:8]]
    assert (stats.requests, stats.batches, stats.max_batch_size) == (24, 4, 8)


@pytest.mark.parametrize("queued", [3, 5])
def test_released_worker_takes_the_whole_queue_up_to_max(queued):
    gate = GatedExecutable()
    examples = [np.full((2,), float(i), np.float32) for i in range(queued)]
    with MicroBatcher(gate, max_batch_size=4) as batcher:
        _, errors = _submit_queued(
            batcher, gate, np.zeros(2, np.float32), examples)
    assert errors == [None] * queued
    assert len(gate.batches[1]) == min(queued, 4)
    assert sum(len(b) for b in gate.batches) == queued + 1


def test_lone_submit_on_idle_batcher_never_waits_on_a_timer():
    cf, w = _model()
    x = np.ones(4, np.float32)

    def median_seconds(op):
        samples = []
        for _ in range(101):
            start = time.perf_counter()
            op()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    with MicroBatcher(cf) as batcher:
        waits = []
        wait = batcher._cond.wait
        batcher._cond.wait = lambda timeout=None: (waits.append(timeout),
                                                   wait(timeout))[1]
        out = batcher.submit([x])
        submit = median_seconds(lambda: batcher.submit([x]))
        stats = batcher.stats
    np.testing.assert_allclose(out.numpy(), x @ w, rtol=1e-5)
    # Idle dispatch: every request ran alone, the worker only ever
    # blocked untimed (for work, never for company) ...
    assert stats.batches == stats.requests == 102
    assert waits and set(waits) == {None}
    # ... so a submit costs the model plus two thread hand-offs.
    model = median_seconds(lambda: cf.call_flat([x[None, :]]))
    assert submit < model + 1e-3


def test_batch_timeout_knob_is_gone():
    from repro.serving import FleetServer, ModelServer

    cf, _ = _model()
    with pytest.raises(TypeError, match="batch_timeout"):
        MicroBatcher(cf, batch_timeout=0.002)
    with pytest.raises(TypeError, match="batch_timeout"):
        ModelServer().register("m", cf, batcher={"batch_timeout": 0.002})
    with pytest.raises(TypeError, match="batch_timeout"):
        FleetServer().register("m", "/nonexistent",
                               batcher={"batch_timeout": 0.002})


def test_batch_spans_carry_queue_wait_and_coalesced():
    from repro import observe

    gate = GatedExecutable()
    examples = [np.full((2,), v, np.float32) for v in (1.0, 2.0, 3.0)]
    before = observe.counters().get("serving.batch_queue_wait_us", 0)
    with observe.profile() as timeline:
        with MicroBatcher(gate, max_batch_size=4) as batcher:
            _submit_queued(batcher, gate, np.zeros(2, np.float32), examples)
    spans = [s.args for s in timeline.query(name="batch_execute")]
    assert [s["coalesced"] for s in spans] == [1, 3]
    # The queued batch waited for the gated one; its span says how long
    # (the oldest request's time in the queue), and /v1/metrics' counter
    # is the sum over batches.
    assert spans[1]["queue_wait_us"] > spans[0]["queue_wait_us"] >= 0
    waited = observe.counters()["serving.batch_queue_wait_us"] - before
    assert waited == spans[0]["queue_wait_us"] + spans[1]["queue_wait_us"]


def _rowsum_cf():
    @repro.function
    def rowsum(x):
        return ops.reduce_sum(x, axis=1)

    return rowsum.get_concrete_function(
        repro.TensorSpec([None, None], "float32"))


def test_ragged_examples_rejected_by_default():
    # Silent padding would make results depend on co-batched requests;
    # without an explicit pad_value the whole ragged batch errors out.
    gate = GatedExecutable(_rowsum_cf())
    with MicroBatcher(gate, max_batch_size=4) as batcher:
        examples = [np.ones(2, np.float32), np.ones(5, np.float32)]
        _, errors = _submit_queued(
            batcher, gate, np.ones(2, np.float32), examples)
    assert gate.calls == 1  # the ragged batch never reached the model
    for e in errors:
        assert isinstance(e, ValueError) and "pad_value" in str(e)


def test_ragged_examples_padded_on_opt_in():
    gate = GatedExecutable(_rowsum_cf())
    with MicroBatcher(gate, max_batch_size=4, pad_value=0.0) as batcher:
        examples = [np.ones(2, np.float32), np.ones(5, np.float32)]
        results, errors = _submit_queued(
            batcher, gate, np.ones(2, np.float32), examples)
    assert errors == [None, None]
    assert [len(b) for b in gate.batches] == [1, 2]
    # Zero padding keeps sums exact.
    assert float(results[0].numpy()) == pytest.approx(2.0)
    assert float(results[1].numpy()) == pytest.approx(5.0)


def test_mixed_rank_examples_rejected():
    cf, _ = _model()
    gate = GatedExecutable(cf)
    with MicroBatcher(gate, max_batch_size=4) as batcher:
        _, errors = _submit_queued(
            batcher, gate, np.ones(4, np.float32),
            [np.ones(4, np.float32), np.ones((1, 4), np.float32)])
    for e in errors:
        assert isinstance(e, ValueError) and "rank" in str(e)


def test_scalar_output_cannot_split():
    @repro.function
    def loss(x):
        return ops.reduce_sum(x)

    cf = loss.get_concrete_function(repro.TensorSpec([None, 4], "float32"))
    with MicroBatcher(cf, max_batch_size=4) as batcher:
        with pytest.raises(ValueError, match="batch axis"):
            batcher.submit([np.ones(4, np.float32)])


def test_wrong_arity_rejected_at_submit():
    cf, _ = _model()
    with MicroBatcher(cf) as batcher:
        with pytest.raises(ValueError, match="takes 1 argument"):
            batcher.submit([np.ones(4, np.float32), np.ones(4, np.float32)])


def test_tree_signature_rejected_at_construction():
    from repro.datasets.treebank import EMPTY, Tree

    def tree_id(tree):
        if tree.is_empty:
            return 1.0
        else:
            return tree.value

    leaf = Tree(value=2.0)
    leaf.left = EMPTY
    leaf.right = EMPTY
    cf = repro.function(tree_id, backend="lantern").get_concrete_function(leaf)
    with pytest.raises(ValueError, match="all-tensor"):
        MicroBatcher(cf)


def test_submit_after_close_raises():
    cf, _ = _model()
    batcher = MicroBatcher(cf)
    batcher.close()
    with pytest.raises(RuntimeError, match="closed"):
        batcher.submit([np.ones(4, np.float32)])


def test_stats_and_average():
    cf, _ = _model()
    with MicroBatcher(cf, max_batch_size=4) as batcher:
        _submit_all(batcher, [np.ones(4, np.float32)] * 8)
        stats = batcher.stats
        assert stats.requests == 8
        assert batcher.average_batch_size == pytest.approx(
            stats.requests / stats.batches)


# ---------------------------------------------------------------------------
# Backpressure: bounded queues reject instead of growing
# ---------------------------------------------------------------------------


def test_max_queue_rejects_when_full():
    from repro.serving import QueueFullError

    exe = GatedExecutable()
    batcher = MicroBatcher(exe, max_batch_size=1, max_queue=2)
    example = np.zeros((2,), np.float32)
    threads = []
    try:
        # First request occupies the worker (blocked inside call_flat).
        t0 = threading.Thread(target=lambda: batcher.submit([example]))
        t0.start()
        threads.append(t0)
        assert exe.entered.wait(10.0)
        # Two more fill the bounded queue...
        for _ in range(2):
            t = threading.Thread(target=lambda: batcher.submit([example]))
            t.start()
            threads.append(t)
        deadline = time.monotonic() + 10.0
        while len(batcher._pending) < 2:
            assert time.monotonic() < deadline, "queue never filled"
            time.sleep(0.001)
        # ... and the next submit is rejected, immediately and loudly.
        with pytest.raises(QueueFullError, match="full"):
            batcher.submit([example])
        assert batcher.stats.rejected == 1
    finally:
        exe.release.set()
        for t in threads:
            t.join()
        batcher.close()


def test_max_queue_validation():
    exe, _ = _model()
    with pytest.raises(ValueError, match="max_queue"):
        MicroBatcher(exe, max_queue=0)


def test_server_maps_queue_full_to_503():
    from repro.serving import ModelServer, ServingClient
    from repro.serving.client import ServingError

    exe = GatedExecutable()
    server = ModelServer()
    server.register("gated", exe,
                    batcher={"max_batch_size": 1, "max_queue": 1})
    rejected = []
    threads = []
    with server:
        client = ServingClient(server.url, timeout=30.0)

        def hit():
            try:
                client.predict("gated", [[0.0, 0.0]])
            except ServingError as e:
                rejected.append(e.status)

        try:
            t0 = threading.Thread(target=hit)
            t0.start()
            threads.append(t0)
            assert exe.entered.wait(10.0)
            t1 = threading.Thread(target=hit)
            t1.start()
            threads.append(t1)
            batcher = server._endpoints["gated"].active_version().batcher
            deadline = time.monotonic() + 10.0
            while len(batcher._pending) < 1:
                assert time.monotonic() < deadline, "queue never filled"
                time.sleep(0.001)
            hit()  # queue at bound -> 503 backpressure
            assert rejected and rejected[-1] == 503
        finally:
            exe.release.set()
            for t in threads:
                t.join()


# ---------------------------------------------------------------------------
# Priority lanes
# ---------------------------------------------------------------------------


def test_high_priority_lane_drains_first():
    gate = GatedExecutable()
    examples = [np.full((2,), v, np.float32) for v in (2.0, 3.0, 4.0)]
    with MicroBatcher(gate, max_batch_size=2) as batcher:
        _submit_queued(batcher, gate, np.full((2,), 1.0, np.float32),
                       examples, priorities=["normal", "normal", "high"])
        stats = batcher.stats
    # The high request overtook both earlier-queued normal ones, and
    # still shared its batch with the oldest of them.
    assert gate.batches == [[1.0], [4.0, 2.0], [3.0]]
    assert stats.high_priority == 1


def test_high_lane_headroom_under_load_shedding():
    from repro.serving import QueueFullError

    exe = GatedExecutable()
    batcher = MicroBatcher(exe, max_batch_size=1, max_queue=2)
    example = np.zeros((2,), np.float32)
    threads = []

    def bg(priority):
        t = threading.Thread(
            target=lambda: batcher.submit([example], priority=priority))
        t.start()
        threads.append(t)

    try:
        bg("normal")  # occupies the worker
        assert exe.entered.wait(10.0)
        bg("normal")
        bg("normal")
        deadline = time.monotonic() + 10.0
        while batcher.queue_depth() < 2:
            assert time.monotonic() < deadline, "queue never filled"
            time.sleep(0.001)
        # Normal lane sheds at max_queue=2 ...
        with pytest.raises(QueueFullError, match="normal lane"):
            batcher.submit([example])
        # ... but the high lane still has headroom (2 + max(1, 2//2) = 3).
        bg("high")
        deadline = time.monotonic() + 10.0
        while batcher.queue_depth() < 3:
            assert time.monotonic() < deadline, "high request never queued"
            time.sleep(0.001)
        with pytest.raises(QueueFullError, match="high lane"):
            batcher.submit([example], priority="high")
        assert batcher.stats.rejected == 2
        assert batcher.stats.high_priority == 1
    finally:
        exe.release.set()
        for t in threads:
            t.join()
        batcher.close()


def test_invalid_priority_rejected():
    cf, _ = _model()
    with MicroBatcher(cf) as batcher:
        with pytest.raises(ValueError, match="priority"):
            batcher.submit([np.ones(4, np.float32)], priority="urgent")


def test_priority_header_reaches_batcher():
    from repro.serving import ModelServer, ServingClient
    from repro.serving.client import ServingError

    cf, w = _model()
    server = ModelServer()
    server.register("m", cf)
    with server:
        c = ServingClient(server.url)
        x = np.ones((4,), np.float32)
        out = c.predict("m", [x], priority="high")
        np.testing.assert_allclose(
            np.asarray(out["outputs"][0]), x @ w, rtol=1e-5)
        stats = server._endpoints["m"].active_version().batcher.stats
        assert stats.high_priority == 1
        with pytest.raises(ServingError) as info:
            c.predict("m", [x], priority="urgent")
        assert info.value.status == 400
