"""Appendix D.1: Beam search, Eager vs AutoGraph.

Paper findings to reproduce in shape:
- AutoGraph 2-3.2x faster than eager;
- longer sequences → larger improvement (more loop iterations staged);
- larger vocabularies → smaller improvement (kernel time dominates).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.autograph as ag
from repro import framework as fw
from repro.apps.beam_search import beam_search, make_model
from benchmarks_util import scaled
from repro.framework import ops

BEAM = 4
VOCABS = scaled((64, 512), (16, 64))
MAX_LENS = scaled((32, 96), (8, 16))
WARMUP = scaled(3, 1)
RUNS = scaled(12, 3)

TABLE = "Appendix D.1: Beam Search (decodes/sec)"


def _configs():
    return [(v, m) for v in VOCABS for m in MAX_LENS]


@pytest.mark.parametrize("vocab,max_len", _configs())
@pytest.mark.parametrize("impl", ["Eager", "AutoGraph"])
def test_beam_search(benchmark, results, impl, vocab, max_len):
    hidden = scaled(48, 16)
    model = make_model(vocab, hidden, seed=2)
    tensors = (model.embeddings, model.w_xh, model.w_hh, model.w_out)

    if impl == "Eager":
        eager_args = tuple(ops.constant(t) for t in tensors)

        def run():
            return beam_search(*eager_args, BEAM, max_len, vocab)
    else:
        converted = ag.to_graph(beam_search)
        graph = fw.Graph()
        with graph.as_default():
            staged_args = tuple(ops.constant(t) for t in tensors)
            outs = converted(*staged_args, BEAM, max_len, vocab)
        sess = fw.Session(graph)

        def run():
            return sess.run(outs)

    benchmark.pedantic(run, rounds=RUNS, warmup_rounds=WARMUP)
    stats = benchmark.stats.stats
    rate = 1.0 / stats.mean
    results.record(TABLE, impl, f"vocab={vocab} len={max_len}", rate,
                   rate * (stats.stddev / stats.mean) if stats.mean else 0.0,
                   "dec/s")
