"""Appendix D.4: seq2seq, Eager vs AutoGraph.

Paper findings to reproduce in shape:
- AutoGraph 1.18-3.05x faster than eager;
- improvement grows with vocabulary... (note: the paper says larger
  vocabularies favour AutoGraph for seq2seq, while D.1 found the
  opposite for beam search — we simply report both sizes);
- teacher forcing roughly doubles the improvement (less kernel work per
  step, so Python overhead is a larger fraction).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.autograph as ag
from repro import framework as fw
from repro.apps.seq2seq import Seq2SeqModel, seq2seq_loss
from benchmarks_util import scaled
from repro.datasets import random_token_batches
from repro.framework import ops

BATCH = scaled(16, 4)
SEQ_LEN = scaled(48, 8)
HIDDEN = scaled(48, 16)
VOCABS = scaled((64, 512), (16, 64))
WARMUP = scaled(3, 1)
RUNS = scaled(12, 3)

TABLE = "Appendix D.4: seq2seq (batches/sec)"


def _configs():
    return [(v, tf) for v in VOCABS for tf in (True, False)]


@pytest.mark.parametrize("vocab,teacher_forcing", _configs())
@pytest.mark.parametrize("impl", ["Eager", "AutoGraph"])
def test_seq2seq(benchmark, results, impl, vocab, teacher_forcing):
    model = Seq2SeqModel(vocab, HIDDEN, seed=4)
    src = random_token_batches(BATCH, SEQ_LEN, vocab, seed=5)
    dst = random_token_batches(BATCH, SEQ_LEN, vocab, seed=6)
    weights = (model.embed_enc, model.embed_dec, model.enc_w, model.dec_w,
               model.out_w)

    if impl == "Eager":
        eager_args = tuple(ops.constant(w) for w in weights) + (
            ops.constant(src), ops.constant(dst))

        def run():
            return seq2seq_loss(*eager_args, teacher_forcing=teacher_forcing)
    else:
        converted = ag.to_graph(seq2seq_loss)
        graph = fw.Graph()
        with graph.as_default():
            staged_args = tuple(ops.constant(w) for w in weights) + (
                ops.constant(src), ops.constant(dst))
            loss_t = converted(*staged_args, teacher_forcing=teacher_forcing)
        sess = fw.Session(graph)

        def run():
            return sess.run(loss_t)

    benchmark.pedantic(run, rounds=RUNS, warmup_rounds=WARMUP)
    stats = benchmark.stats.stats
    rate = 1.0 / stats.mean
    mode = "teacher" if teacher_forcing else "argmax"
    results.record(TABLE, impl, f"vocab={vocab} {mode}", rate,
                   rate * (stats.stddev / stats.mean) if stats.mean else 0.0,
                   "batches/s")


def test_seq2seq_modes_agree(results):
    """Eager and staged evaluation produce the same loss (both modes)."""
    vocab = 32
    model = Seq2SeqModel(vocab, 16, seed=4)
    src = random_token_batches(4, 6, vocab, seed=5)
    dst = random_token_batches(4, 6, vocab, seed=6)
    weights = (model.embed_enc, model.embed_dec, model.enc_w, model.dec_w,
               model.out_w)
    for teacher_forcing in (True, False):
        eager_loss = seq2seq_loss(
            *[ops.constant(w) for w in weights],
            ops.constant(src), ops.constant(dst),
            teacher_forcing=teacher_forcing,
        )
        converted = ag.to_graph(seq2seq_loss)
        graph = fw.Graph()
        with graph.as_default():
            loss_t = converted(
                *[ops.constant(w) for w in weights],
                ops.constant(src), ops.constant(dst),
                teacher_forcing=teacher_forcing,
            )
        staged_loss = fw.Session(graph).run(loss_t)
        assert np.isclose(float(eager_loss), float(staged_loss), atol=1e-5)