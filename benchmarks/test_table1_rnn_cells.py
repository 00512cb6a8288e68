"""Table 1: RNN cell throughput (1K examples/sec).

Four implementations of a dynamic RNN over padded random sequences, per
the paper's protocol (§9, "RNN cells"):

- **Eager**: define-by-run execution of the library RNN;
- **Official**: the library's graph ``dynamic_rnn`` (while_loop +
  TensorArray);
- **Handwritten**: the Appendix A hand-built graph version, written
  inline here;
- **AutoGraph**: the paper's imperative §9 code, converted.

Expected shape: the three graph implementations are within a few percent
of one another and all well above Eager; AutoGraph ≈ Handwritten ≈
Official.

Paper parameters: hidden 256, seq {64,128}, batch {32,64,128}, 5 warmup +
100 timed runs.  Defaults here scale the hidden size and run count so the
compute/dispatch ratio of the NumPy substrate matches the paper's regime
(see DESIGN.md §6); REPRO_BENCH_FAST shrinks further.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.autograph as ag
from repro import framework as fw
from repro import nn
from benchmarks_util import scaled
from repro.datasets import random_sequences
from repro.framework import TensorArray, ops

HIDDEN = scaled(96, 16)
SEQ_SIZES = scaled((64, 128), (8, 16))
BATCH_SIZES = scaled((32, 64, 128), (4, 8))
WARMUP = scaled(5, 1)
RUNS = scaled(15, 3)

TABLE = "Table 1: RNN Cell Performance (1K examples/sec)"


def _ag_dynamic_rnn(rnn_cell, input_data, initial_state, sequence_len):
    """The paper's §9 imperative dynamic_rnn (with tf.dynamic_rnn-style
    output masking)."""
    input_data = ops.transpose(input_data, (1, 0, 2))
    outputs = []
    ag.set_element_type(outputs, fw.float32)
    state = initial_state
    if sequence_len is None:
        max_len = ops.shape(input_data)[0]
    else:
        max_len = ops.reduce_max(sequence_len)
    for i in range(max_len):
        prev_state = state
        output, state = rnn_cell(input_data[i], state)
        if sequence_len is not None:
            state = ops.where(i < sequence_len, state, prev_state)
            output = ops.where(i < sequence_len, output, ops.zeros_like(output))
        outputs.append(output)
    outputs = ag.stack(outputs)
    outputs = ops.transpose(outputs, (1, 0, 2))
    return outputs, state


def _handwritten_dynamic_rnn(cell, input_data, initial_state, sequence_len):
    """Appendix A: the hand-written graph implementation."""
    inputs = ops.transpose(input_data, (1, 0, 2))
    outputs_ta = TensorArray(fw.float32, size=0, dynamic_size=True)
    max_len = ops.reduce_max(sequence_len)

    def while_cond(i, state, outputs):
        return ops.less(i, max_len)

    def while_body(i, state, outputs):
        prev_state = state
        output, state = cell(ops.get_item(inputs, i), state)
        mask = ops.less(i, sequence_len)
        state = ops.where(mask, state, prev_state)
        output = ops.where(mask, output, ops.zeros_like(output))
        outputs = outputs.write(i, output)
        return ops.add(i, ops.constant(1, dtype="int32")), state, outputs

    _, state, outputs_ta = ops.while_loop(
        while_cond, while_body,
        (ops.constant(0, dtype="int32"), initial_state, outputs_ta),
    )
    outputs = ops.transpose(outputs_ta.stack(), (1, 0, 2))
    return outputs, state


def _build_graph(builder, cell, batch, seq, dim):
    graph = fw.Graph()
    with graph.as_default():
        x = ops.placeholder(fw.float32, [batch, seq, dim])
        lengths = ops.placeholder(fw.int32, [batch])
        out, state = builder(cell, x, cell.zero_state(batch), lengths)
    return graph, x, lengths, out, state


def _configs():
    out = []
    for seq in SEQ_SIZES:
        for batch in BATCH_SIZES:
            out.append((seq, batch))
    return out


IMPLS = ("Eager", "Official", "Handwritten", "AutoGraph")


@pytest.mark.parametrize("seq,batch", _configs())
@pytest.mark.parametrize("impl", IMPLS)
def test_table1_rnn(benchmark, results, impl, seq, batch):
    dim = HIDDEN
    cell = nn.BasicRNNCell(HIDDEN, input_dim=dim, rng=np.random.default_rng(0))
    data, lengths = random_sequences(batch, seq, dim, seed=1)

    if impl == "Eager":
        def run():
            return nn.dynamic_rnn(
                cell, ops.constant(data), cell.zero_state(batch),
                sequence_length=ops.constant(lengths),
            )
    else:
        if impl == "Official":
            builder = lambda c, x, s, l: nn.dynamic_rnn(c, x, s, sequence_length=l)
        elif impl == "Handwritten":
            builder = _handwritten_dynamic_rnn
        else:
            builder = ag.to_graph(_ag_dynamic_rnn)
        graph, x, l, out, state = _build_graph(builder, cell, batch, seq, dim)
        sess = fw.Session(graph)
        feed = {x: data, l: lengths}

        def run():
            return sess.run((out, state), feed)

    benchmark.pedantic(run, rounds=RUNS, warmup_rounds=WARMUP)
    stats = benchmark.stats.stats
    mean_t, std_t = stats.mean, stats.stddev
    rate = (batch / 1000.0) / mean_t  # 1K examples/sec, as in the paper
    rate_std = rate * (std_t / mean_t) if mean_t else 0.0
    results.record(TABLE, impl, f"seq={seq} batch={batch}", rate, rate_std,
                   "K ex/s")


#: Plan steps the AutoGraph program runs that the handwritten graph does
#: not, per sub-graph, each with its reason.
PARITY_ALLOWLIST = {
    # ``outputs.append(output)`` writes at the list's length; Appendix
    # A's loop writes at ``i``, which it knows equals it.
    "body": {"TensorArraySize": 1},
}


def _step_types(plan):
    """Op type per step of ``plan`` (a fused group as its members')."""
    type_of = {op.name: op.type for op in plan.graph.ops}
    fused = {g[3]: g[2] for g in plan.fused_groups}
    types = []
    for step in plan.steps:
        types.extend(fused[step[0]] if step[0] in fused
                     else [type_of[step[4]]])
    return types


def _plans_by_sub_graph(builder):
    """``{"outer" | "cond" | "body": Counter of step types}`` for the
    Table 1 program ``builder`` stages, after one run."""
    import collections

    from repro.framework.graph.func_graph import bound_func_graph
    from repro.runtime import compile_plan

    cell = nn.BasicRNNCell(8, input_dim=8, rng=np.random.default_rng(0))
    graph, x, lengths, out, state = _build_graph(builder, cell, 2, 5, 8)
    data, lens = random_sequences(2, 5, 8, seed=1)
    fw.Session(graph).run((out, state), {x: data, lengths: lens})
    outer = compile_plan(graph, [out, state], [x, lengths])
    (loop,) = [op for op in graph.ops if op.type == "While"
               and op.name in {s[4] for s in outer.steps}]
    plans = {"outer": outer}
    for key in ("cond", "body"):
        plans[key] = bound_func_graph(loop.get_attr(f"{key}_graph"))[0].plan
    return {k: collections.Counter(_step_types(p)) for k, p in plans.items()}


def test_autograph_stages_the_handwritten_plan():
    """§9's imperative ``dynamic_rnn`` and Appendix A's hand-built graph
    run the same steps in every sub-graph, but for the allowlist's."""
    autograph = _plans_by_sub_graph(ag.to_graph(_ag_dynamic_rnn))
    handwritten = _plans_by_sub_graph(_handwritten_dynamic_rnn)
    for key, steps in autograph.items():
        extra = dict(steps - handwritten[key])
        assert extra == PARITY_ALLOWLIST.get(key, {}), key
        assert not handwritten[key] - steps, key
