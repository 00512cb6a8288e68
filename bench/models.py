"""The imperative model code the workloads stage.

Plain Python against the public ops, exactly what a user would hand to
``@repro.function``.  The workloads load this file under a fresh module
name (:func:`bench.workloads.base.load_fresh`) whenever they need a cold
conversion: a new code object misses AutoGraph's conversion cache.
"""

import repro.autograph as ag
from repro import framework as fw
from repro.framework import ops


def tiny_matmul(x, w):
    """1x1 matmul: the math is nanoseconds, the call is all dispatch."""
    return ops.matmul(x, w)


def make_rnn_unrolled(cell, batch, seq_len):
    """The section-9 dynamic RNN with a *Python-int* bound: AutoGraph
    leaves the loop to Python and the trace unrolls into one flat plan."""

    def rnn_unrolled(input_data, sequence_len):
        input_data = ops.transpose(input_data, (1, 0, 2))
        outputs = []
        state = cell.zero_state(batch)
        for i in range(seq_len):
            prev_state = state
            output, state = cell(input_data[i], state)
            state = ops.where(i < sequence_len, state, prev_state)
            output = ops.where(i < sequence_len, output,
                               ops.zeros_like(output))
            outputs.append(output)
        outputs = ops.stack(outputs)
        return ops.transpose(outputs, (1, 0, 2)), state

    return rnn_unrolled


def make_rnn_staged(cell, batch):
    """The same model with a *tensor* bound: the loop stages as one
    ``While`` op whose body runs in the sub-graph interpreter."""

    def rnn_staged(input_data, sequence_len):
        input_data = ops.transpose(input_data, (1, 0, 2))
        outputs = []
        ag.set_element_type(outputs, fw.float32)
        state = cell.zero_state(batch)
        max_len = ops.reduce_max(sequence_len)
        for i in range(max_len):
            prev_state = state
            output, state = cell(input_data[i], state)
            state = ops.where(i < sequence_len, state, prev_state)
            output = ops.where(i < sequence_len, output,
                               ops.zeros_like(output))
            outputs.append(output)
        outputs = ag.stack(outputs)
        return ops.transpose(outputs, (1, 0, 2)), state

    return rnn_staged


def make_mlp(weights, w_out):
    """A ``tanh`` MLP closing over its weights (served batch-polymorphic)."""

    def mlp(x):
        h = x
        for w in weights:
            h = ops.tanh(ops.matmul(h, w))
        return ops.matmul(h, w_out)

    return mlp


def make_projection(w):
    """One matmul: a big input, a small output, trivial FLOPs."""

    def projection(x):
        return ops.matmul(x, w)

    return projection
