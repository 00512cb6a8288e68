"""Correctness oracles, independent of the code under test.

The compute and serving workloads are checked against the hand-written
NumPy forward passes below; corpus programs are checked against the same
source run define-by-run on eager tensors (no AutoGraph, no graph, no
plan).  None of these go through ``repro.function`` or ``repro.runtime``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["numpy_rnn", "numpy_mlp", "numpy_matmul", "eager_run",
           "flat_arrays", "allclose"]

#: float32 math reordered by BLAS blocking / fusion: relative and absolute
#: slack of a few hundred ulps on O(1) activations.
RTOL = 1e-4
ATOL = 1e-5


def numpy_rnn(w, b, x, lengths):
    """The masked tanh RNN of the paper's section 9, by hand.

    ``h' = tanh([x_t, h] @ w + b)``; past a sequence's length the state
    holds and the output is zero.  Returns ``(outputs[B,T,H], state[B,H])``.
    """
    batch, steps, _ = x.shape
    hidden = w.shape[1]
    h = np.zeros((batch, hidden), np.float32)
    outputs = np.zeros((batch, steps, hidden), np.float32)
    for t in range(steps):
        new = np.tanh(np.concatenate([x[:, t], h], axis=1) @ w + b)
        live = (t < lengths)[:, None]
        h = np.where(live, new, h)
        outputs[:, t] = np.where(live, new, np.float32(0))
    return outputs, h


def numpy_mlp(weights, w_out, x):
    """``tanh`` MLP forward: ``x`` through every hidden layer, then the
    linear read-out."""
    h = x
    for w in weights:
        h = np.tanh(h @ w)
    return h @ w_out


def numpy_matmul(x, w):
    return x @ w


def eager_run(program, args):
    """Run ``program`` define-by-run: eager tensors in, native Python
    control flow, flat NumPy arrays out."""
    from repro.framework import ops

    return flat_arrays(program(*[ops.constant(a) for a in args]))


def flat_arrays(result):
    """A (possibly nested) result as a flat list of NumPy arrays."""
    from repro.framework import nest

    return [np.asarray(leaf.numpy() if hasattr(leaf, "numpy") else leaf)
            for leaf in nest.flatten(result)]


def allclose(got, expected, atol=ATOL):
    """Whether two flat array lists agree within float32 tolerance."""
    if len(got) != len(expected):
        return False
    return all(
        g.shape == e.shape and np.allclose(g, e, rtol=RTOL, atol=atol)
        for g, e in zip(got, expected))
