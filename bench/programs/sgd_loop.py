"""Table 2's training loop: a staged ``while`` whose body takes
``fw.gradients`` of a softmax cross-entropy loss (20 steps)."""

import numpy as np

from repro import framework as fw
from repro.framework import ops

STEPS = 20
LEARNING_RATE = 0.3


def make_inputs(rng):
    x = rng.normal(size=(16, 20)).astype(np.float32)
    labels = rng.integers(0, 4, size=16)
    y = np.eye(4, dtype=np.float32)[labels]
    w0 = np.zeros((20, 4), np.float32)
    b0 = np.zeros((4,), np.float32)
    return (x, y, w0, b0, np.int32(STEPS))


def program(x, y, w0, b0, num_steps):
    w = w0
    b = b0
    i = 0
    while i < num_steps:
        logits = ops.add(ops.matmul(x, w), b)
        loss = ops.reduce_mean(
            ops.softmax_cross_entropy_with_logits(y, logits))
        dw, db = fw.gradients(loss, [w, b])
        w = ops.subtract(w, ops.multiply(dw, LEARNING_RATE))
        b = ops.subtract(b, ops.multiply(db, LEARNING_RATE))
        i = i + 1
    return w, b


def reference(x, y, w0, b0, num_steps):
    """The same SGD by hand (``fw.gradients`` is graph-only API, so the
    program cannot run define-by-run)."""
    w, b = w0.copy(), b0.copy()
    for _ in range(int(num_steps)):
        logits = x @ w + b
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        dlogits = (probs - y) / np.float32(x.shape[0])
        w = w - LEARNING_RATE * (x.T @ dlogits)
        b = b - LEARNING_RATE * dlogits.sum(axis=0)
    return [w.astype(np.float32), b.astype(np.float32)]
