"""A four-layer MLP: a Python loop over the weight list unrolls into
matmul + fused bias/tanh steps."""

import numpy as np

from repro.framework import ops


def make_inputs(rng):
    x = rng.normal(size=(4, 32)).astype(np.float32)
    weights = [0.2 * rng.normal(size=(32, 32)).astype(np.float32)
               for _ in range(4)]
    biases = [0.1 * rng.normal(size=(32,)).astype(np.float32)
              for _ in range(4)]
    return (x, weights, biases)


def program(x, weights, biases):
    h = x
    for w, b in zip(weights, biases):
        h = ops.tanh(ops.add(ops.matmul(h, w), b))
    return h
