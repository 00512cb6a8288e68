"""Thirty elementwise ops with two inputs: a long fused tree."""

import numpy as np

from repro.framework import ops


def make_inputs(rng):
    return (rng.uniform(-1.0, 1.0, size=(8, 32)).astype(np.float32),
            rng.uniform(0.5, 1.5, size=(8, 32)).astype(np.float32))


def program(x, scale):
    h = x
    for _ in range(10):
        h = ops.multiply(h, scale)
        h = ops.add(h, x)
        h = ops.tanh(h)
    return h
