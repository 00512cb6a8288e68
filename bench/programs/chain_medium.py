"""Ten-op elementwise chain (the fusion gate's shape)."""

import numpy as np

from repro.framework import ops


def make_inputs(rng):
    return (rng.uniform(-1.0, 1.0, size=(64,)).astype(np.float32),)


def program(x):
    h = ops.square(x)
    h = ops.add(h, 1.0)
    h = ops.sqrt(h)
    h = ops.multiply(h, 0.5)
    h = ops.tanh(h)
    h = ops.add(h, 0.25)
    h = ops.multiply(h, 1.5)
    h = ops.negative(h)
    h = ops.exp(h)
    return ops.multiply(h, 0.1)
