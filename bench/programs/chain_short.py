"""Three-op elementwise chain: the smallest thing worth fusing."""

import numpy as np

from repro.framework import ops


def make_inputs(rng):
    return (rng.normal(size=(16,)).astype(np.float32),)


def program(x):
    h = ops.square(x)
    h = ops.add(h, 1.0)
    return ops.sqrt(h)
