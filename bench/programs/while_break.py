"""``while`` with a data-dependent ``break``."""

import numpy as np

from repro.framework import ops


def make_inputs(rng):
    return (rng.uniform(0.5, 1.0, size=(16,)).astype(np.float32),
            np.int32(6))


def program(x, limit):
    i = 0
    total = ops.zeros_like(x)
    while i < 100:
        if i >= limit:
            break
        total = total + x
        i = i + 1
    return total
