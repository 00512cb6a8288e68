"""``while`` with ``continue``: odd turns only."""

import numpy as np

from repro.framework import ops


def make_inputs(rng):
    return (rng.normal(size=(16,)).astype(np.float32), np.int32(9))


def program(x, n):
    i = 0
    total = ops.zeros_like(x)
    while i < n:
        i = i + 1
        if i % 2 == 0:
            continue
        total = total + x * 0.5
    return total
