"""Nested data-dependent ``if``s: ``cond`` inside ``cond``."""

import numpy as np

from repro.framework import ops


def make_inputs(rng):
    return (rng.normal(size=(32,)).astype(np.float32),)


def program(x):
    total = ops.reduce_sum(x)
    if total > 0:
        if total > 4:
            y = ops.multiply(x, 3.0)
        else:
            y = ops.multiply(x, 2.0)
    else:
        y = ops.abs(x)
    return y
