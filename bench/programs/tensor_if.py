"""A data-dependent ``if`` with both branches: stages one ``cond``."""

import numpy as np

from repro.framework import ops


def make_inputs(rng):
    return (rng.normal(size=(32,)).astype(np.float32),)


def program(x):
    if ops.reduce_sum(x) > 0:
        y = ops.multiply(x, 2.0)
    else:
        y = ops.negative(x)
    return ops.add(y, 1.0)
