"""Logical operators and early returns on tensor conditions."""

import numpy as np

from repro.framework import ops


def make_inputs(rng):
    return (rng.normal(size=(16,)).astype(np.float32),)


def program(x):
    mean = ops.reduce_mean(x)
    if mean > -0.5 and mean < 0.5:
        return ops.multiply(x, 2.0)
    if mean <= -0.5 or mean >= 2:
        return ops.negative(x)
    return x
