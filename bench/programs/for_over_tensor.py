"""``for`` over the rows of a tensor."""

import numpy as np

from repro.framework import ops


def make_inputs(rng):
    return (rng.normal(size=(6, 12)).astype(np.float32),)


def program(rows):
    total = ops.zeros_like(rows[0])
    for row in rows:
        total = total + ops.square(row)
    return total
