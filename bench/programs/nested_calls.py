"""Helper functions with control flow of their own: every call site
routes through ``converted_call`` and converts the callee too."""

import numpy as np

from repro.framework import ops


def make_inputs(rng):
    return (rng.normal(size=(24,)).astype(np.float32),)


def clip_positive(v):
    if ops.reduce_max(v) > 1:
        v = v / ops.reduce_max(v)
    return v


def soften(v, turns):
    i = 0
    while i < turns:
        v = ops.tanh(v)
        i = i + 1
    return v


def program(x):
    y = clip_positive(ops.abs(x))
    return soften(y, 3) + clip_positive(x * 0.1)
