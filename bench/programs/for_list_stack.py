"""``for`` over a tensor-valued range, appending to a list that stages as
a TensorArray and is stacked at the end."""

import numpy as np

import repro.autograph as ag
from repro import framework as fw
from repro.framework import ops


def make_inputs(rng):
    return (rng.normal(size=(8,)).astype(np.float32), np.int32(5))


def program(x, n):
    outputs = []
    ag.set_element_type(outputs, fw.float32)
    acc = x
    for _ in range(n):
        acc = ops.tanh(acc + x)
        outputs.append(acc)
    return ag.stack(outputs)
