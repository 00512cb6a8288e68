"""A gated executable: how the serving tests make requests share a
batch without sleeping (park the batcher's worker inside the model,
queue the requests, open the gate)."""

import threading
import time

import numpy as np

import repro
from repro.framework.eager.tensor import EagerTensor


class GatedExecutable(repro.Executable):
    """An executable whose calls block until released.

    Alone it echoes its input; around ``inner`` it runs that executable
    once the gate is open.  ``batches`` records what each call received
    (the first column of the stacked input), in execution order.
    """

    name = "gated"
    backend = "stub"

    def __init__(self, inner=None):
        self.inner = inner
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls = 0
        self.batches = []

    @property
    def structured_input_signature(self):
        if self.inner is not None:
            return self.inner.structured_input_signature
        return [repro.TensorSpec([2], "float32")]

    @property
    def variables(self):
        return []

    def export_spec(self, freeze=True):
        raise NotImplementedError

    def call_flat(self, flat_args):
        self.calls += 1
        stacked = np.asarray(flat_args[0])
        self.batches.append(stacked.reshape(len(stacked), -1)[:, 0].tolist())
        self.entered.set()
        assert self.release.wait(10.0), "test never released the gate"
        if self.inner is not None:
            return self.inner.call_flat(flat_args)
        return EagerTensor(stacked)


def wait_for(condition, what):
    deadline = time.monotonic() + 10.0
    while not condition():
        assert time.monotonic() < deadline, what
        time.sleep(0.001)
