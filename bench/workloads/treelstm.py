"""``treelstm_lantern``: Table 3 on the Lantern backend.

One operation is one SGD step, ``LanternTreeLSTM.train_step`` on the next
of a fixed set of trees (the paper's unit: SGD steps per second).  It
never touches ``repro.runtime``: for every graph-engine change this is
the "no change predicted" workload, and for Lantern marshalling work it
is the claimed one.
"""

from __future__ import annotations

import collections
import itertools
import math
import statistics
import time

import numpy as np

import repro
from repro import lantern
from repro.datasets.treebank import EMPTY, Tree, load_treebank_synthetic

from ..measure import Caller, p50
from .base import Workload, require

__all__ = ["TreeLstmLantern"]

HIDDEN = 64
TREES = 20
#: Every tree has this many leaves (hence 2n-1 nodes): the work per step
#: does not depend on the seed, only the shapes do.
LEAVES = 11
LEARNING_RATE = 0.05
TREE_PROD_DEPTH = 8


def _full_tree(depth, rng):
    """The section-8 ``tree_prod`` input: values near 1 so a deep product
    stays in range."""
    value = float(rng.uniform(0.995, 1.005))
    if depth == 0:
        node = Tree(value=value)
        node.left = node.right = EMPTY
        return node
    return Tree(left=_full_tree(depth - 1, rng),
                right=_full_tree(depth - 1, rng), value=value)


class TreeLstmLantern(Workload):
    name = "treelstm_lantern"
    #: Trees differ in shape, so every window holds whole epochs.
    cycle = TREES

    def setup(self):
        self.trees = load_treebank_synthetic(
            num_trees=TREES, embed_dim=HIDDEN, min_leaves=LEAVES,
            max_leaves=LEAVES, seed=self.seed)
        self.model = lantern.LanternTreeLSTM(HIDDEN, num_classes=5,
                                             rng=self.rng)
        # The cold compile (AutoGraph conversion, staging, code generation)
        # is part of set-up; later compiles in this process would find the
        # conversion cached.
        started = time.perf_counter()
        self.model.compile()
        self.compile_s = time.perf_counter() - started
        # On the initial parameters the compiled loss must equal the
        # unstaged evaluation of the same model, tree by tree.
        initial = [self.model.eager_reference_loss(t) for t in self.trees]
        compiled = [self.model.loss(t) for t in self.trees]
        require(np.allclose(compiled, initial, rtol=1e-5, atol=1e-6),
                "compiled TreeLSTM loss differs from the eager reference")
        self.initial_loss = statistics.mean(initial)
        self._turn = itertools.cycle(self.trees)
        # The losses of the latest epoch's worth of steps.
        self._recent = collections.deque(maxlen=TREES)
        # The first epoch still sees every tree at (nearly) the initial
        # parameters; from the second on the mean must have come down.
        for _ in range(2 * TREES - 1):
            self.step(self.model.train_step)
        require(self.check(self.step(self.model.train_step)),
                "training does not reduce the epoch-mean loss")

    def step(self, train_step):
        """One SGD step on the next tree; returns the mean loss over the
        latest ``TREES`` steps."""
        self._recent.append(train_step(next(self._turn), LEARNING_RATE))
        return statistics.mean(self._recent)

    def check(self, epoch_mean):
        return math.isfinite(epoch_mean) and epoch_mean < self.initial_loss

    def callers(self):
        train_step = self.model.train_step
        return [Caller(lambda: self.step(train_step), self.check)]

    def traced_callers(self, spans):
        train_step = self.model.train_step

        def traced_train_step(tree, learning_rate):
            return spans.call("lantern.train_step", train_step, tree,
                              learning_rate)

        return [Caller(
            lambda: spans.operation(lambda: self.step(traced_train_step)),
            self.check)]

    def layers(self, spans, untraced, probes):
        model, trees = self.model, self.trees
        for _ in range(probes.slow):
            for tree in trees:
                spans.call("lantern.loss", model.loss, tree)

        # Section 8's tree_prod: the compiled program called directly
        # against the same program behind the function layer; the gap is
        # Lantern's private argument marshalling.
        tree = _full_tree(TREE_PROD_DEPTH, self.rng)
        compiled, _, _ = lantern.stage_tree_prod(with_grad=False)
        through = repro.function(lantern.tree_prod, backend="lantern")
        base = np.float64(1.0)

        def direct():
            return compiled.run("tree_prod", 1.0, tree)

        require(np.isclose(float(through(base, tree).numpy()),
                           float(direct()), rtol=1e-9),
                "tree_prod through repro.function differs from direct")
        return {
            "lantern.compile_ms": self.compile_s * 1e3,
            "lantern.loss_us": spans.p50("lantern.loss") * 1e6,
            "lantern.ir_chars": len(model.program.to_string()),
            "lantern.direct_call_us": p50(direct, probes.fast) * 1e6,
            "lantern.function_call_us": p50(
                lambda: through(base, tree), probes.fast) * 1e6,
            "function.traces": through.trace_count,
        }
