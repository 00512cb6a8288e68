"""Table 3: TreeLSTM targeting Lantern (SGD steps/sec).

Sentiment TreeLSTM on the synthetic treebank, batch size 1 (the paper
also uses 1: "due to difficulty in batching recursive models"):

- **Loop and Model in PyTorch** → our define-by-run comparator: eager
  tensors + GradientTape, rebuilding the tape on every tree;
- **Loop and Model in AutoGraph/Lantern** → the recursive model staged
  once through AutoGraph into the S-expression IR and compiled with CPS
  gradients; training steps run the compiled artifact.

Expected shape: the staged/compiled model trains ~2-3x faster (paper:
2.38x, 36.75 vs 15.41 steps/sec).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import lantern
from benchmarks_util import scaled
from repro.datasets import load_treebank_synthetic
from repro.framework import GradientTape, ops
from repro.nn import TreeLSTMClassifier

HIDDEN = scaled(64, 16)
EMBED = HIDDEN
NUM_TREES = scaled(20, 5)
WARMUP = scaled(2, 1)
RUNS = scaled(10, 2)
LEARNING_RATE = 0.05

TABLE = "Table 3: TreeLSTM Targeting Lantern (SGD steps/sec)"

IMPLS = ("Loop and Model define-by-run (PyTorch role)",
         "Loop and Model in AutoGraph/Lantern",
         "Model in repro.function(backend=lantern)")


def _trees():
    return load_treebank_synthetic(
        num_trees=NUM_TREES, embed_dim=EMBED, seed=7
    )


def _run_define_by_run(trees):
    model = TreeLSTMClassifier(HIDDEN, num_classes=5,
                               rng=np.random.default_rng(0))
    variables = model.variables

    def run():
        for tree in trees:
            with GradientTape() as tape:
                for v in variables:
                    tape.watch(v)
                loss = model.loss(tree)
            grads = tape.gradient(loss, variables)
            for v, g in zip(variables, grads):
                if g is not None:
                    v.assign_sub(ops.multiply(g, LEARNING_RATE))

    return run


def _run_lantern(trees):
    model = lantern.LanternTreeLSTM(HIDDEN, num_classes=5,
                                    rng=np.random.default_rng(0))
    model.compile()  # one-time staging + compile cost, outside the loop

    def run():
        for tree in trees:
            model.train_step(tree, learning_rate=LEARNING_RATE)

    return run


def _make_jit_treelstm(rng):
    """The TreeLSTM written as plain recursive closures over Params —
    staged by ``@repro.function(backend="lantern")`` with the recursive
    ``embed`` helper discovered and promoted automatically."""
    from repro.lantern import ops as lt
    from repro.lantern.ir import Param
    from repro.nn.layers import glorot_init

    d2 = 2 * HIDDEN
    p = {
        name: Param(name, value)
        for name, value in {
            "w_i": glorot_init(rng, (d2, HIDDEN)),
            "w_fl": glorot_init(rng, (d2, HIDDEN)),
            "w_fr": glorot_init(rng, (d2, HIDDEN)),
            "w_o": glorot_init(rng, (d2, HIDDEN)),
            "w_g": glorot_init(rng, (d2, HIDDEN)),
            "b_i": np.zeros((1, HIDDEN), np.float32),
            "b_f": np.ones((1, HIDDEN), np.float32),
            "b_o": np.zeros((1, HIDDEN), np.float32),
            "b_g": np.zeros((1, HIDDEN), np.float32),
            "w_out": glorot_init(rng, (HIDDEN, 5)),
            "b_out": np.zeros((1, 5), np.float32),
        }.items()
    }

    def embed(tree):
        if tree.is_leaf:
            c = lt.tanh(tree.embedding)
            h = lt.tanh(c)
        else:
            c_l, h_l = embed(tree.left)
            c_r, h_r = embed(tree.right)
            x = lt.concat1(h_l, h_r)
            i = lt.sigmoid(lt.matmul(x, p["w_i"]) + p["b_i"])
            fl = lt.sigmoid(lt.matmul(x, p["w_fl"]) + p["b_f"])
            fr = lt.sigmoid(lt.matmul(x, p["w_fr"]) + p["b_f"])
            o = lt.sigmoid(lt.matmul(x, p["w_o"]) + p["b_o"])
            g = lt.tanh(lt.matmul(x, p["w_g"]) + p["b_g"])
            c = i * g + fl * c_l + fr * c_r
            h = o * lt.tanh(c)
        return c, h

    def tree_loss(tree, label):
        c, h = embed(tree)
        logits = lt.matmul(h, p["w_out"]) + p["b_out"]
        return lt.xent(logits, label)

    return tree_loss


def _run_jit_lantern(trees):
    import repro

    tree_loss = _make_jit_treelstm(np.random.default_rng(0))
    step = repro.function(tree_loss, backend="lantern")
    # One trace serves every tree (trees key by kind, labels are runtime
    # args); training runs the compiled CPS artifact.
    cf = step.get_concrete_function(trees[0], trees[0].label)
    assert step.trace_count == 1
    loss0 = float(np.asarray(cf.call_with_grad(trees[0], trees[0].label).numpy()))
    assert np.isfinite(loss0)

    def run():
        for tree in trees:
            cf.call_with_grad(tree, tree.label)
            for param in cf.params.values():
                param.value[...] -= LEARNING_RATE * param.grad

    return run


@pytest.mark.parametrize("impl", IMPLS)
def test_table3_treelstm(benchmark, results, impl):
    trees = _trees()
    if impl.startswith("Loop and Model define-by-run"):
        run = _run_define_by_run(trees)
    elif impl.startswith("Model in repro.function"):
        run = _run_jit_lantern(trees)
    else:
        run = _run_lantern(trees)

    benchmark.pedantic(run, rounds=RUNS, warmup_rounds=WARMUP)
    stats = benchmark.stats.stats
    steps_per_sec = len(trees) / stats.mean
    std = steps_per_sec * (stats.stddev / stats.mean) if stats.mean else 0.0
    results.record(TABLE, impl, f"hidden={HIDDEN} trees={len(trees)}",
                   steps_per_sec, std, "steps/s")
