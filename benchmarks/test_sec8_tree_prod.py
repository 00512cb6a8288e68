"""§8 end-to-end: Python → S-Expr → compiled code for ``tree_prod``.

Not a paper table, but the §8 listing is the backbone of the Lantern
claims; this bench verifies the staged pipeline end-to-end (value and
CPS gradient vs the plain Python recursion) and measures the staged
artifact against interpreted Python recursion.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import lantern
from benchmarks_util import scaled
from repro.datasets.treebank import EMPTY, Tree

DEPTH = scaled(8, 5)
WARMUP = scaled(3, 1)
RUNS = scaled(10, 3)

TABLE = "Section 8: tree_prod (evals/sec, value+gradient)"


def _build_tree(depth, rng):
    # Values hug 1.0 so deep products stay in floating range.
    if depth == 0:
        node = Tree(value=float(rng.uniform(0.995, 1.005)))
        node.left = EMPTY
        node.right = EMPTY
        return node
    return Tree(
        left=_build_tree(depth - 1, rng),
        right=_build_tree(depth - 1, rng),
        value=float(rng.uniform(0.995, 1.005)),
    )


def _reference(base, tree):
    if tree.is_empty:
        return base
    return _reference(base, tree.left) * _reference(base, tree.right) * tree.value


def _reference_grad(base, tree, eps=1e-7):
    return (_reference(base + eps, tree) - _reference(base - eps, tree)) / (2 * eps)


def _tape_tree_prod(base, tree):
    """Define-by-run comparator: eager tensors + GradientTape."""
    from repro.framework import ops

    if tree.is_empty:
        return base
    l = _tape_tree_prod(base, tree.left)
    r = _tape_tree_prod(base, tree.right)
    return ops.multiply(ops.multiply(l, r), tree.value)


@pytest.mark.parametrize("impl", ["define-by-run tape",
                                  "AutoGraph/Lantern compiled",
                                  "repro.function(backend=lantern)"])
def test_sec8_tree_prod(benchmark, results, impl):
    import repro
    from repro.framework import GradientTape, ops

    rng = np.random.default_rng(11)
    tree = _build_tree(DEPTH, rng)
    compiled, program, _ = lantern.stage_tree_prod(with_grad=True)

    # Correctness first: staged value and CPS gradient match the plain
    # Python recursion.
    value, bwd = compiled.namespace["tree_prod"](1.0, tree)
    assert np.isclose(value, _reference(1.0, tree), rtol=1e-10)
    d_base, _ = bwd(1.0)
    assert np.isclose(d_base, _reference_grad(1.0, tree), rtol=1e-3)
    # The IR is real, inspectable S-expressions.
    assert "(call tree_prod" in program.to_string()

    # All implementations below compute value AND d/d(base): the staged
    # CPS backward vs the define-by-run tape (Table 3's methodology on
    # the paper's §8 example), plus the multi-backend JIT path.
    if impl == "define-by-run tape":
        def run():
            base = ops.constant(1.0)
            with GradientTape() as tape:
                tape.watch(base)
                value = _tape_tree_prod(base, tree)
            tape.gradient(value, base)
            return value
    elif impl == "repro.function(backend=lantern)":
        # The JIT front door: dispatch stages the recursion to Lantern
        # once and replays the compiled artifact + CPS gradient through
        # the tape bridge on every call.
        traced = repro.function(lantern.tree_prod, backend="lantern")
        base = ops.constant(1.0)
        with GradientTape() as tape:
            tape.watch(base)
            value = traced(base, tree)
        grad = tape.gradient(value, base)
        assert np.isclose(float(value.numpy()), _reference(1.0, tree),
                          rtol=1e-6)
        assert np.isclose(float(grad.numpy()), _reference_grad(1.0, tree),
                          rtol=1e-3)
        assert traced.trace_count == 1
        (_, chosen, _), = traced.backend_decisions
        assert chosen == "lantern"

        def run():
            base = ops.constant(1.0)
            with GradientTape() as tape:
                tape.watch(base)
                value = traced(base, tree)
            tape.gradient(value, base)
            return value
    else:
        fn = compiled.namespace["tree_prod"]

        def run():
            value, bwd = fn(1.0, tree)
            bwd(1.0)
            return value

    benchmark.pedantic(run, rounds=RUNS, warmup_rounds=WARMUP)
    stats = benchmark.stats.stats
    results.record(TABLE, impl, f"depth={DEPTH}", 1.0 / stats.mean,
                   (1.0 / stats.mean) * (stats.stddev / stats.mean)
                   if stats.mean else 0.0, "evals/s")
