"""Multi-backend dispatch: ``@repro.function(backend=...)`` (paper §8).

The same traced front-end lowers to the graph IR *or* the Lantern
S-expression IR with continuation-based gradients — recursion and
runtime trees route to lantern, plain tensor traces to the graph.
"""

import numpy as np
import pytest

import repro
from repro import lantern
from repro.datasets.treebank import EMPTY, Tree
from repro.framework import GradientTape, ops
from repro.framework.errors import (
    ExecutionError,
    StagingError,
    UnstagedConstructError,
)
from repro.function.lowering import (
    LanternConcreteFunction,
    choose_backend,
    detect_self_recursion,
    infer_n_outputs,
    lanternize_signature,
)
from repro.function.signature import canonicalize
from repro.lantern import ops as lt


def _full_tree(depth, rng):
    if depth == 0:
        node = Tree(value=float(rng.uniform(0.9, 1.1)))
        node.left = EMPTY
        node.right = EMPTY
        return node
    return Tree(left=_full_tree(depth - 1, rng),
                right=_full_tree(depth - 1, rng),
                value=float(rng.uniform(0.9, 1.1)))


def _ref_prod(base, tree):
    if tree.is_empty:
        return base
    return _ref_prod(base, tree.left) * _ref_prod(base, tree.right) * tree.value


def tree_prod(base, tree):
    if not tree.is_empty:
        l = tree_prod(base, tree.left)
        r = tree_prod(base, tree.right)
        return l * r * tree.value
    else:
        return base


class TestBackendValidation:
    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="Unknown repro.function backend"):
            repro.function(lambda x: x, backend="tpu")

    def test_unknown_backend_decorator_form(self):
        with pytest.raises(ValueError, match="backend"):
            @repro.function(backend="nope")
            def f(x):
                return x

    def test_backend_property(self):
        f = repro.function(lambda x: x, backend="lantern")
        assert f.backend == "lantern"


class TestStaticInspection:
    def test_detects_self_recursion(self):
        assert detect_self_recursion(tree_prod)
        assert detect_self_recursion(lantern.tree_prod)

    def test_non_recursive(self):
        def f(x):
            return ops.tanh(x)

        assert not detect_self_recursion(f)

    def test_infer_n_outputs(self):
        def one(x):
            return x * 2

        def two(x):
            return x, x * 2

        assert infer_n_outputs(one) == 1
        assert infer_n_outputs(two) == 2

    def test_choose_backend(self):
        rng = np.random.default_rng(0)
        tree = _full_tree(2, rng)
        c = canonicalize(None, (1.0, tree), {})
        backend, reason = choose_backend(tree_prod, c)
        assert backend == "lantern"
        c2 = canonicalize(None, (np.float32(1.0),), {})
        backend, _ = choose_backend(lambda x: x, c2)
        assert backend == "graph"


class TestLanternSignature:
    def test_trees_key_by_kind_not_identity(self):
        rng = np.random.default_rng(1)
        t1, t2 = _full_tree(2, rng), _full_tree(3, rng)
        k1 = lanternize_signature(canonicalize(None, (1.0, t1), {}))
        k2 = lanternize_signature(canonicalize(None, (2.5, t2), {}))
        assert k1.key == k2.key
        assert k1.tensor_indices == [0, 1] and k1.specs[1] == "Tree"

    def test_scalars_become_runtime_tensors(self):
        c = lanternize_signature(canonicalize(None, (1.0, 2), {}))
        assert c.tensor_indices == [0, 1]
        assert all(isinstance(s, repro.TensorSpec) for s in c.specs)

    def test_bools_and_strings_stay_constants(self):
        c = lanternize_signature(
            canonicalize(None, (1.0, True, "mode"), {}))
        assert c.tensor_indices == [0]
        assert len(c.specs) == 1


class TestLanternRecursive:
    def test_tree_prod_value_and_gradient(self):
        rng = np.random.default_rng(2)
        tree = _full_tree(4, rng)
        tp = repro.function(tree_prod, backend="lantern")

        base = ops.constant(1.1)
        with GradientTape() as tape:
            tape.watch(base)
            value = tp(base, tree)
        grad = tape.gradient(value, base)

        assert np.isclose(float(value.numpy()), _ref_prod(1.1, tree),
                          rtol=1e-6)
        eps = 1e-6
        numeric = (_ref_prod(1.1 + eps, tree)
                   - _ref_prod(1.1 - eps, tree)) / (2 * eps)
        assert np.isclose(float(grad.numpy()), numeric, rtol=1e-4)

    def test_one_trace_serves_every_tree(self):
        rng = np.random.default_rng(3)
        tp = repro.function(tree_prod, backend="lantern")
        for depth in (1, 2, 4):
            tree = _full_tree(depth, rng)
            got = tp(1.3, tree)
            assert np.isclose(float(np.asarray(got.numpy())),
                              _ref_prod(1.3, tree), rtol=1e-6)
        assert tp.trace_count == 1

    def test_recursion_is_in_the_ir(self):
        rng = np.random.default_rng(4)
        tp = repro.function(tree_prod, backend="lantern")
        cf = tp.get_concrete_function(1.0, _full_tree(2, rng))
        assert "(call tree_prod" in cf.program.to_string()

    def test_call_with_grad_without_tape(self):
        rng = np.random.default_rng(5)
        tree = _full_tree(3, rng)
        tp = repro.function(tree_prod, backend="lantern")
        cf = tp.get_concrete_function(1.1, tree)
        value = cf.call_with_grad(1.1, tree)
        assert np.isclose(float(np.asarray(value.numpy())),
                          _ref_prod(1.1, tree), rtol=1e-6)


class TestAutoDispatch:
    def test_auto_picks_lantern_for_recursion(self):
        rng = np.random.default_rng(6)
        tp = repro.function(tree_prod, backend="auto")
        tp(1.0, _full_tree(2, rng))
        (name, backend, reason), = tp.backend_decisions
        assert backend == "lantern"
        cf = tp.concrete_functions()[0]
        assert isinstance(cf, LanternConcreteFunction)

    def test_auto_picks_graph_for_tensor_trace(self):
        @repro.function(backend="auto")
        def quickstartish(x, w, b):
            logits = ops.add(ops.matmul(x, w), b)
            return ops.reduce_sum(ops.tanh(logits))

        x = np.random.default_rng(0).normal(size=(4, 3)).astype(np.float32)
        w = np.zeros((3, 2), np.float32)
        b = np.zeros((2,), np.float32)
        quickstartish(x, w, b)
        (_, backend, reason), = quickstartish.backend_decisions
        assert backend == "graph"
        assert quickstartish.concrete_functions()[0].backend == "graph"

    def test_pretty_cache_names_backend(self):
        rng = np.random.default_rng(7)
        tp = repro.function(tree_prod, backend="auto")
        tp(1.0, _full_tree(2, rng))
        assert "[lantern]" in tp.pretty_cache()


class TestTensorFunctions:
    def test_matches_graph_backend(self):
        def model(x, w):
            return ops.tanh(ops.matmul(x, w))

        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3)).astype(np.float32)
        w = rng.normal(size=(3, 4)).astype(np.float32)
        via_graph = repro.function(model, backend="graph")(x, w)
        flan = repro.function(model, backend="lantern")
        via_lantern = flan(x, w)
        assert np.allclose(via_graph.numpy(), via_lantern.numpy(), atol=1e-6)
        # One IR function, no captures: the closure holds nothing.
        cf = flan.get_concrete_function(x, w)
        assert list(cf.program.functions) == ["model"]
        assert cf.captures == []
        flan(x, w)
        assert flan.trace_count == 1

    def test_gradient_matches_graph_backend(self):
        def model(x, w):
            return ops.reduce_sum(ops.tanh(ops.matmul(x, w)))

        rng = np.random.default_rng(9)
        x = ops.constant(rng.normal(size=(2, 3)).astype(np.float32))
        w = rng.normal(size=(3, 4)).astype(np.float32)

        grads = {}
        for backend in ("graph", "lantern"):
            f = repro.function(model, backend=backend)
            with GradientTape() as tape:
                tape.watch(x)
                y = f(x, w)
            grads[backend] = tape.gradient(y, x).numpy()
        assert np.allclose(grads["graph"], grads["lantern"], atol=1e-5)

    def test_framework_ops_stage_through_dispatch_hook(self):
        # ops.* written against the graph API stages into the lantern IR
        # when the value is staged (§8 backend-agnostic front-end).
        def mixed(x, w):
            return ops.reduce_mean(ops.square(ops.matmul(x, w)))

        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 3)).astype(np.float32)
        w = rng.normal(size=(3, 2)).astype(np.float32)
        got = repro.function(mixed, backend="lantern")(x, w)
        assert np.isclose(float(got.numpy()), np.mean((x @ w) ** 2),
                          atol=1e-6)

    def test_generated_source_is_inspectable(self):
        def model(x):
            return ops.tanh(x)

        f = repro.function(model, backend="lantern")
        cf = f.get_concrete_function(np.float32(0.5))
        assert "def model(" in cf.source
        assert "def _bwd(" in cf.source


class TestDispatchErrors:
    def test_autograph_while_is_a_typed_refusal(self):
        @repro.function(backend="lantern")
        def loopy(x, n):
            i = np.int32(0)
            while i < n:
                x = ops.multiply(x, 1.5)
                i = i + 1
            return x

        with pytest.raises(UnstagedConstructError,
                           match="while: the Lantern backend") as info:
            loopy(np.float32(2.0), np.int32(3))
        assert (info.value.construct, info.value.backend) == (
            "while", "Lantern")

    def test_framework_while_loop_is_a_typed_refusal(self):
        # Over a staged loop variable, and over a condition that only
        # closes over a staged value.
        def over_variable(x):
            return ops.while_loop(lambda i, v: i < 3,
                                  lambda i, v: (i + 1, ops.tanh(v)),
                                  (np.int32(0), x))[1]

        def over_condition(n):
            return ops.while_loop(lambda i: i < n, lambda i: i + 1,
                                  (np.int32(0),))[0]

        for fn in (over_variable, over_condition):
            f = repro.function(fn, backend="lantern", autograph=False)
            with pytest.raises(UnstagedConstructError,
                               match="while: the Lantern backend"):
                f(np.float32(2.0))

    def test_unmapped_pure_op_raises_execution_error(self):
        @repro.function(backend="lantern")
        def compare(x, y):
            return ops.greater(x, y)

        with pytest.raises(ExecutionError, match="no Lantern"):
            compare(np.float32(1.0), np.float32(2.0))

    def test_variables_rejected(self):
        from repro.framework.graph.variables import Variable

        @repro.function(backend="lantern")
        def stateful(x):
            v = Variable(np.zeros((2,), np.float32), name="v")
            return ops.add(x, v.value())

        with pytest.raises(ExecutionError,
                           match="Variables|stateful"):
            stateful(np.ones((2,), np.float32))

    def test_lantern_function_cannot_inline_in_graph(self):
        f = repro.function(lambda x: x * 2.0, backend="lantern")
        from repro.framework.graph.graph import Graph

        g = Graph("outer")
        with g.as_default():
            ph = g.placeholder("float32", ())
            with pytest.raises(StagingError, match="Lantern backend"):
                f(ph)

    def test_auto_recursive_function_cannot_inline_in_graph(self):
        # auto resolves to lantern for recursion; inlining would unroll
        # against a symbolic condition forever.
        f = repro.function(tree_prod, backend="auto")
        from repro.framework.graph.graph import Graph

        g = Graph("outer")
        with g.as_default():
            ph = g.placeholder("float32", ())
            with pytest.raises(StagingError, match="Lantern backend"):
                f(ph, ph)

    def test_transpose_with_perm_unsupported(self):
        @repro.function(backend="lantern")
        def permute(x):
            return ops.transpose(x, perm=(0, 2, 1))

        x = np.zeros((2, 3, 4), np.float32)
        with pytest.raises(ExecutionError, match="perm"):
            permute(x)

    def test_concrete_function_structure_mismatch(self):
        rng = np.random.default_rng(11)
        tp = repro.function(tree_prod, backend="lantern")
        cf = tp.get_concrete_function(1.0, _full_tree(2, rng))
        with pytest.raises(StagingError):
            cf(1.0, 2.0)  # second arg is not a tree


class TestParamGradients:
    def test_param_grads_accumulate_across_calls_under_one_tape(self):
        from repro.lantern.ir import Param

        w = Param("w_acc", np.asarray(2.0, np.float32))

        def scaled(x):
            return lt.sum_(x * w)

        f = repro.function(scaled, backend="lantern")
        a, b = ops.constant(3.0), ops.constant(5.0)
        cf = f.get_concrete_function(a)
        cf.zero_grads()
        with GradientTape() as tape:
            tape.watch(a)
            tape.watch(b)
            y = ops.add(f(a), f(b))
        grad_a, grad_b = tape.gradient(y, [a, b])
        assert np.isclose(float(grad_a.numpy()), 2.0)
        assert np.isclose(float(grad_b.numpy()), 2.0)
        # d(y)/d(w) = a + b, summed over both recorded calls (the replay
        # must not zero the shared gradient slots between records).
        assert np.isclose(cf.params["w_acc"].grad, 8.0)

    def test_param_referencing_fn_trains_its_param(self):
        # A Param is read live, never baked: training reaches it.
        from repro.lantern.ir import Param

        w = Param("w_routed", np.asarray(1.5, np.float32))

        def affine(x):
            return lt.sum_(x * w)

        f = repro.function(affine, backend="lantern")
        cf = f.get_concrete_function(np.float32(4.0))
        assert "w_routed" in cf.params
        cf.call_with_grad(np.float32(4.0))
        assert np.isclose(cf.params["w_routed"].grad, 4.0)

    def test_param_named_only_by_a_nested_helper_is_live(self):
        # Neither function's own closure holds the Param: the helper
        # names it and only a nested lambda names the helper.  It must
        # still be read live, not baked as the 2.0 it held at staging.
        from repro.lantern.ir import Param

        w = Param("w_nested", np.asarray(2.0, np.float32))

        def scale(x):
            return x * w

        def model(x):
            apply = lambda v: scale(v)  # noqa: E731
            return lt.sum_(apply(x))

        f = repro.function(model, backend="lantern")
        x = np.float32(3.0)
        cf = f.get_concrete_function(x)
        assert list(cf.params) == ["w_nested"]
        assert np.isclose(float(f(x).numpy()), 6.0)
        w.value[...] = 5.0
        assert np.isclose(float(f(x).numpy()), 15.0)
        cf.call_with_grad(x)
        assert np.isclose(w.grad, 3.0)  # d(x * w)/dw = x
        assert f.trace_count == 1


class TestClosedOverState:
    def test_eager_tensor_capture_is_runtime_input(self):
        k = ops.constant(np.array([4.0], np.float32))

        @repro.function(backend="lantern")
        def f(x):
            return x + k

        x = np.ones(1, np.float32)
        cf = f.get_concrete_function(x)
        assert [(c.kind, c.name) for c in cf.captures] == [
            ("tensor", "capture_0")]
        np.testing.assert_allclose(f(x).numpy(), [5.0])
        k.numpy()[...] = 10.0
        np.testing.assert_allclose(f(x).numpy(), [11.0])
        cf.set_capture_values({"capture_0": np.array([1.0], np.float32)})
        np.testing.assert_allclose(f(x).numpy(), [2.0])
        assert f.trace_count == 1

    def test_frozen_eager_tensor_is_a_constant(self):
        k = ops.constant(np.array([4.0], np.float32))

        @repro.function(backend="lantern", freeze_captures=True)
        def f(x):
            return x + k

        x = np.ones(1, np.float32)
        assert f.get_concrete_function(x).captures == []
        k.numpy()[...] = 10.0
        np.testing.assert_allclose(f(x).numpy(), [5.0])

    def test_tensors_the_trace_makes_are_constants(self):
        @repro.function(backend="lantern")
        def f(x):
            return ops.multiply(x, ops.exp(ops.constant(np.float32(0.0))))

        x = np.full(2, 3.0, np.float32)
        np.testing.assert_allclose(f(x).numpy(), x)
        assert f.get_concrete_function(x).captures == []

    def test_a_closed_over_array_is_baked_as_a_copy(self):
        # As on the graph backend: writing into the array after the
        # trace does not reach the compiled program.
        w = np.full((2,), 2.0, np.float32)

        @repro.function(backend="lantern")
        def f(x):
            return ops.multiply(x, w)

        x = np.ones(2, np.float32)
        f(x)
        w[...] = 5.0
        np.testing.assert_allclose(f(x).numpy(), [2.0, 2.0])

    def test_stale_variable_read_is_a_snapshot(self):
        from repro.framework.graph.variables import Variable

        v = Variable(np.array([2.0], np.float32), name="lantern_stale_v")
        old = v.value()
        v.assign(np.array([3.0], np.float32))

        @repro.function(backend="lantern")
        def f(x):
            return x * old + v.value()

        cf = f.get_concrete_function(np.ones(1, np.float32))
        assert sorted(c.kind for c in cf.captures) == ["tensor", "variable"]
        np.testing.assert_allclose(f(np.ones(1, np.float32)).numpy(), [5.0])

    def test_a_current_read_from_before_the_trace_is_a_snapshot(self):
        from repro.framework.graph.variables import Variable

        v = Variable(np.array([2.0], np.float32), name="lantern_current_v")
        w = v.value()

        def f(x):
            return x * w

        lantern_f = repro.function(f, backend="lantern")
        graph_f = repro.function(f, backend="graph")
        x = np.ones(1, np.float32)
        for fn in (lantern_f, graph_f):
            np.testing.assert_allclose(fn(x).numpy(), [2.0])
        v.assign(np.array([3.0], np.float32))
        np.testing.assert_allclose(f(x).numpy(), [2.0])
        for fn in (lantern_f, graph_f):
            np.testing.assert_allclose(fn(x).numpy(), [2.0])
        names = [[(c.kind, c.name) for c in fn.get_concrete_function(x).captures]
                 for fn in (lantern_f, graph_f)]
        assert names[0] == names[1] == [("tensor", "capture_0")]

    def test_a_read_the_trace_makes_is_the_live_variable(self):
        from repro.framework.graph.variables import Variable

        v = Variable(np.array([2.0], np.float32), name="lantern_live_v")
        v.value()   # the cached read the trace must not reuse

        @repro.function(backend="lantern")
        def f(x):
            return x * v.value()

        x = np.ones(1, np.float32)
        np.testing.assert_allclose(f(x).numpy(), [2.0])
        v.assign(np.array([3.0], np.float32))
        np.testing.assert_allclose(f(x).numpy(), [3.0])
        assert [(c.kind, c.name) for c in f.get_concrete_function(x).captures
                ] == [("variable", "lantern_live_v")]


class TestOtherThreads:
    """The Stager's registration is process-wide, but what it refuses is
    only what its own thread does during the trace."""

    def test_another_threads_assign_and_variable_run_during_a_trace(self):
        import threading

        from repro.framework.graph.variables import Variable

        v = Variable(np.array([5.0], np.float32), name="other_thread_v")
        tracing, done = threading.Event(), threading.Event()
        seen = {}

        def other():
            try:
                assert tracing.wait(10)
                v.assign_sub(np.array([1.0], np.float32))
                seen["made"] = Variable(np.float32(0.0), name="other_made")
            except BaseException as e:   # reported by the main thread
                seen["error"] = e
            finally:
                done.set()

        def pause():
            tracing.set()
            assert done.wait(10)

        @repro.function(backend="lantern")
        def f(x):
            pause()
            return x * 2.0

        worker = threading.Thread(target=other)
        worker.start()
        try:
            out = f(np.ones(1, np.float32))
        finally:
            done.wait(10)
            worker.join(10)
        assert "error" not in seen, seen.get("error")
        np.testing.assert_allclose(out.numpy(), [2.0])
        np.testing.assert_allclose(v.numpy(), [4.0])
        assert isinstance(seen["made"], Variable)
        assert type(f.get_concrete_function(np.ones(1, np.float32))
                    ) is LanternConcreteFunction

    def test_the_tracing_threads_own_variable_is_still_refused(self):
        from repro.framework.graph.variables import Variable

        @repro.function(backend="lantern")
        def f(x):
            return x * Variable(np.float32(2.0), name="made_in_trace")

        with pytest.raises(lantern.LanternLoweringError,
                           match="creates Variables"):
            f(np.ones(1, np.float32))


class TestOutputsAndControlFlow:
    def test_nested_outputs_with_constant_leaves(self):
        @repro.function(backend="lantern")
        def f(x):
            return {"y": ops.tanh(x), "meta": ("tag", 3)}, ops.square(x)

        x = np.array([0.5, -1.0], np.float32)
        (d, sq) = f(x)
        np.testing.assert_allclose(d["y"].numpy(), np.tanh(x), rtol=1e-6)
        assert d["meta"] == ("tag", 3)
        np.testing.assert_allclose(sq.numpy(), x * x)
        assert f.get_concrete_function(x)._output_template == [
            ("c", "tag"), ("c", 3), ("t", 0), ("t", 1)]

    def test_framework_cond_on_a_staged_predicate_stages_an_if(self):
        def leaf_or_sum(base, tree):
            return ops.cond(tree.is_empty, lambda: (base, base),
                            lambda: (tree.value, base * tree.value))

        leaf = Tree(value=2.0)
        leaf.left = EMPTY
        leaf.right = EMPTY
        f = repro.function(leaf_or_sum, backend="lantern", autograph=False)
        a, b = f(3.0, leaf)
        assert np.isclose(float(a.numpy()), 2.0)
        assert np.isclose(float(b.numpy()), 6.0)
        assert "(if" in f.get_concrete_function(
            3.0, leaf).program.to_string()
        a, b = f(3.0, EMPTY)
        assert np.isclose(float(a.numpy()), 3.0)

    def test_a_concrete_predicate_picks_its_branch_at_staging(self):
        @repro.function(backend="lantern", autograph=False)
        def f(x):
            return ops.cond(ops.greater(ops.constant(1.0), 0.0),
                            lambda: ops.tanh(x), lambda: ops.exp(x))

        np.testing.assert_allclose(f(np.float32(0.5)).numpy(), np.tanh(0.5),
                                   rtol=1e-6)

    def test_an_unused_unsupported_op_is_dropped(self):
        @repro.function(backend="lantern", autograph=False)
        def f(x):
            ops.floor(x)  # no Lantern form, and nothing reads it
            return ops.tanh(x)

        np.testing.assert_allclose(f(np.float32(0.5)).numpy(), np.tanh(0.5),
                                   rtol=1e-6)

    def test_autograph_false_calls_the_function_unconverted(self):
        def branchy(x):
            if x > 0:  # a staged Python `if` needs conversion
                return x
            return -x

        with pytest.raises(TypeError, match="AutoGraph conversion"):
            repro.function(branchy, backend="lantern",
                           autograph=False)(np.float32(1.0))


class TestErrorMessages:
    def test_constant_only_outputs_rejected_clearly(self):
        def const_only(x):
            return 3.0

        with pytest.raises(ExecutionError, match="no tensors"):
            repro.function(const_only, backend="lantern")(np.float32(1.0))

    def test_early_return_recursion_names_the_fix(self):
        def early(base, tree):
            if not tree.is_empty:
                return early(base, tree.left) * tree.value
            return base

        rng = np.random.default_rng(12)
        with pytest.raises(TypeError, match="early"):
            repro.function(early, backend="lantern")(1.0, _full_tree(1, rng))


class TestReentrantHelperPromotion:
    def test_multi_function_recursion_promotes_helpers(self):
        # An entry function that *calls* a recursive helper: discovery
        # promotes the helper to its own IR function (paper's
        # __def_staged applied transitively).
        def leaf_sum(tree):
            if tree.is_leaf:
                return lt.sum_(lt.tanh(tree.embedding))
            else:
                return leaf_sum(tree.left) + leaf_sum(tree.right)

        def scaled_sum(scale, tree):
            return leaf_sum(tree) * scale

        from repro.datasets import load_treebank_synthetic

        tree = load_treebank_synthetic(num_trees=1, embed_dim=4, seed=0)[0]
        f = repro.function(scaled_sum, backend="lantern")
        got = f(2.0, tree)

        def ref(t):
            if t.is_leaf:
                return float(np.sum(np.tanh(t.embedding)))
            return ref(t.left) + ref(t.right)

        assert np.isclose(float(np.asarray(got.numpy())), 2.0 * ref(tree),
                          rtol=1e-5)
        cf = f.concrete_functions()[0]
        assert set(cf.program.functions) == {"leaf_sum", "scaled_sum"}

    def test_same_named_helpers_get_distinct_ir_functions(self):
        # Two recursive closures from one factory share a __name__; the
        # promotion bookkeeping must key by object, not name.
        def make_summer(scale):
            def summer(tree):
                if tree.is_leaf:
                    return lt.sum_(lt.tanh(tree.embedding)) * scale
                else:
                    return summer(tree.left) + summer(tree.right)

            return summer

        s1, s2 = make_summer(1.0), make_summer(10.0)

        def entry(tree):
            return s1(tree) + s2(tree)

        from repro.datasets import load_treebank_synthetic

        tree = load_treebank_synthetic(num_trees=1, embed_dim=4, seed=2)[0]
        f = repro.function(entry, backend="lantern")
        got = f(tree)

        def ref(t):
            if t.is_leaf:
                return float(np.sum(np.tanh(t.embedding)))
            return ref(t.left) + ref(t.right)

        assert np.isclose(float(np.asarray(got.numpy())), 11.0 * ref(tree),
                          rtol=1e-5)
        cf = f.concrete_functions()[0]
        assert set(cf.program.functions) == {"entry", "summer", "summer_1"}

    def test_mutually_recursive_helpers_converge(self):
        # Discovery declares all found helpers before tracing any body,
        # so helper->helper recursion cannot inline forever.
        def left_sum(tree):
            if tree.is_leaf:
                return lt.sum_(lt.tanh(tree.embedding))
            else:
                return left_sum(tree.left) + right_sum(tree.right)

        def right_sum(tree):
            if tree.is_leaf:
                return lt.sum_(lt.tanh(tree.embedding))
            else:
                return right_sum(tree.right) + left_sum(tree.left)

        def entry(tree):
            return left_sum(tree) * 2.0

        from repro.datasets import load_treebank_synthetic

        tree = load_treebank_synthetic(num_trees=1, embed_dim=4, seed=1)[0]
        f = repro.function(entry, backend="lantern")
        got = f(tree)

        def ref(t):
            if t.is_leaf:
                return float(np.sum(np.tanh(t.embedding)))
            return ref(t.left) + ref(t.right)

        assert np.isclose(float(np.asarray(got.numpy())), 2.0 * ref(tree),
                          rtol=1e-5)
        cf = f.concrete_functions()[0]
        assert set(cf.program.functions) == {
            "left_sum", "right_sum", "entry"}
