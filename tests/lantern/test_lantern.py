"""Unit tests: the Lantern backend (§8) — S-expressions, IR, staging,
compilation and CPS gradients."""

import numpy as np
import pytest

from repro import lantern
from repro.datasets.treebank import EMPTY, Tree
from repro.lantern import compiler, ir, ops as lt, sexpr


class TestSexpr:
    def test_format_atoms(self):
        assert sexpr.format_sexpr(sexpr.Sym("abc")) == "abc"
        assert sexpr.format_sexpr(1.5) == "1.5"
        assert sexpr.format_sexpr("hi") == '"hi"'

    def test_format_nested(self):
        expr = (sexpr.Sym("add"), sexpr.Sym("x"), 1)
        assert sexpr.format_sexpr(expr) == "(add x 1)"

    def test_parse_roundtrip(self):
        text = "(def f (a b) (block (let x1 (mul a b)) (result x1)))"
        parsed = sexpr.parse_sexpr(text)
        assert sexpr.format_sexpr(parsed) == text

    def test_parse_numbers_and_strings(self):
        parsed = sexpr.parse_sexpr('(f 1 2.5 "s")')
        assert parsed[1] == 1
        assert parsed[2] == 2.5
        assert parsed[3] == "s"

    def test_parse_unbalanced_raises(self):
        with pytest.raises(ValueError):
            sexpr.parse_sexpr("(a (b)")

    def test_parse_trailing_raises(self):
        with pytest.raises(ValueError):
            sexpr.parse_sexpr("(a) b")


class TestIR:
    def _builder(self):
        program = ir.Program()
        b = ir.Builder(program)
        block = ir.Block()
        b.push_block(block)
        return program, b, block

    def test_emit_op(self):
        _, b, block = self._builder()
        x = b.as_staged(1.0)
        y = b.emit("tanh", x)
        assert isinstance(y, ir.StagedTensor)
        assert block.instructions[-1][0] == "op"

    def test_operator_overloads_emit(self):
        _, b, block = self._builder()
        x = b.as_staged(2.0)
        y = x * x + 1.0
        kinds = [i[2] for i in block.instructions if i[0] == "op"]
        assert "mul" in kinds and "add" in kinds

    def test_param_emission(self):
        _, b, block = self._builder()
        p = ir.Param("w", np.ones((2, 2)))
        staged = b.as_staged(p)
        assert block.instructions[-1] == ("param", staged.sym, "w")

    def test_tree_fields_typed(self):
        _, b, block = self._builder()
        t = ir.StagedTree("t0", b)
        assert isinstance(t.left, ir.StagedTree)
        assert isinstance(t.is_empty, ir.StagedBool)
        assert isinstance(t.value, ir.StagedTensor)

    def test_tree_unknown_field_raises(self):
        _, b, _ = self._builder()
        t = ir.StagedTree("t0", b)
        with pytest.raises(AttributeError):
            t.nonsense

    def test_staged_bool_raises(self):
        _, b, _ = self._builder()
        t = ir.StagedTree("t0", b)
        with pytest.raises(TypeError, match="AutoGraph"):
            bool(t.is_empty)

    def test_if_branch_count_mismatch(self):
        _, b, _ = self._builder()
        cond = ir.StagedBool("c", b)
        with pytest.raises(ValueError, match="same number"):
            b.emit_if(cond, lambda: (b.as_staged(1.0), b.as_staged(2.0)),
                      lambda: (b.as_staged(1.0),), 2)

    def test_program_sexpr_renders(self):
        program = ir.Program()
        b = ir.Builder(program)
        fdef = ir.FunctionDef("f", ["a"], ["tensor"], 1)
        program.functions["f"] = fdef
        b.push_block(fdef.block)
        out = b.as_staged(1.0) * 2.0
        fdef.block.result_syms = (out.sym,)
        b.pop_block()
        text = program.to_string()
        assert "(def" in text and "(mul" in text


class TestLanternOps:
    def test_numpy_fallback(self):
        assert np.isclose(lt.tanh(np.float32(0.5)), np.tanh(0.5))
        out = lt.matmul(np.ones((1, 2), np.float32), np.ones((2, 3), np.float32))
        assert out.shape == (1, 3)

    def test_xent_numpy(self):
        logits = np.array([[1.0, 2.0, 3.0]], np.float32)
        loss = lt.xent(logits, 2)
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        assert np.isclose(loss, -np.log(probs[0, 2]), atol=1e-6)

    def test_param_unwrapped(self):
        p = lantern.Param("p", np.ones((1, 2)))
        out = lt.concat1(p, np.zeros((1, 2), np.float32))
        assert out.shape == (1, 4)


def _full_tree(depth, rng):
    if depth == 0:
        node = Tree(value=float(rng.uniform(0.5, 1.5)))
        node.left = EMPTY
        node.right = EMPTY
        return node
    return Tree(left=_full_tree(depth - 1, rng),
                right=_full_tree(depth - 1, rng),
                value=float(rng.uniform(0.5, 1.5)))


def _ref_prod(base, tree):
    if tree.is_empty:
        return base
    return _ref_prod(base, tree.left) * _ref_prod(base, tree.right) * tree.value


class TestTreeProd:
    def test_staged_value_matches_reference(self):
        compiled, program, _ = lantern.stage_tree_prod()
        rng = np.random.default_rng(1)
        for depth in (0, 1, 3):
            tree = _full_tree(depth, rng)
            assert np.isclose(compiled.run("tree_prod", 1.3, tree),
                              _ref_prod(1.3, tree))

    def test_recursion_in_ir(self):
        _, program, _ = lantern.stage_tree_prod()
        assert "(call tree_prod" in program.to_string()

    def test_cps_gradient_matches_numeric(self):
        compiled, _, _ = lantern.stage_tree_prod()
        rng = np.random.default_rng(2)
        tree = _full_tree(4, rng)
        _, bwd = compiled.namespace["tree_prod"](1.1, tree)
        d_base, _ = bwd(1.0)
        eps = 1e-6
        numeric = (_ref_prod(1.1 + eps, tree) - _ref_prod(1.1 - eps, tree)) / (2 * eps)
        assert np.isclose(d_base, numeric, rtol=1e-4)

    def test_forward_only_compile(self):
        stager = lantern.Stager()
        with stager.active():
            stager.def_staged(lantern.tree_prod, ["tensor", "tree"], 1)
        compiled = compiler.compile_program(stager.program, with_grad=False)
        tree = _full_tree(2, np.random.default_rng(0))
        assert np.isclose(compiled.run("tree_prod", 2.0, tree),
                          _ref_prod(2.0, tree))

    def test_generated_source_is_python(self):
        compiled, _, _ = lantern.stage_tree_prod()
        import ast

        ast.parse(compiled.source)
        assert "def tree_prod(" in compiled.source
        assert "def _bwd(" in compiled.source  # the continuation


class TestTreeLSTM:
    def _model_and_tree(self, hidden=12):
        from repro.datasets import load_treebank_synthetic

        trees = load_treebank_synthetic(num_trees=3, embed_dim=hidden, seed=3)
        model = lantern.LanternTreeLSTM(hidden_dim=hidden, num_classes=5)
        model.compile()
        return model, trees

    def test_staged_matches_unstaged(self):
        model, trees = self._model_and_tree()
        for tree in trees:
            assert np.isclose(model.loss(tree),
                              model.eager_reference_loss(tree), atol=1e-5)

    def test_param_gradients_numeric(self):
        model, trees = self._model_and_tree(hidden=6)
        tree = trees[0]
        model.compiled.zero_grads()
        model.compiled.run_with_grad("tree_loss", tree, tree.label)
        grads = model.compiled.grads()
        values = model.compiled.namespace["_P"]

        # Spot-check two parameters numerically.
        for pname in ("w_out", "w_i"):
            g = grads[pname]
            idx = np.unravel_index(np.argmax(np.abs(g)), g.shape)
            eps = 1e-3
            orig = values[pname][idx]
            values[pname][idx] = orig + eps
            up = model.eager_reference_loss(tree)
            values[pname][idx] = orig - eps
            down = model.eager_reference_loss(tree)
            values[pname][idx] = orig
            numeric = (up - down) / (2 * eps)
            assert np.isclose(g[idx], numeric, rtol=5e-2, atol=1e-4), pname

    def test_training_reduces_loss(self):
        model, trees = self._model_and_tree()
        first = np.mean([model.train_step(t) for t in trees])
        for _ in range(4):
            last = np.mean([model.train_step(t) for t in trees])
        assert last < first

    def test_loops_unsupported_message(self):
        from repro.autograph import operators as ag__
        from repro.framework.errors import FrameworkError, StagingError

        assert issubclass(StagingError, FrameworkError)  # a 400 when served
        stager = lantern.Stager()
        with stager.active():
            x = stager.staged_arg("tensor", "x")
            with pytest.raises(StagingError, match="while: the Lantern backend"):
                ag__.while_stmt(lambda x: x, lambda x: (x,), (x,), ("x",))
            with pytest.raises(StagingError, match="for: the Lantern backend"):
                ag__.for_stmt(x, None, lambda v, s: (s,), (0,), ("s",))
