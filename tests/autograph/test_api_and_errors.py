"""Unit tests: the public API (convert/to_graph/converted_call), the
conversion cache, and Appendix B error rewriting."""

import gc
import importlib.util
import inspect
import warnings

import numpy as np
import pytest

import repro.autograph as ag
from repro import framework as fw
from repro.autograph.errors import ConversionError
from repro.autograph.impl import api
from repro.framework import ops

MODULE_CONSTANT = 10


def module_level_fn(x):
    if x > 0:
        return x + MODULE_CONSTANT
    return x


class TestConvertDecorator:
    def test_decorator_roundtrip(self):
        @ag.convert()
        def f(x):
            if x > 0:
                return 1
            return -1

        assert f(5) == 1
        assert f(-5) == -1

    def test_wrapper_exposes_original(self):
        @ag.convert()
        def f(x):
            return x

        assert f.__ag_original__(3) == 3
        assert f.__name__ == "f"

    def test_lazy_conversion(self):
        # Conversion happens on first call only.  The cache drops the
        # entries of collected functions: collect earlier tests' first.
        gc.collect()
        calls = len(api._CONVERSION_CACHE)

        @ag.convert()
        def f(x):
            return x

        assert len(api._CONVERSION_CACHE) == calls
        f(1)
        assert len(api._CONVERSION_CACHE) == calls + 1


class TestToGraph:
    def test_returns_converted_function(self):
        converted = ag.to_graph(module_level_fn)
        assert converted.__ag_compiled__
        assert converted(5) == 15

    def test_generated_source_attached(self):
        converted = ag.to_graph(module_level_fn)
        assert "ag__" in converted.__ag_source__

    def test_rejects_non_functions(self):
        with pytest.raises(ConversionError):
            ag.to_graph(42)

    def test_method_conversion(self):
        class Model:
            def __init__(self):
                self.scale = 3

            def apply(self, x):
                if x > 0:
                    return x * self.scale
                return 0

        m = Model()
        converted = ag.to_graph(m.apply)
        assert converted(2) == 6

    def test_globals_visible(self):
        converted = ag.to_graph(module_level_fn)
        assert converted(1) == 11

    def test_closure_visible(self):
        offset = 100

        def f(x):
            if x > 0:
                return x + offset
            return x

        converted = ag.to_graph(f)
        assert converted(1) == 101

    def test_closure_refreshed_across_instances(self):
        def make(k):
            def f(x):
                if x > 0:
                    return x + k
                return x

            return f

        c1 = ag.to_graph(make(10))
        assert c1(1) == 11
        c2 = ag.to_graph(make(20))
        assert c2(1) == 21

    def test_conversion_cached_by_code(self):
        def f(x):
            return x + 1

        a = ag.to_graph(f)
        b = ag.to_graph(f)
        assert a is b


class TestLiveGlobalsAndClosures:
    """Converted code reads the original function's *live* globals and
    closure cells (paper §6 step 5), never a conversion-time snapshot."""

    def test_global_rebound_after_conversion_is_seen(self):
        global MODULE_CONSTANT
        converted = ag.to_graph(module_level_fn)
        try:
            MODULE_CONSTANT = 50
            assert converted(1) == 51
            assert ag.to_graph(module_level_fn)(1) == 51
        finally:
            MODULE_CONSTANT = 10
        assert converted(1) == 11

    def test_module_level_loop_lambda_reads_the_current_global(self):
        # One lambda source, evaluated per iteration at module level: the
        # loop variable is a global, and every iteration must see its own.
        import repro

        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        ns = {"repro": repro, "ops": ops, "x": x, "out": [],
              "__name__": __name__}
        src = ("for ax in (0, 1):\n"
               "    out.append(repro.function("
               "lambda p: ops.reduce_sum(p, axis=ax))(x))\n")
        import linecache
        filename = "<loop-lambda-fixture>"
        linecache.cache[filename] = (len(src), None, src.splitlines(True),
                                     filename)
        exec(compile(src, filename, "exec"), ns)
        np.testing.assert_array_equal(np.asarray(ns["out"][0]), x.sum(axis=0))
        np.testing.assert_array_equal(np.asarray(ns["out"][1]), x.sum(axis=1))

    def test_two_closures_of_one_factory_alive_at_once(self):
        def make(k):
            def f(x):
                if x > 0:
                    return x + k
                return x

            return f

        f10, f20 = make(10), make(20)
        c10, c20 = ag.to_graph(f10), ag.to_graph(f20)
        # Interleaved: neither conversion rebinds the other's closure.
        assert (c10(1), c20(1), c10(1)) == (11, 21, 11)
        assert ag.to_graph(f10) is c10 and ag.to_graph(f20) is c20

    def test_closure_cell_rebound_later_is_seen(self):
        k = 1

        def f(x):
            if x > 0:
                return x + k
            return x

        converted = ag.to_graph(f)
        assert converted(1) == 2
        k = 5
        assert converted(1) == 6

    def test_same_source_in_two_modules_keeps_each_modules_globals(self):
        # Code objects compare by value, so both functions share one
        # conversion — but not one set of globals.
        src = "def scale(x):\n    if x > 0:\n        return x * K\n    return x\n"
        import linecache
        fns = []
        for i, k in enumerate((2, 7)):
            filename = f"<same-source-fixture-{i}>"
            linecache.cache[filename] = (len(src), None,
                                         src.splitlines(True), filename)
            ns = {"K": k, "__name__": f"same_source_fixture_{i}"}
            exec(compile(src, filename, "exec"), ns)
            fns.append(ns["scale"])
        assert fns[0].__code__ == fns[1].__code__
        first, second = ag.to_graph(fns[0]), ag.to_graph(fns[1])
        assert (first(3), second(3), first(3)) == (6, 21, 6)


SIGNED = """\
{future}import numpy as np


def signed(x: np.ndarray, z: int = 3, *, scale: float = 0.5) -> np.ndarray:
    if z > 0:
        x = x * z
    return x * scale


def make(k):
    def closed(x, k: int = k):
        return x * k
    return closed


def nested():
    def inner(a: int) -> int:
        return a
    return inner
"""


class TestConvertedSignature:
    """A converted function's defaults and annotations are its user
    function's, whatever ``__future__`` imports the user's module (or
    this package) has."""

    @pytest.mark.parametrize("future", [
        "", "from __future__ import annotations\n\n"])
    def test_annotations_and_defaults_are_the_users(self, tmp_path, future):
        path = tmp_path / f"signed_{len(future)}.py"
        path.write_text(SIGNED.format(future=future))
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert isinstance(module.signed.__annotations__["z"], str) == (
            bool(future))
        # ``closed``'s default names ``make``'s local, which the
        # converted code's scope does not see.
        for fn in (module.signed, module.make(3)):
            converted = ag.to_graph(fn)
            assert converted.__annotations__ == fn.__annotations__
            assert converted.__defaults__ == fn.__defaults__
            assert inspect.signature(converted) == inspect.signature(fn)
        # A def in a converted body compiles under the module's flags.
        assert (ag.to_graph(module.nested)().__annotations__
                == module.nested().__annotations__)
        assert ag.to_graph(module.make(3))(2) == 6
        assert ag.to_graph(module.signed)(2, scale=1) == 6


class TestConvertedCall:
    def test_builtin_overloads(self):
        assert ag.converted_call(len, ([1, 2],)) == 2
        assert list(ag.converted_call(range, (3,))) == [0, 1, 2]

    def test_constructor_not_converted(self):
        class Thing:
            def __init__(self, v):
                self.v = v

        out = ag.converted_call(Thing, (5,))
        assert out.v == 5

    def test_allowlisted_called_directly(self):
        out = ag.converted_call(np.square, (np.array([2.0]),))
        assert out.tolist() == [4.0]

    def test_user_function_converted_recursively(self):
        def inner(x):
            if x > 0:
                return "pos"
            return "neg"

        def outer(x):
            return inner(x)

        converted = ag.to_graph(outer)
        # inner was converted too: staging works through the call.
        g = fw.Graph()
        with g.as_default():
            p = ops.placeholder(fw.float32, [])
            # inner's `if` on tensor would raise if inner ran unconverted.
            out = converted(p)
        assert fw.Session(g).run(out, {p: 1.0}) == "pos"

    def test_there_is_no_recursive_option(self):
        """``recursive=False`` used to be accepted and to convert the
        callees anyway; an option that does nothing is a ``TypeError``."""

        def top(x):
            return x

        with pytest.raises(TypeError):
            ag.to_graph(top, recursive=False)
        with pytest.raises(TypeError):
            ag.convert(recursive=False)
        with pytest.raises(TypeError):
            ag.converted_call(top, (1,), None, None)

    def test_do_not_convert_respected(self):
        @ag.do_not_convert
        def opaque(x):
            return isinstance(x, fw.Tensor)

        def outer(x):
            return opaque(x)

        converted = ag.to_graph(outer)
        g = fw.Graph()
        with g.as_default():
            p = ops.placeholder(fw.float32, [])
            assert converted(p) is True  # ran unconverted, got the tensor

    def test_unconvertible_falls_back_with_warning(self):
        ns = {}
        exec("def no_source(x):\n    return x * 2\n", ns)

        def outer(f, x):
            return f(x)

        converted = ag.to_graph(outer)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert converted(ns["no_source"], 3) == 6
        assert any("could not convert" in str(w.message).lower()
                   for w in caught)

    def test_each_function_whose_code_failed_warns_once(self):
        # One source exec'd twice under one filename: the two code
        # objects compare equal, the functions are still two.
        fns = []
        for _ in range(2):
            ns = {}
            exec(compile("def no_source_twice(x):\n    return x * 3\n",
                         "<twice>", "exec"), ns)
            fns.append(ns["no_source_twice"])
        assert fns[0].__code__ == fns[1].__code__

        def outer(f, x):
            return f(x)

        converted = ag.to_graph(outer)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for f in fns + fns:
                assert converted(f, 2) == 6
        messages = [str(w.message) for w in caught
                    if "could not convert" in str(w.message)]
        assert len(messages) == 2
        assert all("'no_source_twice'" in m for m in messages)

    def test_callable_object_routed_through_call(self):
        class Doubler:
            def __call__(self, x):
                if x > 0:
                    return x * 2
                return 0

        assert ag.converted_call(Doubler(), (4,)) == 8

    def test_lambda_conversion(self):
        double = lambda v: v * 2  # noqa: E731
        assert ag.converted_call(double, (5,)) == 10


class TestDirectivesPublicAPI:
    def test_noop_outside_conversion(self):
        l = []
        assert ag.set_element_type(l, fw.float32) is None
        assert ag.set_loop_options(maximum_iterations=3) is None
        assert l == []

    def test_stack_on_plain_list(self):
        out = ag.stack([np.float32(1.0), np.float32(2.0)])
        assert np.asarray(out).tolist() == [1.0, 2.0]


class TestErrorRewriting:
    def test_runtime_error_carries_original_location(self):
        @ag.convert()
        def f(x):
            if x > 0:
                return undefined_global_xyz  # noqa: F821
            return x

        with pytest.raises(NameError) as excinfo:
            f(1)
        notes = getattr(excinfo.value, "__notes__", [])
        assert any("test_api_and_errors.py" in n for n in notes)
        assert any("undefined_global_xyz" in n for n in notes)

    def test_original_exception_type_preserved(self):
        @ag.convert()
        def f(x):
            if x > 0:
                return 1 // 0
            return x

        with pytest.raises(ZeroDivisionError):
            f(1)

    def test_conversion_source_error_message(self):
        ns = {}
        exec("def g():\n    return 0\n", ns)
        with pytest.raises(ConversionError, match="source"):
            ag.to_graph(ns["g"])


class TestGeneratedCodeProperties:
    def test_generated_code_is_loadable_python(self):
        import ast as ast_mod

        converted = ag.to_graph(module_level_fn)
        ast_mod.parse(converted.__ag_source__)  # must be valid syntax

    def test_generated_code_inspectable(self):
        """Paper §10: the generated code can be inspected by the user."""
        import inspect

        converted = ag.to_graph(module_level_fn)
        src = inspect.getsource(converted)
        assert "if_stmt" in src or "FunctionScope" in src
