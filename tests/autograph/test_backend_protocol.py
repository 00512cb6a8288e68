"""Paper §8, structurally: a staging backend is one class.

A toy third backend — its staged values are the *source text* of the
expression that computes them — stages a converted function through the
``StagingBackend`` protocol alone: this file imports neither
``repro.lantern`` nor ``repro.framework.graph``.  Evaluating the staged
text must give what the function gives when run define-by-run.
"""

import itertools

import pytest

import repro.autograph as ag
from repro.autograph import operators as ag__
from repro.autograph.operators.dispatch import (
    NOT_HANDLED,
    StagingBackend,
    backend_for,
    register_backend,
    unregister_backend,
)
from repro.framework import ops
from repro.framework.errors import StagingError
from repro.framework.ops import dispatch as fw_dispatch


class Expr:
    def __init__(self, text):
        self.text = text

    def __bool__(self):
        raise TypeError("a staged expression has no truth value")

    def __add__(self, other):
        return Expr(f"({self.text} + {_text(other)})")

    def __gt__(self, other):
        return Expr(f"({self.text} > {_text(other)})")


def _text(value):
    return value.text if isinstance(value, Expr) else repr(value)


class ExprBackend(StagingBackend):
    name = "expr"

    def __init__(self, staged_calls):
        self.staged_calls = staged_calls

    def matches(self, value):
        return isinstance(value, Expr)

    def if_stmt(self, cond, body, orelse, symbol_names):
        return tuple(
            Expr(f"({_text(then)} if {cond.text} else {_text(other)})")
            for then, other in zip(body(), orelse()))

    def not_(self, value):
        return Expr(f"(not {value.text})")

    def intercept_call(self, f, args, kwargs):
        if f not in self.staged_calls or kwargs:
            return NOT_HANDLED
        return Expr(f"{f.__name__}({', '.join(map(_text, args))})")

    def run_op(self, op_type, inputs, attrs):
        if not any(map(self.matches, inputs)):
            return NOT_HANDLED
        return Expr(f"{op_type}({', '.join(map(_text, inputs))})")


def bump(y):
    return y * 10


def program(x, y, flag):
    if not x > 0 and flag:
        y = bump(y)
    else:
        y = y + 1
    return y if x > y else x


@pytest.fixture
def backend():
    backend = ExprBackend(staged_calls={bump})
    register_backend(backend)
    yield backend
    unregister_backend(backend)


def test_toy_backend_stages_a_converted_function(backend):
    staged = ag.to_graph(program)(Expr("x"), Expr("y"), Expr("flag"))
    # `bump` was intercepted, not traced: it is a call in the staged text.
    assert "bump(y)" in staged.text
    for x, y, flag in itertools.product((-2, 3, 50), (1, 7), (True, False)):
        assert eval(staged.text, {"bump": bump},
                    {"x": x, "y": y, "flag": flag}) == program(x, y, flag)
    # Framework ops on its values are offered to it too.
    assert ops.multiply(Expr("x"), 2).text == "Mul(x, 2)"


def test_a_construct_the_backend_leaves_out_names_both(backend):
    def loop(x):
        while x > 0:
            x = x + 1
        return x

    with pytest.raises(StagingError, match="while: the expr backend"):
        ag.to_graph(loop)(Expr("x"))
    with pytest.raises(StagingError, match="for: the expr backend"):
        ag__.for_stmt(Expr("xs"), None, lambda v, s: (s,), (0,), ("s",))


def test_one_registration_and_an_empty_fast_path():
    idle = (fw_dispatch.op_backends, fw_dispatch.call_backends)
    # The graph IR overrides neither hook: converted_call and run_op ask
    # nobody while it is the only registrant.
    assert idle == ((), ())
    backend = ExprBackend(staged_calls=set())
    register_backend(backend)
    try:
        assert fw_dispatch.op_backends == fw_dispatch.call_backends == (backend,)
        assert backend_for(1, Expr("x")) is backend
    finally:
        unregister_backend(backend)
    assert (fw_dispatch.op_backends, fw_dispatch.call_backends) == idle
    assert backend_for(Expr("x")) is None


def _graph_tensor():
    from repro import framework as fw

    with fw.Graph().as_default():
        return ops.constant(True)


@pytest.mark.parametrize("make_staged", [lambda: Expr("s"), _graph_tensor],
                         ids=["toy", "graph"])
def test_mid_flight_restage_reaches_any_backend_alike(
        make_staged, backend, monkeypatch):
    """A loop whose state turns staged on its second turn is handed, whole
    and from its *initial* state, to the backend claiming that value."""
    staged = make_staged()
    handed = []
    monkeypatch.setattr(
        type(backend_for(staged)), "while_stmt",
        lambda self, test, body, init_state, symbol_names, opts:
            handed.append((init_state, symbol_names, opts)) or "staged loop")
    turns = []

    def body(i, flag):
        turns.append(i)
        return i + 1, (staged if i == 1 else flag)

    result = ag__.while_stmt(lambda i, flag: i < 5, body, (0, False),
                             ("i", "flag"))
    assert result == "staged loop"
    assert turns == [0, 1]
    assert handed == [((0, False), ("i", "flag"), {})]
