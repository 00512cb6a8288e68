"""The compiler's output is pinned byte for byte, and is a function of
the program alone.

``goldens/`` holds the forward code and the CPS adjoints the compiler
emits for every program of ``lantern_golden_programs.PROGRAMS``, so a
change to an ``ir.OPS`` template or to the compiler shows as a diff of
the lines it moves.  The adjoints are the fast-path forms: a matmul's
operand gradients are ``np.dot`` over ``.T`` attribute transposes
(``@`` for a one-element operand), a broadcasting op's operand
gradient is unbroadcast onto that operand (``_unb``), and the gradient
passed for a tensor output no caller reads is a zero of its shape
(``_zeros_like``), never a bare ``0.0``.  After a deliberate change,
rewrite them with
``PYTHONPATH=src python tests/lantern/lantern_golden_programs.py --write``.
"""

import pytest
from lantern_golden_programs import GOLDENS, PROGRAMS


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_generated_source_matches_golden(name):
    assert PROGRAMS[name]() == (GOLDENS / f"{name}.txt").read_text()


def test_every_golden_has_a_program():
    assert {p.stem for p in GOLDENS.glob("*.txt")} == set(PROGRAMS)


def test_source_does_not_depend_on_what_was_compiled_before():
    """``_d<n>`` / ``_sm<n>`` temporaries are numbered per
    ``compile_program`` call, not per process."""
    first = PROGRAMS["treelstm"]()
    PROGRAMS["tree_prod"]()
    assert PROGRAMS["treelstm"]() == first
