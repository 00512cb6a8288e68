"""The compiler's output is pinned byte for byte, and is a function of
the program alone.

``goldens/`` holds what the commit before ``ir.OPS`` became the single
op table emitted (each program compiled first in a fresh interpreter):
re-deriving the forward templates, the adjoints and the lowering from
one declaration must not move a character.
"""

import pathlib

import pytest
from lantern_golden_programs import PROGRAMS

GOLDENS = pathlib.Path(__file__).parent / "goldens"


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
