"""AutoGraph's generated source for the benchmark corpus, byte for byte.

A change to a template, a pass or the way nodes are spliced shows here
as a diff against ``goldens/`` (see ``autograph_golden_programs.py`` for
what is pinned and how to print a checkout's output).
"""

import pathlib

import pytest

from autograph_golden_programs import PROGRAMS

GOLDENS = pathlib.Path(__file__).parent / "goldens"


def test_every_golden_has_a_program():
    assert sorted(p.stem for p in GOLDENS.glob("*.txt")) == sorted(PROGRAMS)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_generated_source_matches_golden(name):
    assert PROGRAMS[name]() == (GOLDENS / f"{name}.txt").read_text()
