"""AutoGraph's generated source for the benchmark corpus, byte for byte.

A change to a template, a pass or the way nodes are spliced shows here
as a diff against ``goldens/`` (see ``autograph_golden_programs.py`` for
what is pinned and how to print a checkout's output).
"""

import pathlib

import pytest

import repro.autograph as ag
from autograph_golden_programs import FUNCTIONS, PROGRAMS

GOLDENS = pathlib.Path(__file__).parent / "goldens"


def test_every_golden_has_a_program():
    assert sorted(p.stem for p in GOLDENS.glob("*.txt")) == sorted(PROGRAMS)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_generated_source_matches_golden(name):
    assert PROGRAMS[name]() == (GOLDENS / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_to_graph_shows_the_golden_source(name):
    """``to_graph`` unparses the tree it compiles; ``to_code`` converts
    again: the two agree."""
    golden = (GOLDENS / f"{name}.txt").read_text()
    assert ag.to_graph(FUNCTIONS[name]).__ag_source__ == golden
