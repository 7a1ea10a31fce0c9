"""The golden atlas: realized (dimension, pi_1 source, conFN) cells.

Each cell of ``tests/golden/atlas.fuj`` is one ``let`` named
``n{n}m{m}_{source}`` with ``assert_confn`` of its value.  The pipelines
check only their premises, so this is where the values their constructions
promise are asserted.
"""

import pathlib
import re

import pytest

from confn import runner
from confn.descriptors import ExactEqualsNef
from confn.dsl import AssertConfn, Compute, Let, parse
from confn.pipelines import (
    pipeline_n2k1,
    pipeline_n3k1,
    pipeline_simple_surface,
    pipeline_simple_variety,
)
from confn.runner import emit_markdown, evaluate

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
ATLAS = GOLDEN_DIR / "atlas.fuj"
CELL = re.compile(r"n(\d)m(\d)_(sc|C2|A2)")


@pytest.fixture(scope="module")
def program():
    return parse(ATLAS.read_text())


@pytest.fixture(scope="module")
def checked(program):
    """The atlas evaluated at ``max_m = 6``, with every oracle outcome."""
    outcomes = []
    original = runner._oracle_disagrees

    def spy(desc, interval, max_m):
        outcome = original(desc, interval, max_m)
        outcomes.append((isinstance(desc.gg, ExactEqualsNef), outcome))
        return outcome

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "_oracle_disagrees", spy)
        report = evaluate(program, max_m=6)
    return report, outcomes


def test_atlas_matches_golden_markdown(checked):
    report, _ = checked
    assert emit_markdown(report) == (GOLDEN_DIR / "atlas.md").read_text()


def test_every_cell_is_exact_asserted_verified_and_oracle_clean(program, checked):
    report, outcomes = checked
    asserted = {s.name: s for s in program.statements if isinstance(s, AssertConfn)}
    computed = [s.name for s in program.statements if isinstance(s, Compute)]
    assert [row.name for row in report.rows] == computed
    assert len(computed) == 55
    for row in report.rows:
        n, m, _source = CELL.fullmatch(row.name).groups()
        assert row.error is None, (row.name, row.error)
        assert row.dimension == int(n), row.name
        assert row.interval.exact and row.interval.lo == int(m), row.name
        assert asserted[row.name].exact == int(m), row.name
        assert [a.passed for a in row.assertions] == [True], row.name
        assert row.verified is True, row.name
    assert not report.any_failure and not report.any_internal
    # every cell is offered to the oracle, which cross-checks only those
    # whose nef cone is their globally generated cone: the 14 toric sc
    # cells; the others are taken on their certificates alone
    assert len(outcomes) == 55 and all(outcome is None for _, outcome in outcomes)
    assert sum(applies for applies, _ in outcomes) == 14


def test_the_atlas_uses_every_pipeline(program):
    cells = {
        s.constructor
        for s in program.statements
        if isinstance(s, Let) and CELL.fullmatch(s.name)
    }
    pipelines = {
        f.__name__
        for f in (pipeline_n2k1, pipeline_n3k1, pipeline_simple_surface, pipeline_simple_variety)
    }
    assert pipelines <= cells



@pytest.mark.parametrize("genus", range(1, 8))
def test_the_c2_recipes_hold_for_every_genus(genus):
    # the C2 column's recipes read nothing of the curve's genus; this asserts
    # the values, not that 5*H_1 + H_2 is very ample on the cover's base
    text = ATLAS.read_text()
    line = "let C2 = curve(2)\n"
    assert text.count(line) == 1
    report = evaluate(parse(text.replace(line, f"let C2 = curve({genus})\n")))
    cells = [row for row in report.rows if row.name.endswith("_C2")]
    assert len(cells) == 18
    for row in cells:
        assert row.error is None, (row.name, row.error)
        assert [a.passed for a in row.assertions] == [True], row.name
        assert row.verified is True, row.name
