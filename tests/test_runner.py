"""Program evaluation, the built-in corpus, and report emitters."""

import dataclasses
import json
import pathlib

import pytest

from confn import engine
from confn.certificates import LOWER, Certificate
from confn.cones import Cone
from confn.descriptors import TORIC, ExactEqualsNef, custom, projective_space
from confn.dsl import parse
from confn.engine import FujitaInterval, resolve
from confn.lattice import IntersectionForm, PicardLattice
from confn.runner import (
    CORPUS_PROGRAM,
    REPORT_SCHEMA_VERSION,
    _oracle_disagrees,
    corpus,
    emit_json,
    emit_markdown,
    evaluate,
    explain_row,
    provenance_lines,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "corpus.md"


# ------------------------------------------------------------- corpus


def test_each_descriptor_resolves_once_per_evaluation(monkeypatch):
    runs = []

    def counted(rule):
        def run(desc, ctx):
            runs.append(id(desc))
            return rule(desc, ctx)

        return run

    threshold = engine._RULES["exact-threshold"]
    monkeypatch.setitem(
        engine._RULES,
        "exact-threshold",
        dataclasses.replace(threshold, derive=counted(threshold.derive)),
    )
    report = evaluate(
        parse(
            "let a = projective_space(1)\n"
            "let b = product(a, a)\n"
            "let c = product(b, b)\n"
            "compute a\ncompute b\ncompute c\n"
        )
    )
    assert [(r.name, str(r.interval), r.verified) for r in report.rows] == [
        ("a", "2", True),
        ("b", "2", True),
        ("c", "2", True),
    ]
    assert len(runs) == len(set(runs)) == 3


def test_corpus_all_green():
    report = corpus()
    assert len(report.rows) == 27
    assert not report.any_failure
    assert not report.any_internal
    for row in report.rows:
        assert row.error is None, (row.name, row.error)
        assert row.verified is True, row.name
        assert row.assertions and all(a.passed for a in row.assertions), row.name


def test_corpus_matches_golden_markdown():
    assert emit_markdown(corpus()) == GOLDEN.read_text()


def test_corpus_headline_values():
    by_name = {row.name: row for row in corpus().rows}
    ladder = {
        "quintic3": 0,
        "quartic3": 1,
        "cubic3": 2,
        "quadric3": 3,
        "P3": 4,
        "quartic_surface": 0,
        "dP7": 1,
        "F1": 2,
        "P2": 3,
    }
    for name, value in ladder.items():
        interval = by_name[name].interval
        assert interval.exact and interval.lo == value, name


# ------------------------------------------------------------- evaluation


def test_assertion_semantics():
    report = evaluate(
        parse(
            """
            let A = abelian(2)
            assert_confn A in [0, 3]
            assert_confn A in [1, 2]
            assert_confn A = 2
            """
        )
    )
    (row,) = report.rows
    outcomes = [a.passed for a in row.assertions]
    # containment passes, a narrower interval does not, exactness needs
    # the endpoints to meet
    assert outcomes == [True, False, False]
    assert report.any_failure
    assert not report.any_internal


def test_exact_assertion_pass_and_fail():
    report = evaluate(
        parse(
            """
            let X = projective_space(2)
            assert_confn X = 3
            let Y = projective_space(3)
            assert_confn Y = 3
            """
        )
    )
    x, y = report.rows
    assert x.assertions[0].passed
    assert not y.assertions[0].passed
    assert y.assertions[0].actual == "4"


def test_definition_failure_poisons_only_dependents():
    report = evaluate(
        parse(
            """
            let broken = complete_intersection(2, degrees = [5])
            compute broken
            let downstream = blowup_point(broken)
            compute downstream
            let fine = projective_space(2)
            assert_confn fine = 3
            """
        )
    )
    names = {row.name: row for row in report.rows}
    assert "very_general" in names["broken"].error
    assert "failed" in names["downstream"].error
    assert names["fine"].assertions[0].passed
    assert report.any_failure


def test_type_errors_from_arguments():
    report = evaluate(parse("let X = projective_space(true)\ncompute X"))
    (row,) = report.rows
    assert "expected an integer" in row.error
    report2 = evaluate(parse("let X = projective_space()\ncompute X"))
    assert "missing required argument" in report2.rows[0].error
    report3 = evaluate(parse("let X = projective_space(2, n = 3)\ncompute X"))
    assert "duplicate argument" in report3.rows[0].error
    report4 = evaluate(parse("let X = projective_space(2, m = 3)\ncompute X"))
    assert "no parameter" in report4.rows[0].error


def test_custom_handler_limits():
    report = evaluate(
        parse(
            "let X = custom(dimension = 3, basis = [H, G], "
            "gram = [[1, 0], [0, 1]], canonical = H)\ncompute X"
        )
    )
    assert "limited to surfaces" in report.rows[0].error
    report2 = evaluate(
        parse(
            "let X = custom(dimension = 2, basis = [H], gram = [[1]], "
            "canonical = 3*H, flags = [toric])\ncompute X"
        )
    )
    assert "unsupported flag" in report2.rows[0].error
    # a nef cone with an empty interior is rejected when it is admitted
    report3 = evaluate(
        parse(
            "let X = custom(dimension = 2, basis = [A, B, C], "
            "gram = [[1, 0, 0], [0, 1, 0], [0, 0, 1]], canonical = A, "
            "nef = [[1, -3, 0], [1, -1, -3], [-2, 2, 1], [1, 3, 3]])\ncompute X"
        )
    )
    assert report3.rows[0].interval is None
    assert "empty interior" in report3.rows[0].error


def test_divisor_argument_checked_against_basis():
    report = evaluate(
        parse(
            """
            let S = delpezzo7()
            let Y = pipeline_n3k1(S, polarization = 3*H - E9)
            compute Y
            """
        )
    )
    names = {row.name: row for row in report.rows}
    assert "not a basis name" in names["Y"].error
    assert "E1" in names["Y"].error  # the hint lists the actual basis


def test_provenance_lines_nest():
    from confn.pipelines import pipeline_n3k1
    from confn.descriptors import del_pezzo7

    dp = del_pezzo7()
    result = pipeline_n3k1(dp, dp.lattice.make([3, -1, -1]))
    lines = provenance_lines(result.descriptor)
    assert lines[0].startswith("cyclic_cover(")
    assert any(line.strip() == "assumes effective_nl" for line in lines)
    assert any(line.strip().startswith("product(") for line in lines)
    assert any(line.strip().startswith("del_pezzo7(") for line in lines)


# ------------------------------------------------------------- oracle hook


def test_oracle_cross_check_branches():
    p2 = projective_space(2)
    assert _oracle_disagrees(p2, resolve(p2), max_m=6) is None
    too_low = FujitaInterval(2, 2)
    message = _oracle_disagrees(p2, too_low, max_m=6)
    assert message is not None and "refutation exists at 2" in message
    too_high = FujitaInterval(4, 4)
    message2 = _oracle_disagrees(p2, too_high, max_m=6)
    assert message2 is not None and "no refutation found at 3" in message2
    # values beyond the cap are taken on the certificates alone
    assert _oracle_disagrees(p2, FujitaInterval(9, 9), max_m=6) is None


def test_oracle_skips_refutation_outside_its_box():
    lat = PicardLattice(("u", "v"))
    desc = custom(
        dimension=3,
        lattice=lat,
        form=IntersectionForm.from_entries(lat, 3, {(0, 0, 0): 1}),
        canonical=lat.make([3, 0]),
        nef=Cone(lat, ((-1, -2), (2, 3))),  # no interior point of sup-norm <= 4
        gg=ExactEqualsNef("toric: nef implies globally generated"),
        flags=(TORIC,),
    )
    interval = resolve(desc)
    assert (interval.lo, interval.hi) == (3, 3)
    lower = next(c for c in interval.certificates if c.kind == LOWER)
    assert max(abs(x) for p in lower.witness_data()["tuple"] for x in p) > 4
    assert _oracle_disagrees(desc, interval, max_m=6) is None


def test_corpus_with_oracle_cap_still_green():
    report = corpus(max_m=6)
    assert not report.any_internal


# ------------------------------------------------------------- emitters


def test_json_shape_and_round_trip():
    report = corpus()
    payload = json.loads(emit_json(report))
    assert payload["schema_version"] == REPORT_SCHEMA_VERSION
    assert len(payload["varieties"]) == 27
    for row_dict, row in zip(payload["varieties"], report.rows):
        assert row_dict["name"] == row.name
        certs = [Certificate.from_json_dict(c) for c in row_dict["certificates"]]
        assert tuple(certs) == row.interval.certificates
        assert row_dict["interval"]["exact"] == row.interval.exact


def test_emitters_are_deterministic():
    a = emit_json(corpus())
    b = emit_json(corpus())
    assert a == b
    assert emit_markdown(corpus()) == emit_markdown(corpus())
    assert "generated_at" not in a


def test_timestamps_are_opt_in():
    report = corpus()
    stamped = emit_json(report, timestamps=True)
    assert "generated_at" in stamped
    md = emit_markdown(report, timestamps=True)
    assert "generated:" in md


def test_markdown_error_section():
    report = evaluate(parse("let X = curve(0)\nlet Y = abelian(0)\ncompute Y"))
    text = emit_markdown(report)
    assert "## errors" in text
    assert "| Y | - | - | error | - | - |" in text


def test_explain_row_prose():
    report = evaluate(parse("let X = projective_space(2)\nassert_confn X = 3"))
    text = explain_row(report.rows[0])
    assert "dimension 2" in text
    assert "convex Fujita number 3 (exact)" in text
    assert "exact-threshold" in text
    assert "PASS: expected 3" in text
    assert "independently re-verified: yes" in text


def test_explain_row_error_case():
    report = evaluate(parse("let X = abelian(0)\ncompute X"))
    text = explain_row(report.rows[0])
    assert "error:" in text


def test_corpus_program_is_well_formed_dsl():
    program = parse(CORPUS_PROGRAM)
    assert len(program.statements) > 50
