"""Program evaluation, the built-in corpus, and report emitters."""

import dataclasses
import json
import pathlib

import pytest

from confn import cones, engine, runner
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

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "corpus.md"


# ------------------------------------------------------------- corpus


def test_each_descriptor_resolves_once_per_evaluation(monkeypatch):
    runs = []

    def counted(rule):
        def run(desc):
            runs.append(id(desc))
            return rule(desc)

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


def test_corpus_matches_golden_json():
    # the pipelines' notes reach the report only here and in explain
    assert emit_json(corpus()) == (GOLDEN_DIR / "corpus.json").read_text()


def test_corpus_matches_golden_explain():
    text = "\n\n".join(explain_row(r) for r in corpus().rows) + "\n"
    assert text == (GOLDEN_DIR / "corpus_explain.txt").read_text()


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


# Every constructor error, in full: category, message, position and hint.
# Each statement is line 4, after the three definitions below.
_ERROR_PRELUDE = (
    "let P = projective_space(3)\nlet S = delpezzo7()\nlet B = abelian(0)\n"
)
_NEF_NO_INTERIOR = "[[1, -3, 0], [1, -1, -3], [-2, 2, 1], [1, 3, 3]]"
_BASIS_HINT = "\n  hint: basis names here: H, E1, E2"


@pytest.mark.parametrize(
    "statement, error",
    [
        (
            "projective_space(2, 3)",
            "type error at line 4, column 29: projective_space takes at most 1 "
            "argument\n  hint: parameters: n",
        ),
        (
            "projective_space(2, m = 3)",
            "type error at line 4, column 29: projective_space has no parameter "
            "'m'\n  hint: parameters: n",
        ),
        (
            "projective_space(2, n = 3)",
            "type error at line 4, column 29: duplicate argument 'n'",
        ),
        (
            "projective_space()",
            "type error at line 4, column 5: projective_space is missing "
            "required argument 'n'\n  hint: parameters: n",
        ),
        (
            "projective_space(true)",
            "type error at line 4, column 26: expected an integer",
        ),
        (
            "complete_intersection(3, [2], 1)",
            "type error at line 4, column 39: expected true or false",
        ),
        (
            "complete_intersection(3, 2)",
            "type error at line 4, column 34: expected a list of integers",
        ),
        (
            "custom(2, H, [[1]], 3*H)",
            "type error at line 4, column 19: expected a list of names",
        ),
        (
            "custom(2, [1], [[1]], 3*H)",
            "type error at line 4, column 20: expected a bare name",
        ),
        (
            "custom(2, [H], 1, 3*H)",
            "type error at line 4, column 24: expected a list of integer rows",
        ),
        (
            "custom(dimension = 3, basis = [H, G], gram = [[1, 0], [0, 1]], "
            "canonical = H)",
            "type error at line 4, column 54: custom forms are limited to "
            "surfaces (a gram matrix) or rank-1 lattices (a 1x1 top "
            "intersection number)",
        ),
        (
            "custom(dimension = 2, basis = [H], gram = [[1]], canonical = 3*H, "
            "flags = [toric])",
            "type error at line 4, column 83: unsupported flag 'toric'\n"
            "  hint: supported: irregularity_zero",
        ),
        (
            "custom(dimension = 2, basis = [A, B, C], gram = [[1, 0, 0], "
            "[0, 1, 0], [0, 0, 1]], canonical = A, nef = " + _NEF_NO_INTERIOR + ")",
            "the functionals ((1, -3, 0), (1, -1, -3), (-2, 2, 1), (1, 3, 3)) cut "
            "out a cone with an empty interior: no class is positive on all of "
            "them",
        ),
        (
            "product(1, P)",
            "type error at line 4, column 17: expected the name of a previously "
            "defined descriptor",
        ),
        ("product(Q, P)", "name error at line 4, column 17: 'Q' is not defined"),
        (
            "product(B, P)",
            "name error at line 4, column 17: 'B' failed to evaluate and cannot "
            "be used\n  hint: fix the earlier error first",
        ),
        (
            "pipeline_n3k1(S, polarization = 3)",
            "type error at line 4, column 41: expected a divisor literal such as "
            "3*H - E1" + _BASIS_HINT,
        ),
        (
            "pipeline_n3k1(S, polarization = 3*H - E9)",
            "type error at line 4, column 41: 'E9' is not a basis name of this "
            "lattice" + _BASIS_HINT,
        ),
        (
            "pipeline_n3k1(S, polarization = E9)",
            "type error at line 4, column 41: 'E9' is not a basis name of this "
            "lattice" + _BASIS_HINT,
        ),
        (
            "hypersurface_section(P, ample = H, p = 5, assume = [large_d])",
            "type error at line 4, column 60: hypersurface_section does not take "
            "assumption 'large_d'\n  hint: only 'ample' is meaningful here",
        ),
        (
            "pipeline_simple_variety(P, branch = H, d = 6, assume = H)",
            "type error at line 4, column 64: expected a list of names",
        ),
        (
            "complete_intersection(2, degrees = [5])",
            "surface case requires a single degree >= 4 and the very_general "
            "flag (Noether-Lefschetz)",
        ),
        (
            "cyclic_cover(P, branch = H, degree = 1)",
            "cover degree must be >= 2, got 1",
        ),
    ],
)
def test_constructor_errors_verbatim(statement, error):
    report = evaluate(parse(_ERROR_PRELUDE + f"let X = {statement}\ncompute X\n"))
    (row,) = [r for r in report.rows if r.name == "X"]
    assert row.error == error
    assert row.interval is None and not row.internal


def test_failed_definition_keeps_its_own_error():
    # the definition's error stands on the row that compute and assert_confn
    # reach later; neither records an assertion against it
    report = evaluate(parse("let B = abelian(0)\ncompute B\nassert_confn B = 1\n"))
    (row,) = report.rows
    assert row.error == "abelian varieties have dimension >= 1"
    assert row.assertions == [] and row.interval is None


def test_runner_calls_every_library_constructor_at_call_time(monkeypatch):
    # tracing rebinds these names on the runner module, so every let must
    # look its library function up there when it runs
    names = (
        "projective_space", "complete_intersection", "curve", "hirzebruch1",
        "del_pezzo7", "abelian", "custom", "product", "blowup_point",
        "hypersurface_section", "cyclic_cover", "pipeline_n2k1",
        "pipeline_n3k1", "pipeline_simple_surface", "pipeline_simple_variety",
    )
    calls = dict.fromkeys(names, 0)

    def recording(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    for name in names:
        monkeypatch.setattr(runner, name, recording(name, getattr(runner, name)))
    extra = (
        "let C2 = curve(2)\ncompute C2\n"
        "let BF1 = blowup_point(F1)\ncompute BF1\n"
        "let HS = hypersurface_section(P3, ample = H, p = 5)\ncompute HS\n"
    )
    report = evaluate(parse(CORPUS_PROGRAM + extra))
    assert not report.any_failure
    assert [name for name, n in calls.items() if n == 0] == []


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


def test_custom_is_admitted_once_and_reads_its_form_first(monkeypatch):
    calls = []
    library_custom = runner.custom
    monkeypatch.setattr(
        runner, "custom", lambda **kw: calls.append(kw) or library_custom(**kw)
    )
    report = evaluate(
        parse(
            "let X = custom(dimension = 2, basis = [H], gram = [[1]], "
            "canonical = 3*H)\n"
            "compute X\n"
            "let Y = custom(dimension = 0, basis = [H], gram = [[1]], canonical = Q)\n"
            "compute Y\n"
        )
    )
    x, y = report.rows
    assert x.error is None and len(calls) == 1
    # the form is built before the canonical literal is read on its basis
    assert y.error == "the form degree must be at least 1"


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


def test_corpus_oracle_enumerates_few_lattice_points(monkeypatch):
    # the oracle enumerates only prefixes of each cone's box, once per cone
    # and radius; filtering the whole box would yield over 15,000 points here
    plain = cones.lattice_points_by_shell
    yielded = 0

    def counted(rank, radius):
        nonlocal yielded
        for point in plain(rank, radius):
            yielded += 1
            yield point

    monkeypatch.setattr(cones, "lattice_points_by_shell", counted)
    report = corpus()
    assert not report.any_failure
    assert 0 < yielded <= 1200


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
