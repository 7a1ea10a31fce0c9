"""Program evaluation, the built-in corpus, and report emitters."""

import gc
import importlib.util
import json
import pathlib
import sys
import weakref

import pytest

from confn import cones, engine, runner
from confn.certificates import LOWER, Certificate
from confn.cli import main
from confn.cones import Cone
from confn.constructions import blowup_point, cyclic_cover, hypersurface_section, product
from confn.descriptors import (
    DescriptorError,
    ExactEqualsNef,
    Provenance,
    VarietyDescriptor,
    custom,
    hirzebruch1,
    projective_space,
)
from confn.dsl import parse
from confn.engine import FujitaInterval, resolve
from confn.lattice import IntersectionForm, PicardLattice
from confn.pipelines import pipeline_simple_variety
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
        engine.Rule(threshold.id, counted(threshold.derive), threshold.verify),
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


def test_a_run_builds_no_reference_cycles():
    # reference counting frees all a run drops, with no collector pass
    program = parse(CORPUS_PROGRAM)
    gc.collect()
    gc.disable()
    try:
        report = evaluate(program)
        emit_json(report)
        del report
        assert gc.collect() == 0
    finally:
        gc.enable()


# ------------------------------------------------------------- sharing


def _recording(monkeypatch, name):
    """Rebind ``runner.<name>`` to record each call's first positional
    argument, or its keyword arguments when it has none."""
    calls = []
    plain = getattr(runner, name)

    def call(*args, **kwargs):
        calls.append(args[0] if args else kwargs)
        return plain(*args, **kwargs)

    monkeypatch.setattr(runner, name, call)
    return calls


def test_identical_lets_construct_once(monkeypatch):
    calls = _recording(monkeypatch, "projective_space")
    report = evaluate(
        parse(
            "let A = projective_space(2)\nlet B = projective_space(2)\n"
            "let C = projective_space(3)\n"
            "compute A\ncompute B\ncompute C\n"
        )
    )
    assert calls == [{"n": 2}, {"n": 3}]
    a, b, c = report.rows
    assert (a.name, b.name, c.name) == ("A", "B", "C")
    assert a.interval is b.interval and str(a.interval) == "3"
    assert c.interval is not a.interval and str(c.interval) == "4"


def test_names_bound_to_one_result_key_alike(monkeypatch):
    products = _recording(monkeypatch, "product")
    resolved = _recording(monkeypatch, "resolve")
    report = evaluate(
        parse(
            "let a = projective_space(1)\nlet b = projective_space(1)\n"
            "let ab = product(a, b)\nlet aa = product(a, a)\n"
            "compute ab\ncompute aa\n"
        )
    )
    assert len(products) == 1
    # ab and aa share one binding, so its row is computed once
    assert len(resolved) == 1
    assert [(r.name, str(r.interval)) for r in report.rows] == [("ab", "2"), ("aa", "2")]


def test_basis_names_key_by_name_not_by_binding():
    # H and E share one binding, but only H is a basis name of P4
    report = evaluate(
        parse(
            "let H = projective_space(4)\nlet E = projective_space(4)\n"
            "let c1 = cyclic_cover(H, branch = H, degree = 7)\n"
            "let c2 = cyclic_cover(H, branch = E, degree = 7)\n"
            "compute c1\ncompute c2\n"
        )
    )
    rows = {r.name: r for r in report.rows}
    assert str(rows["c1"].interval) == "0"
    assert rows["c2"].interval is None
    assert rows["c2"].error.startswith(
        "type error at line 4, column 35: 'E' is not a basis name"
    )


def test_repeated_failing_lets_report_their_own_errors():
    report = evaluate(
        parse(
            "let A = abelian(0)\nlet B = abelian(0)\n"
            "let P = projective_space(2)\n"
            "let X = blowup_point(P, surface = P)\n"
            "let Y = blowup_point(P, surface = P)\n"
        )
    )
    errors = {r.name: r.error for r in report.rows}
    assert errors["A"] == errors["B"] == "abelian varieties have dimension >= 1"
    assert errors["X"].startswith("type error at line 4, column 25:")
    assert errors["Y"].startswith("type error at line 5, column 25:")


def test_positional_and_keyword_arguments_agree(monkeypatch):
    calls = _recording(monkeypatch, "complete_intersection")
    report = evaluate(
        parse(
            "let X = complete_intersection(3, degrees = [2])\n"
            "let Y = complete_intersection(n = 3, degrees = [2])\n"
            "assert_confn X = 3\nassert_confn Y = 3\n"
        )
    )
    assert not report.any_failure
    assert [str(r.interval) for r in report.rows] == ["3", "3"]
    assert calls == [{"n": 3, "degrees": (2,)}]


def test_oracle_runs_once_per_shared_descriptor(monkeypatch):
    plain = cones.brute_force_refute
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return plain(*args, **kwargs)

    monkeypatch.setattr(cones, "brute_force_refute", counted)
    once = evaluate(parse("let A = projective_space(2)\ncompute A\n"))
    single = len(calls)
    calls.clear()
    twice = evaluate(
        parse(
            "let A = projective_space(2)\nlet B = projective_space(2)\n"
            "compute A\ncompute B\n"
        )
    )
    assert single > 0 and len(calls) == single
    assert not once.any_failure and not twice.any_failure


@pytest.mark.parametrize(
    "refutation, message",
    [
        (((1,),), "a refutation exists at 3 summands although the resolved value is 3"),
        (None, "no refutation found at 2 summands although the resolved value is 3"),
    ],
    ids=["refuted-at-the-value", "unrefuted-below-it"],
)
def test_an_oracle_disagreement_is_an_internal_fault(
    monkeypatch, tmp_path, capsys, refutation, message
):
    monkeypatch.setattr(cones, "brute_force_refute", lambda *args, **kwargs: refutation)
    program = "let P2 = projective_space(2)\ncompute P2\n"
    (row,) = evaluate(parse(program)).rows
    assert row.error == "oracle disagreement: " + message
    assert row.internal and row.verified
    path = tmp_path / "p2.fuj"
    path.write_text(program)
    assert main(["eval", str(path)]) == 3
    assert "oracle disagreement: " + message in capsys.readouterr().out


_SHARED = (
    "let A = projective_space(3)\nlet B = projective_space(3)\n"
    "let AA = product(A, A)\nlet BB = product(B, B)\n"
)


def test_shared_bindings_are_computed_once(monkeypatch):
    rows_traced = []
    plain = runner.provenance_lines

    open_calls = []

    def traced(desc):
        # the recursion into a product's factors comes back through here
        if not open_calls:
            rows_traced.append(desc)
        open_calls.append(desc)
        try:
            return plain(desc)
        finally:
            open_calls.pop()

    monkeypatch.setattr(runner, "provenance_lines", traced)
    verified = _recording(monkeypatch, "verify_certificate")
    report = evaluate(
        parse(
            _SHARED + "compute A\nassert_confn B = 4\nassert_confn B = 5\n"
            "compute AA\nassert_confn BB = 4\n"
        )
    )
    a, b, aa, bb = report.rows
    for first, later in ((a, b), (aa, bb)):
        for field in runner.VarietyRow.__slots__:
            if field not in ("name", "assertions"):
                assert getattr(later, field) == getattr(first, field), field
    assert [x.passed for x in b.assertions] == [True, False]
    assert [str(x.interval) for x in report.rows] == ["4", "4", "4", "4"]
    assert [desc.provenance.constructor for desc in rows_traced] == [
        "projective_space",
        "product",
    ]
    # every certificate of the two bindings is re-verified once
    assert len(verified) == len(a.interval.certificates) + len(aa.interval.certificates)
    assert {id(desc) for desc in verified} == {id(desc) for desc in rows_traced}


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
            "unsupported flag 'toric'; custom takes only CUSTOM_FLAGS: "
            "irregularity_zero",
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
            "hypersurface_section does not take assumption 'large_d'; it takes "
            "ample",
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
        (
            "cyclic_cover(P, branch = H, degree = 7, assume = [bogus])",
            "cyclic_cover does not take assumption 'bogus'; it takes ample, "
            "large_d, pic_pullback_iso, effective_nl",
        ),
        (
            "cyclic_cover(P, branch = H, degree = 6, assume = [large_d, nonsense])",
            "cyclic_cover does not take assumption 'nonsense'; it takes ample, "
            "large_d, pic_pullback_iso, effective_nl",
        ),
    ],
)
def test_constructor_errors_verbatim(statement, error):
    report = evaluate(parse(_ERROR_PRELUDE + f"let X = {statement}\ncompute X\n"))
    (row,) = [r for r in report.rows if r.name == "X"]
    assert row.error == error
    assert row.interval is None and not row.internal


# a threefold whose nef cone is unknown, so ampleness is the caller's word
_UNKNOWN_NEF = (
    "let P = projective_space(3)\nlet F1 = hirzebruch1()\n"
    "let B = blowup_point(F1)\nlet P1 = projective_space(1)\n"
    "let Y = product(B, P1)\n"
)


def _unknown_nef_threefold():
    return product(blowup_point(hirzebruch1()), projective_space(1))


def _rank_one_custom(flags):
    lat = PicardLattice(("H",))
    return custom(
        2, lat, IntersectionForm.from_gram(lat, [[1]]), lat.make([-3]), flags=flags
    )


@pytest.mark.parametrize(
    "statement, library_call",
    [
        (
            "hypersurface_section(P, ample = H, p = 5, assume = [large_d])",
            lambda p3, y: hypersurface_section(
                p3, p3.lattice.make([1]), 5, assume=("large_d",)
            ),
        ),
        (
            "hypersurface_section(Y, ample = S + 2*F - E + H, p = 7)",
            lambda p3, y: hypersurface_section(y, y.lattice.make([1, 2, -1, 1]), 7),
        ),
        (
            "cyclic_cover(P, branch = H, degree = 7, assume = [bogus])",
            lambda p3, y: cyclic_cover(p3, p3.lattice.make([1]), 7, assume=("bogus",)),
        ),
        (
            "pipeline_simple_variety(P, branch = H, d = 6, assume = [bogus])",
            lambda p3, y: pipeline_simple_variety(
                p3, p3.lattice.make([1]), 6, assume=("bogus",)
            ),
        ),
        (
            "pipeline_simple_variety(Y, branch = -S - F - E - H, d = 9)",
            lambda p3, y: pipeline_simple_variety(y, y.lattice.make([-1] * 4), 9),
        ),
        (
            "custom(dimension = 2, basis = [H], gram = [[1]], canonical = -3*H, "
            "flags = [toric])",
            lambda p3, y: _rank_one_custom(("toric",)),
        ),
    ],
)
def test_dsl_reports_the_library_message_for_assumptions_and_flags(
    statement, library_call
):
    # the library alone decides which names a constructor takes, so the
    # row carries the library's own message for the same call
    with pytest.raises(DescriptorError) as exc:
        library_call(projective_space(3), _unknown_nef_threefold())
    report = evaluate(parse(_UNKNOWN_NEF + f"let X = {statement}\ncompute X\n"))
    (row,) = [r for r in report.rows if r.name == "X"]
    assert row.error == str(exc.value)
    assert row.interval is None and not row.internal


def test_an_anti_ample_branch_on_an_unknown_nef_cone_is_refused():
    # no pipeline asserts ampleness for its caller: without assume = [ample]
    # the cover is refused at admission, not found crossed after resolving
    program = (
        _UNKNOWN_NEF
        + "let X = pipeline_simple_variety(Y, branch = -S - F - E - H, d = 9)\n"
        "compute X\n"
    )
    report = evaluate(parse(program))
    (row,) = report.rows
    assert "must be asserted explicitly" in row.error
    assert not row.internal and row.interval is None


def test_a_relied_on_ample_shows_in_the_provenance():
    program = (
        _UNKNOWN_NEF
        + "let X = pipeline_simple_variety(Y, branch = S + 2*F - E + H, d = 9, "
        "assume = [ample])\ncompute X\n"
        "let Q = pipeline_simple_variety(P, branch = H, d = 6, assume = [ample])\n"
        "compute Q\n"
    )
    report = evaluate(parse(program))
    x, q = report.rows
    assert x.interval.exact and x.interval.lo == 0
    assert x.provenance[:3] == (
        "cyclic_cover(branch=S + 2*F - E + H, branch_coeffs=1,2,-1,1, degree=9)",
        "  assumes ample",
        "  assumes large_d",
    )
    # a known nef cone checks the class, so nothing is assumed
    assert q.provenance[1:3] == ("  assumes large_d", "  projective_space(n=3)")


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


def test_a_parameter_no_coercion_reads_is_refused():
    # the table is read from each function's parameters, so a constructor
    # with a parameter the coercion map does not name fails when it is built
    def mystery(surface, shade, assume=()):
        raise AssertionError("never called")

    with pytest.raises(TypeError, match="mystery: no DSL coercion for shade"):
        runner._constructor(mystery)
    # custom alone is passed its raw nodes
    raw = [
        name
        for name, ctor in runner._CONSTRUCTORS.items()
        if any(coerce is None for _, coerce in ctor.params)
    ]
    assert raw == ["custom"]


_ABELIAN_SQUARE = "let A = abelian(2)\nlet X = product(A, A{})\ncompute X\n"


def test_dsl_product_takes_the_library_assume():
    (plain,) = evaluate(parse(_ABELIAN_SQUARE.format(""))).rows
    assert str(plain.interval) == "[0, 11]" and plain.verified
    (gated,) = evaluate(
        parse(_ABELIAN_SQUARE.format(", assume = [no_common_isogeny_factor]"))
    ).rows
    assert str(gated.interval) == "[0, 2]" and gated.verified is True
    assert "product-combine" in [c.rule for c in gated.interval.certificates]
    assert "  assumes no_common_isogeny_factor" in gated.provenance
    (refused,) = evaluate(parse(_ABELIAN_SQUARE.format(", assume = [ample]"))).rows
    assert refused.error == (
        "product does not take assumption 'ample'; it takes no_common_isogeny_factor"
    )
    assert refused.interval is None and not refused.internal


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


def test_a_divisor_is_read_on_the_lattice_of_the_first_argument(monkeypatch):
    calls = _recording(monkeypatch, "pipeline_n3k1")
    report = evaluate(
        parse(
            "let S = delpezzo7()\n"
            "let Y = pipeline_n3k1(polarization = 3*H - E1 - E2, surface = S)\n"
            "compute Y\n"
        )
    )
    assert not report.any_failure
    ((surface, polarization),) = [(c["surface"], c["polarization"]) for c in calls]
    assert polarization.lattice is surface.lattice
    assert polarization.coeffs == (3, -1, -1)


def test_a_bare_name_is_the_divisor_of_one_term(monkeypatch):
    calls = _recording(monkeypatch, "hypersurface_section")
    report = evaluate(
        parse(
            "let P = projective_space(3)\n"
            "let A = hypersurface_section(P, ample = H, p = 5)\n"
            "let B = hypersurface_section(P, ample = 1*H, p = 5)\n"
            "let C = hypersurface_section(P, ample = E, p = 5)\n"
            "compute A\ncompute B\ncompute C\n"
        )
    )
    rows = {row.name: row for row in report.rows}
    assert rows["A"].error is None and rows["B"].error is None
    assert str(rows["A"].interval) == str(rows["B"].interval)
    assert [call["ample"].coeffs for call in calls] == [(1,), (1,)]
    assert rows["C"].error == (
        "type error at line 4, column 41: 'E' is not a basis name of this "
        "lattice\n  hint: basis names here: H"
    )


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
    desc = VarietyDescriptor._make(
        dimension=3,
        lattice=lat,
        form=IntersectionForm.from_entries(lat, 3, {(0, 0, 0): 1}),
        canonical=lat.make([3, 0]),
        nef=Cone(lat, ((-1, -2), (2, 3))),  # no interior point of sup-norm <= 4
        gg=ExactEqualsNef("toric: nef implies globally generated"),
        flags=frozenset({"toric"}),
        provenance=Provenance("custom"),
    )
    interval = resolve(desc)
    assert (interval.lo, interval.hi) == (3, 3)
    lower = next(c for c in interval.certificates if c.kind == LOWER)
    assert max(abs(x) for p in lower.witness_data()["tuple"] for x in p) > 4
    assert _oracle_disagrees(desc, interval, max_m=6) is None


def test_corpus_with_oracle_cap_still_green():
    report = corpus(max_m=6)
    assert not report.any_internal


@pytest.mark.parametrize(
    "run",
    [
        lambda: evaluate(parse("let X = projective_space(2)\ncompute X\n"), max_m=-3),
        lambda: corpus(max_m=-3),
    ],
    ids=["evaluate", "corpus"],
)
def test_a_negative_oracle_cap_is_refused(run):
    # a negative cap would turn the oracle off without a word
    with pytest.raises(ValueError, match="max_m must be at least 0, got -3"):
        run()


def _count_enumerated(monkeypatch) -> list[int]:
    """A one-item list counting the points ``lattice_points_by_shell``
    yields from now on.  The shape table starts empty, so no cone built
    from now on reads the blocks of a cone that other tests keep alive."""
    monkeypatch.setattr(cones, "_SHAPES", weakref.WeakValueDictionary())
    plain = cones.lattice_points_by_shell
    yielded = [0]

    def counted(rank, radius):
        for point in plain(rank, radius):
            yielded[0] += 1
            yield point

    monkeypatch.setattr(cones, "lattice_points_by_shell", counted)
    return yielded


def test_corpus_oracle_enumerates_few_lattice_points(monkeypatch):
    # the oracle enumerates only prefixes of each block's box, once per
    # shape and radius, and a product takes its factors' blocks; filtering
    # the whole box would yield over 15,000 points here, enumerating each
    # product cone whole about 900, and each product's blocks afresh 192
    yielded = _count_enumerated(monkeypatch)
    report = corpus()
    assert not report.any_failure
    assert 0 < yielded[0] <= 120


def _benchmark_program(seed: int) -> str:
    """The text of the benchmark's generated ``program`` workload."""
    path = pathlib.Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's annotations through sys.modules
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
        return workloads.generate_program(seed).text()
    finally:
        del sys.modules[spec.name]


def _reports(program) -> tuple[str, str, str]:
    """The corpus's JSON and markdown reports and ``program``'s JSON report."""
    report = corpus()
    return emit_json(report), emit_markdown(report), emit_json(evaluate(program))


def test_the_certificate_table_never_changes_an_answer(monkeypatch):
    program = parse(_benchmark_program(1))
    # reports read through the table, and with every certificate built afresh
    shared = _reports(program)
    monkeypatch.setattr(engine, "certificate", Certificate)
    assert _reports(program) == shared


def test_built_in_cones_are_admitted_without_the_linear_program(monkeypatch):
    # rank-1 cones are decided in closed form, F1 and dP7 supply their
    # admission data, and products embed their factors' data
    calls = []
    monkeypatch.setattr(cones, "_solve", lambda *args: calls.append(args))
    assert not corpus().any_failure
    assert not evaluate(parse(_benchmark_program(1))).any_failure
    assert calls == []


def test_oracle_splits_a_p1_power_into_rays(monkeypatch):
    # the box of P1^9 holds 4^9 interior points, its nine rays 4 each
    yielded = _count_enumerated(monkeypatch)
    lets = ["let a1 = projective_space(1)"]
    lets += [f"let a{k} = product(a{k - 1}, a1)" for k in range(2, 10)]
    report = evaluate(parse("\n".join(lets) + "\ncompute a9\n"))
    assert not report.any_failure
    [row] = report.rows
    assert str(row.interval) == "2" and row.verified
    assert 0 < yielded[0] <= 300


# ------------------------------------------------------------- emitters


def test_json_shape_and_round_trip():
    report = corpus()
    payload = json.loads(emit_json(report))
    assert payload["schema_version"] == REPORT_SCHEMA_VERSION
    assert len(payload["varieties"]) == 27
    table = payload["certificates"]
    for row_dict, row in zip(payload["varieties"], report.rows):
        assert row_dict["name"] == row.name
        certs = [Certificate.from_json_dict(table[i]) for i in row_dict["certificates"]]
        assert tuple(certs) == row.interval.certificates
        assert row_dict["interval"]["exact"] == row.interval.exact


@pytest.mark.parametrize("source", ["corpus", "atlas"])
def test_the_certificate_table_round_trips(source):
    if source == "corpus":
        report = corpus()
    else:
        report = evaluate(parse((GOLDEN_DIR / "atlas.fuj").read_text()), max_m=6)
    text = emit_json(report)
    payload = json.loads(text)
    table = payload["certificates"]
    ids = [i for row in payload["varieties"] for i in row["certificates"]]
    # every id is in range, and the table names each certificate once
    assert all(type(i) is int and 0 <= i < len(table) for i in ids)
    assert len({json.dumps(entry, sort_keys=True) for entry in table}) == len(table)
    # ids first appear in order: 0, 1, 2, ...
    assert list(dict.fromkeys(ids)) == list(range(len(table)))
    held = set()
    for row_dict, row in zip(payload["varieties"], report.rows, strict=True):
        certs = tuple(Certificate.from_json_dict(table[i]) for i in row_dict["certificates"])
        assert certs == (row.interval.certificates if row.interval else ())
        held.update(certs)
    assert len(held) == len(table) > 0
    # each entry is written once in the text
    assert text.count('"citation":') == len(table)


def _assert_stdlib_layout(text):
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_emit_json_has_the_stdlib_layout():
    _assert_stdlib_layout(emit_json(corpus()))
    shared = evaluate(
        parse(
            _SHARED + "compute A\ncompute B\nassert_confn AA = 4\nassert_confn BB = 4\n"
        )
    )
    assert not shared.any_failure
    _assert_stdlib_layout(emit_json(shared))
    # a failing let, a failing assertion and a timestamp
    failing = evaluate(
        parse(
            _SHARED + "let C = abelian(0)\ncompute A\nassert_confn B = 5\n"
            "assert_confn AA = 4\ncompute BB\ncompute C\n"
        )
    )
    errors = [row.name for row in failing.rows if row.error is not None]
    assert errors == ["C"] and failing.any_failure
    stamped = emit_json(failing, timestamps=True)
    assert '"generated_at"' in stamped
    _assert_stdlib_layout(stamped)


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
