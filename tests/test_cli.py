"""End-to-end CLI behavior: exit codes, formats, stdin, explain."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from confn import cones
from confn.cli import main
from confn.constructions import product
from confn.descriptors import del_pezzo7, hirzebruch1, projective_space
from confn.dsl import parse
from confn.runner import emit_json, evaluate

GOOD = """\
let X = projective_space(3)
compute X
assert_confn X = 4
"""

FAILING = """\
let X = projective_space(3)
assert_confn X = 5
"""

BROKEN = "let X = projective_space(3"

REPO_ROOT = Path(__file__).resolve().parent.parent


def _run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_pass(tmp_path, capsys):
    path = tmp_path / "good.fuj"
    path.write_text(GOOD)
    code, out, err = _run_main(["eval", str(path)], capsys)
    assert code == 0
    assert "| X | 3 | 1 | 4 |" in out
    assert err == ""


def test_eval_assertion_failure_exits_1(tmp_path, capsys):
    path = tmp_path / "fail.fuj"
    path.write_text(FAILING)
    code, out, _ = _run_main(["eval", str(path)], capsys)
    assert code == 1
    assert "FAIL (expected 5, got 4)" in out


def test_eval_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.fuj"
    path.write_text(BROKEN)
    code, out, err = _run_main(["eval", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "syntax error" in err


def test_eval_non_decimal_digit_exits_2(tmp_path, capsys):
    path = tmp_path / "superscript.fuj"
    path.write_text("let P = projective_space(\u00b2)\ncompute P\n", encoding="utf-8")
    code, out, err = _run_main(["eval", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "unexpected character '\u00b2'" in err
    assert "Traceback" not in err


def test_eval_empty_interval_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.fuj"
    path.write_text("let X = projective_space(3)\nassert_confn X in [3, 1]\n")
    code, out, err = _run_main(["eval", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "the lower end 3 exceeds the upper end 1" in err


def test_eval_missing_file_exits_2(tmp_path, capsys):
    code, _, err = _run_main(["eval", str(tmp_path / "nope.fuj")], capsys)
    assert code == 2
    assert "cannot read" in err


def test_failed_reverification_exits_3(monkeypatch, capsys):
    from confn import engine

    rule = engine._RULES["curve-genus"]
    monkeypatch.setitem(
        engine._RULES,
        "curve-genus",
        engine.Rule(rule.id, rule.derive, lambda desc, cert: False),
    )
    code, out, _err = _run_main(["corpus"], capsys)
    assert code == 3
    assert "a certificate failed independent re-verification" in out


def test_cone_error_in_a_rule_is_internal(monkeypatch, tmp_path, capsys):
    from confn import engine
    from confn.cones import ConeError
    from confn.dsl import parse
    from confn.runner import evaluate

    def broken(desc):
        raise ConeError("internal sharpness check failed")

    # an admitted descriptor reaches resolve, so the error is the engine's
    rule = engine._RULES["toric-adjoint"]
    monkeypatch.setitem(
        engine._RULES, "toric-adjoint", engine.Rule(rule.id, broken, rule.verify)
    )
    report = evaluate(parse(GOOD))
    (row,) = report.rows
    assert row.internal and report.any_internal
    assert "internal sharpness check failed" in row.error
    path = tmp_path / "good.fuj"
    path.write_text(GOOD)
    code, _out, _err = _run_main(["eval", str(path)], capsys)
    assert code == 3


def test_statement_error_exits_1(tmp_path, capsys):
    ample = "but an ample class needs a positive one"
    cases = [
        ("abelian(0)", "abelian varieties have dimension >= 1"),
        # a zero form is refused before the nef cone is looked at
        (
            "custom(dimension = 2, basis = [H], gram = [[0]], canonical = 0*H, "
            "nef = [[1]])",
            "every intersection number is 0, but an ample class has a positive "
            "top self-intersection",
        ),
        # an interior class of a nef cone is ample, so its top power is positive
        (
            "custom(dimension = 2, basis = [H], gram = [[-2]], canonical = 0*H, "
            "nef = [[1]])",
            f"the nef cone's interior class H has top self-intersection -2, {ample}",
        ),
        (
            "custom(dimension = 3, basis = [H], gram = [[-1]], canonical = 0*H, "
            "nef = [[1]])",
            f"the nef cone's interior class H has top self-intersection -1, {ample}",
        ),
    ]
    for statement, message in cases:
        path = tmp_path / "err.fuj"
        path.write_text(f"let X = {statement}\ncompute X")
        code, out, _ = _run_main(["eval", str(path)], capsys)
        assert code == 1
        assert f"## errors\n\n- **X**: {message}\n" in out


def test_bogus_format_exits_2(tmp_path, capsys):
    path = tmp_path / "good.fuj"
    path.write_text(GOOD)
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--format", "yaml", str(path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [["eval", "-"], ["corpus"]], ids=["eval", "corpus"])
def test_a_negative_max_m_is_a_usage_error(command, capsys):
    # a negative cap would silently turn the oracle off
    with pytest.raises(SystemExit) as exc:
        main([*command, "--max-m", "-3"])
    assert exc.value.code == 2
    assert "argument --max-m: must be 0 or more, not -3" in capsys.readouterr().err


CAPPED = """\
let P1 = projective_space(1)
let P2 = projective_space(2)
let F1 = hirzebruch1()
let dP7 = delpezzo7()
let A = product(F1, P1)
let B = product(dP7, P1)
compute A
compute B
compute P2
"""


def _checkout_env() -> dict:
    """The environment with this checkout's ``src/`` first on the path, so
    a child process never imports a ``confn`` from elsewhere."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def test_the_oracle_check_does_not_depend_on_the_caps_before_it(monkeypatch):
    # the kept descriptors hold every shape of the program alive, so any
    # answer filed on a shape under one cap is there for the next
    p1 = projective_space(1)
    kept = [product(hirzebruch1(), p1), product(del_pezzo7(), p1), projective_space(2)]
    searches = []
    plain = cones.brute_force_refute

    def counted(*args, **kwargs):
        searches.append(args[2])
        return plain(*args, **kwargs)

    monkeypatch.setattr(cones, "brute_force_refute", counted)
    # A and B have value 2 and P2 has 3: each check searches one summand
    # below the value and at it
    for max_m, wanted in ((0, []), (2, [1, 2, 1, 2]), (6, [1, 2, 1, 2, 2, 3])):
        searches.clear()
        in_process = emit_json(evaluate(parse(CAPPED), max_m=max_m))
        assert searches == wanted, max_m
        fresh = subprocess.run(
            [sys.executable, "-m", "confn.cli", "eval", "-", "--max-m", str(max_m)]
            + ["--format", "json"],
            input=CAPPED,
            capture_output=True,
            text=True,
            env=_checkout_env(),
        )
        assert fresh.returncode == 0, fresh.stderr
        assert fresh.stdout == in_process, max_m
    assert all(desc.nef._shape.memo for desc in kept)


def test_json_format(tmp_path, capsys):
    path = tmp_path / "good.fuj"
    path.write_text(GOOD)
    code, out, _ = _run_main(["eval", "--format", "json", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == "2"
    assert payload["varieties"][0]["interval"] == {"lo": 4, "hi": 4, "exact": True}


def test_corpus_subcommand(capsys):
    code, out, _ = _run_main(["corpus"], capsys)
    assert code == 0
    assert "| simple_variety |" in out


def test_corpus_deterministic(capsys):
    code1, out1, _ = _run_main(["corpus", "--format", "json"], capsys)
    code2, out2, _ = _run_main(["corpus", "--format", "json"], capsys)
    assert (code1, code2) == (0, 0)
    assert out1 == out2


def test_explain_single_variety(tmp_path, capsys):
    path = tmp_path / "good.fuj"
    path.write_text(GOOD)
    code, out, _ = _run_main(["explain", "--variety", "X", str(path)], capsys)
    assert code == 0
    assert "convex Fujita number 4 (exact)" in out
    assert "toric-adjoint" in out


def test_explain_unknown_variety_exits_2(tmp_path, capsys):
    path = tmp_path / "good.fuj"
    path.write_text(GOOD)
    code, _, err = _run_main(["explain", "--variety", "Z", str(path)], capsys)
    assert code == 2
    assert "no computed variety" in err


def test_stdin_eval():
    proc = subprocess.run(
        [sys.executable, "-m", "confn.cli", "eval", "-"],
        input=GOOD,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "| X | 3 | 1 | 4 |" in proc.stdout


def test_byte_order_mark_in_a_file_is_skipped(tmp_path, capsys):
    path = tmp_path / "bom.fuj"
    path.write_bytes(b"\xef\xbb\xbf" + GOOD.encode("utf-8"))
    code, out, err = _run_main(["eval", str(path)], capsys)
    assert (code, err) == (0, "")
    assert "| X | 3 | 1 | 4 |" in out


def test_byte_order_mark_on_stdin_is_skipped(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeff" + GOOD))
    code, out, err = _run_main(["eval", "-"], capsys)
    assert (code, err) == (0, "")
    assert "| X | 3 | 1 | 4 |" in out


def _declared_console_script(name):
    """Return (module, attribute) of ``[project.scripts].<name>`` in pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"][name]
    module, _, attr = spec.partition(":")
    return module.strip(), attr.strip()


def test_installed_entry_point_runs_corpus():
    """The declared ``confn`` console script runs the corpus in a fresh process.

    The callable is read from ``[project.scripts]`` in this repository's
    pyproject.toml and started the way the setuptools-generated wrapper starts
    it: import it, call it with no arguments, and exit with its return value.
    The child imports this checkout's ``src/`` first, so the test needs no
    install and never runs a ``confn`` from some other checkout on PATH. What
    it does not check is setuptools writing the wrapper file itself.
    """
    module, attr = _declared_console_script("confn")
    launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "corpus", "--format", "json"],
        capture_output=True,
        text=True,
        env=_checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert len(payload["varieties"]) == 27


_ANTI_AMPLE_COVER = (
    "let F1 = hirzebruch1()\nlet B = blowup_point(F1)\nlet P1 = projective_space(1)\n"
    "let Y = product(B, P1)\n"
)


@pytest.mark.parametrize(
    "statement, stated",
    [
        # crossed when the row is computed, as below, but the pipeline's
        # own large_d is not the caller's, so only 'ample' is named
        (
            "pipeline_simple_variety(Y, branch = -S - F - E - H, d = 9, assume = [ample])",
            "'ample'",
        ),
        # crossed when the row is computed
        (
            "cyclic_cover(Y, branch = -S - F - E - H, degree = 9, assume = [ample, large_d])",
            "'ample', 'large_d'",
        ),
    ],
    ids=["pipeline", "cover"],
)
def test_a_crossed_interval_refutes_a_stated_assumption(
    statement, stated, tmp_path, capsys
):
    from confn.dsl import parse
    from confn.runner import evaluate

    # the branch class is anti-ample, so the caller's word that it is
    # ample does not hold on a parent whose nef cone is unknown
    program = _ANTI_AMPLE_COVER + f"let X = {statement}\ncompute X\n"
    report = evaluate(parse(program))
    (row,) = report.rows
    assert row.error.startswith(
        f"a stated assumption does not hold ({stated}): crossed interval"
    )
    assert not row.internal and not report.any_internal
    path = tmp_path / "cover.fuj"
    path.write_text(program)
    code, out, _err = _run_main(["eval", str(path)], capsys)
    assert code == 1
    assert f"a stated assumption does not hold ({stated}): crossed interval" in out


@pytest.mark.parametrize(
    "parent, statement",
    [
        # the constructor records pic_pullback_iso on its own ground
        ("projective_space(4)", "cyclic_cover(Y, branch = H, degree = 7)"),
        # the pipeline vouches for effective_nl; the caller states nothing
        ("hirzebruch1()", "pipeline_n3k1(Y, polarization = S + 2*F)"),
        # the pipeline's large_d default, with no assume from the caller
        ("projective_space(3)", "pipeline_simple_variety(Y, branch = H, d = 6)"),
    ],
    ids=["cover", "n3k1", "simple-variety"],
)
def test_a_crossed_interval_with_no_stated_assumption_is_internal(
    parent, statement, monkeypatch, tmp_path, capsys
):
    from confn import engine
    from confn.certificates import LOWER, Certificate
    from confn.dsl import parse
    from confn.runner import evaluate

    # a rule gone wrong on covers: their recorded assumptions are not the
    # caller's, so the fault is the engine's
    rule = engine._RULES["not-nef-witness"]

    def forced(desc):
        if desc.provenance.constructor != "cyclic_cover":
            return rule.derive(desc)
        return [Certificate(LOWER, rule.id, 10, "forced")]

    monkeypatch.setitem(
        engine._RULES, "not-nef-witness", engine.Rule(rule.id, forced, rule.verify)
    )
    program = f"let Y = {parent}\nlet X = {statement}\ncompute X\n"
    report = evaluate(parse(program))
    (row,) = report.rows
    assert row.error.startswith("internal inconsistency: crossed interval")
    assert row.internal
    path = tmp_path / "cover.fuj"
    path.write_text(program)
    code, _out, _err = _run_main(["eval", str(path)], capsys)
    assert code == 3
