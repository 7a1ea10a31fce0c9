"""End-to-end CLI behavior: exit codes, formats, stdin, explain."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from confn.cli import main

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


def test_eval_missing_file_exits_2(tmp_path, capsys):
    code, _, err = _run_main(["eval", str(tmp_path / "nope.fuj")], capsys)
    assert code == 2
    assert "cannot read" in err


def test_failed_reverification_exits_3(monkeypatch, capsys):
    import dataclasses

    from confn import engine

    monkeypatch.setitem(
        engine._RULES,
        "curve-genus",
        dataclasses.replace(
            engine._RULES["curve-genus"], verify=lambda desc, cert: False
        ),
    )
    code, out, _err = _run_main(["corpus"], capsys)
    assert code == 3
    assert "a certificate failed independent re-verification" in out


def test_statement_error_exits_1(tmp_path, capsys):
    path = tmp_path / "err.fuj"
    path.write_text("let X = abelian(0)\ncompute X")
    code, out, _ = _run_main(["eval", str(path)], capsys)
    assert code == 1
    assert "## errors" in out


def test_bogus_format_exits_2(tmp_path, capsys):
    path = tmp_path / "good.fuj"
    path.write_text(GOOD)
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--format", "yaml", str(path)])
    assert exc.value.code == 2


def test_json_format(tmp_path, capsys):
    path = tmp_path / "good.fuj"
    path.write_text(GOOD)
    code, out, _ = _run_main(["eval", "--format", "json", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == "1"
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "corpus", "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert len(payload["varieties"]) == 27
