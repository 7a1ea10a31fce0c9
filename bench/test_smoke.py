"""Smoke test of the benchmark harness, kept out of the tier-1 suite.

    python -m pytest bench/test_smoke.py -q

It checks that the generators still produce programs confn evaluates to
their closed-form values, that the tracer reaches every binding and its
self times add up, and that ``run.py`` still prints a well-formed result
for every metric named in BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402
from confn import dsl, engine, runner  # noqa: E402


def _evaluate(workload) -> workloads.Tally:
    report = runner.evaluate(
        dsl.parse(workload.text), radius=workload.radius, max_m=workload.max_m
    )
    return workloads.check_report(workload, json.loads(runner.emit_json(report)))


def test_program_generator_is_seeded_and_matches_closed_forms():
    small = workloads.generate_program(7, statements=90)
    assert small.statements == 90
    assert small.text() == workloads.generate_program(7, statements=90).text()
    assert small.text() != workloads.generate_program(8, statements=90).text()
    workload = workloads.Workload("program", small.text(), small.expected, 16, 6)
    tally = _evaluate(workload)
    assert tally.unexpected == []
    assert (tally.attempted, tally.failed) == (len(small.expected), 0)


def test_left_deep_chain_is_the_only_tolerated_failure():
    prog = workloads.ProgramText()
    workloads.left_deep_chain(prog)
    workload = workloads.Workload("towers", prog.text(), prog.expected, 16, 0)
    tally = _evaluate(workload)
    assert tally.unexpected == []
    assert (tally.attempted, tally.failed) == (2, 1)
    wrong = dict(prog.expected, chain_3=workloads.exact(3))
    tally = _evaluate(workloads.Workload("towers", prog.text(), wrong, 16, 0))
    assert len(tally.unexpected) == 1


def test_tracer_reaches_every_binding_and_adds_up():
    original = engine.resolve
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.escapes() == []
        report = runner.corpus()
        runner.emit_json(report)
    finally:
        tracer.uninstall()
    assert engine.resolve is original
    spans, points = tracer.take()
    pass_s = max(end for _, _, _, end, _ in spans) - min(s for _, _, s, _, _ in spans)
    assert tracing.accounting_problem(spans, pass_s) is None
    layers = tracing.pass_layers(spans, points, len(report.rows))
    assert layers["cones.oracle_calls"] > 0
    assert layers["engine.resolve_calls"] >= len(report.rows)
    assert points > 0


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_run_reports_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        done = _run(ROOT, "--workload", "corpus", "--seed", "1",
                    "--seconds", "0.5", "--trace", trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in spec[key]}
        for metric in spec[key]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "corpus", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert not done.stdout.strip()
