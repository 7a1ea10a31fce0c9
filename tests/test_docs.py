"""The README's lists of rules and constructors match the code, and its
examples run."""

import inspect
import pathlib
import re

from confn import dsl, engine, runner

README = pathlib.Path(__file__).parent.parent / "README.md"


def _listed_after(heading: str) -> set[str]:
    """The backticked names in the README sentence that starts with ``heading``."""
    text = " ".join(README.read_text().split())
    start = text.index(heading) + len(heading)
    sentence = text[start : text.index(". ", start)]
    return set(re.findall(r"`([^`]+)`", sentence))


def test_readme_rules_match_the_rule_table():
    assert _listed_after("Rules that can appear:") == set(engine._RULES)


def test_readme_constructors_match_the_dsl():
    assert _listed_after("Available constructors:") == set(dsl.CONSTRUCTORS)


def test_every_dsl_constructor_has_a_handler():
    assert tuple(runner._CONSTRUCTORS) == dsl.CONSTRUCTORS


def test_each_constructor_takes_its_library_function_parameters():
    # a let passes its arguments to the named function as keywords, so the
    # DSL names lead the function's positional parameters, in order, and
    # the required ones are exactly those without a default
    for name, ctor in runner._CONSTRUCTORS.items():
        signature = inspect.signature(getattr(runner, ctor.function))
        params = [
            p for p in signature.parameters.values() if p.kind is p.POSITIONAL_OR_KEYWORD
        ]
        dsl_names = [p for p, _ in ctor.params]
        assert [p.name for p in params[: len(dsl_names)]] == dsl_names, name
        defaults = [p.default is not p.empty for p in params]
        assert defaults == [i >= ctor.required for i in range(len(params))], name


def test_readme_constructor_signatures_match_the_table():
    listed = re.findall(r"^- `(\w+)\(([^)]*)\)`$", README.read_text(), re.M)
    table = [
        (
            name,
            ", ".join(
                p if i < ctor.required else f"[{p}]"
                for i, (p, _) in enumerate(ctor.params)
            ),
        )
        for name, ctor in runner._CONSTRUCTORS.items()
    ]
    assert listed == table


def _block_after(marker: str) -> str:
    """The first fenced block of the README after ``marker``."""
    text = README.read_text()
    start = text.index("\n", text.index("```", text.index(marker))) + 1
    return text[start : text.index("```", start)]


def test_readme_library_example_runs():
    exec(compile(_block_after("## Library use"), "README.md", "exec"), {})


def test_readme_sample_program_evaluates():
    report = runner.evaluate(dsl.parse(_block_after("A small program:")))
    assert [r.name for r in report.rows] == ["dP7", "X"]
    assert not report.any_failure and not report.any_internal
    assert all(r.verified and r.assertions for r in report.rows)


def test_readme_atlas_matches_the_atlas_report():
    report = (README.parent / "tests" / "golden" / "atlas.md").read_text()
    realized: dict[tuple[str, int], set[int]] = {}
    for name, dim, value in re.findall(
        r"^\| (n\dm\d_\w+) \| (\d+) \| \d+ \| (\d+) \| [^|]+ \| PASS \|$", report, re.M
    ):
        realized.setdefault((name.rsplit("_", 1)[1], int(dim)), set()).add(int(value))
    assert sum(map(len, realized.values())) == report.count("| PASS |")

    text = README.read_text()
    section = text[text.index("## The atlas") : text.index("## Library use")]
    assert "| π₁ source | n | realized m | not realized by these constructors |" in section
    assert "impossible" not in section
    listed = {}
    for source, n, shown, missing in re.findall(
        r"^\| [^|`]*`(\w+)`\) \| (\d+) \| ([\d, ]+) \| ([\d, ]+|none) \|$", section, re.M
    ):
        shown = {int(m) for m in shown.split(", ")}
        missing = set() if missing == "none" else {int(m) for m in missing.split(", ")}
        # every m from 0 to n + 1 is either realized or said not to be
        assert shown.isdisjoint(missing) and shown | missing == set(range(int(n) + 2))
        listed[(source, int(n))] = shown
    assert listed == realized
