"""The README's lists of rules and constructors match the code."""

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
