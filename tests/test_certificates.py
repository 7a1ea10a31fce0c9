"""Certificate data shape and its serialization, alone and in the report.

``render_json`` must lay values out exactly as ``json.dumps(value,
indent=2)`` does; the report built from it is compared here with the
payload builder that used ``json.dumps`` directly.
"""

import datetime
import json
import types

import pytest
from hypothesis import given, settings, strategies as st

from confn import runner
from confn.certificates import (
    LOWER,
    SCHEMA_VERSION,
    UPPER,
    Certificate,
    dumps_certificates,
    make_certificate,
    render_json,
)
from confn.dsl import parse
from confn.runner import Report, corpus, emit_json, evaluate


def test_schema_version_pinned():
    assert SCHEMA_VERSION == "1"


def test_kind_and_value_validated():
    with pytest.raises(ValueError):
        make_certificate("sideways", "r", 1, "c")
    with pytest.raises(ValueError):
        make_certificate(UPPER, "r", -1, "c")


def test_witness_frozen_and_hashable():
    cert = make_certificate(
        UPPER,
        "exact-threshold",
        3,
        "toric adjoint freeness",
        premises=("toric",),
        witness={"m_star": 3, "per_functional": [{"index": 0, "value": 4}]},
    )
    hash(cert)  # dataclass stays hashable after freezing the dict
    data = cert.witness_data()
    assert data["m_star"] == 3
    assert data["per_functional"][0]["index"] == 0
    # mutating the thawed copy does not touch the certificate
    data["m_star"] = 99
    assert cert.witness_data()["m_star"] == 3


def test_witness_rejects_unserializable_payload():
    with pytest.raises(TypeError):
        make_certificate(UPPER, "r", 1, "c", witness={"bad": object()})


def test_witness_rejects_floats_and_non_string_keys():
    with pytest.raises(TypeError):
        make_certificate(UPPER, "r", 1, "c", witness={"x": 0.5})
    with pytest.raises(TypeError):
        make_certificate(UPPER, "r", 1, "c", witness={1: "non-string key"})


def test_witness_keeps_empty_lists_and_lists_of_pairs():
    witness = {"k": [], "pairs": [["a", 1], ["b", 2]]}
    cert = make_certificate(UPPER, "r", 1, "c", witness=witness)
    assert cert.witness_data() == witness
    assert json.loads(dumps_certificates([cert]))[0]["witness"] == witness


def test_witness_bool_stays_distinct_from_int():
    flag = make_certificate(UPPER, "r", 1, "c", witness={"f": True})
    one = make_certificate(UPPER, "r", 1, "c", witness={"f": 1})
    assert flag != one
    assert len({flag, one}) == 2
    text = dumps_certificates([flag, one])
    assert '"f": true' in text and '"f": 1' in text


def test_json_round_trip():
    cert = make_certificate(
        LOWER,
        "not-nef-witness",
        2,
        "an adjoint that meets an effective class negatively is not nef",
        premises=("known_effective",),
        witness={
            "effective_class": "E",
            "pairing": -1,
            "tuple": [[1, 0], [0, 1]],
            "flag": True,
            "missing": None,
        },
    )
    back = Certificate.from_json_dict(json.loads(json.dumps(cert.to_json_dict())))
    assert back == cert


def test_dumps_is_deterministic_json():
    certs = [
        make_certificate(UPPER, "a", 1, "c1", witness={"k": [1, 2]}),
        make_certificate(LOWER, "b", 0, "c2"),
    ]
    text = dumps_certificates(certs)
    assert text == dumps_certificates(list(certs))
    parsed = json.loads(text)
    assert [p["rule"] for p in parsed] == ["a", "b"]
    assert parsed[0]["witness"] == {"k": [1, 2]}
    assert parsed[1]["witness"] == {}


def test_empty_witness_normalizes_to_empty_dict():
    cert = make_certificate(UPPER, "r", 1, "c")
    assert cert.witness_data() == {}
    assert cert.to_json_dict()["witness"] == {}


# ------------------------------------------------- layout against the stdlib

_TRICKY = '"\\/\n\r\t\b\f\x00\x01\x1f\x7f\u2028\ud800\U0001f600'
_strings = st.text(
    st.one_of(st.characters(exclude_categories=()), st.sampled_from(_TRICKY))
)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**130), max_value=2**130),
    _strings,
)
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_strings, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_values)
def test_render_json_matches_the_stdlib_layout(value):
    assert render_json(value) == json.dumps(value, indent=2)


def test_render_json_matches_the_stdlib_at_the_edges():
    for value in ([], {}, [[]], {"a": {}}, [True, 1, False, 0, None], 2**64, -(2**64)):
        assert render_json(value) == json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        render_json([1.5])


def test_a_repeated_certificate_renders_alike_at_every_depth():
    cert = make_certificate(UPPER, "a", 1, "c1", witness={"k": [1, [2, "\u00e9"]]})
    other = make_certificate(LOWER, "b", 0, "c2")
    value = {"top": cert, "nested": [[cert, other], {"again": cert}], "last": cert}
    as_dicts = {
        "top": cert.to_json_dict(),
        "nested": [
            [cert.to_json_dict(), other.to_json_dict()],
            {"again": cert.to_json_dict()},
        ],
        "last": cert.to_json_dict(),
    }
    assert render_json(value) == json.dumps(as_dicts, indent=2)


def test_dumps_certificates_matches_the_stdlib_on_the_corpus():
    certs = [
        c for row in corpus().rows if row.interval for c in row.interval.certificates
    ]
    expected = json.dumps([c.to_json_dict() for c in certs], indent=2)
    assert dumps_certificates(certs) == expected
    assert dumps_certificates(iter(certs)) == expected
    assert dumps_certificates([]) == "[]"


# the report as it was built before render_json: the reference layout


def _reference_row(row):
    interval = row.interval
    return {
        "name": row.name,
        "dimension": row.dimension,
        "picard_rank": row.picard_rank,
        "interval": (
            None
            if interval is None
            else {"lo": interval.lo, "hi": interval.hi, "exact": interval.exact}
        ),
        "certificates": [
            c.to_json_dict() for c in (interval.certificates if interval else ())
        ],
        "advisories": list(interval.advisories) if interval else [],
        "notes": list(row.notes),
        "provenance": list(row.provenance),
        "assertions": [
            {"expected": a.expected, "actual": a.actual, "passed": a.passed}
            for a in row.assertions
        ],
        "error": row.error,
        "verified": row.verified,
    }


def _reference_json(report, generated_at=None):
    payload = {
        "schema_version": runner.REPORT_SCHEMA_VERSION,
        "varieties": [_reference_row(r) for r in report.rows],
    }
    if generated_at is not None:
        payload["generated_at"] = generated_at
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize(
    "program",
    [
        "",
        # the let fails: a null interval, no certificates, null verified
        "let B = abelian(0)\ncompute B\nassert_confn B = 1\n",
        "let X = projective_space(3)\nassert_confn X = 5\n",
        # a non-ASCII name and an interval with advisories
        "let \u00c4 = hirzebruch1()\ncompute \u00c4\nassert_confn \u00c4 = 2\n",
    ],
    ids=["empty", "failed-let", "failing-assertion", "non-ascii"],
)
def test_emit_json_matches_the_reference_payload(program):
    report = evaluate(parse(program))
    assert emit_json(report) == _reference_json(report)


def test_emit_json_matches_the_reference_on_the_corpus():
    report = corpus()
    assert emit_json(report) == _reference_json(report)
    assert emit_json(Report()) == '{\n  "schema_version": "1",\n  "varieties": []\n}\n'


def test_emit_json_renders_each_distinct_certificate_once(monkeypatch):
    report = evaluate(
        parse(
            "let A = projective_space(2)\nlet B = projective_space(2)\n"
            "compute A\ncompute B\n"
        )
    )
    certs = [c for row in report.rows for c in row.interval.certificates]
    assert len(set(certs)) < len(certs) and len({id(c) for c in certs}) == len(certs)
    rendered = []
    plain = Certificate.to_json_dict
    monkeypatch.setattr(
        Certificate, "to_json_dict", lambda c: rendered.append(c) or plain(c)
    )
    assert emit_json(report) == _reference_json(report)
    assert len(rendered) == len(set(certs)) + len(certs)  # the reference renders all


def test_emit_json_timestamp_matches_the_reference(monkeypatch):
    instant = datetime.datetime(
        2024, 2, 29, 12, 30, 5, 123456, tzinfo=datetime.timezone.utc
    )

    class _Fixed(datetime.datetime):
        @classmethod
        def now(cls, tz=None):
            return instant

    monkeypatch.setattr(
        runner,
        "datetime",
        types.SimpleNamespace(datetime=_Fixed, timezone=datetime.timezone),
    )
    report = evaluate(parse("let X = projective_space(2)\ncompute X\n"))
    stamped = emit_json(report, timestamps=True)
    assert stamped == _reference_json(report, generated_at=instant.isoformat())
    assert stamped.endswith('  "generated_at": "2024-02-29T12:30:05.123456+00:00"\n}\n')
