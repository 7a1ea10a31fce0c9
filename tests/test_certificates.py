"""Certificate data shape and its serialization, alone and in the report.

``render_json`` must lay values out exactly as ``json.dumps(value,
indent=2)`` does; the report built from it is compared here with a
payload builder that uses ``json.dumps`` directly.
"""

import datetime
import gc
import json
import sys
import types

import pytest
from hypothesis import given, settings, strategies as st

from confn import certificates, runner
from confn.certificates import (
    LOWER,
    UPPER,
    Certificate,
    certificate,
    dumps_certificates,
    render_json,
)
from confn.dsl import parse
from confn.engine import FujitaInterval
from confn.runner import Report, corpus, emit_json, evaluate


def test_schema_version_pinned():
    # one constant names the report's schema
    assert runner.REPORT_SCHEMA_VERSION == "3"
    assert not hasattr(certificates, "SCHEMA_VERSION")


def test_kind_and_value_validated():
    with pytest.raises(ValueError):
        Certificate("sideways", "r", 1, "c")
    with pytest.raises(ValueError):
        Certificate(UPPER, "r", -1, "c")
    # a bool compares equal to 0 or 1, but is not a bound
    for value in (True, False, 1.0, "1"):
        with pytest.raises(TypeError, match=f"not {type(value).__name__}"):
            Certificate(UPPER, "r", value, "c")
    data = Certificate(UPPER, "r", 1, "c").to_json_dict()
    with pytest.raises(TypeError, match="not bool"):
        Certificate.from_json_dict({**data, "value": True})
    # a rule and a citation are strings
    for name in ("rule", "citation"):
        for bad in (5, None, b"r", ["r"]):
            with pytest.raises(TypeError, match=f"{name} is a str, not {type(bad).__name__}"):
                Certificate.from_json_dict({**data, name: bad})
    # a string is not the premises its characters spell
    for bad in ("abc", None, {"a": 1}, 5):
        with pytest.raises(TypeError, match=f"premises are a list of str, not {type(bad).__name__}"):
            Certificate(UPPER, "r", 1, "c", premises=bad)
        with pytest.raises(TypeError, match="premises are a list of str"):
            Certificate.from_json_dict({**data, "premises": bad})
        with pytest.raises(TypeError, match="premises are a list of str"):
            certificate(UPPER, "r", 1, "c", premises=bad)
    with pytest.raises(TypeError, match="premise is a str, not int"):
        Certificate.from_json_dict({**data, "premises": ["p", 1]})
    # a witness that is not an object is refused, not read as {}
    for bad in ([], "", 0, False, None):
        with pytest.raises(TypeError, match=f"witness is a dict of JSON data, not {type(bad).__name__}"):
            Certificate.from_json_dict({**data, "witness": bad})
    # every key, and no other
    for key in data:
        with pytest.raises(ValueError, match=f"missing \\['{key}'\\], unknown \\[\\]"):
            Certificate.from_json_dict({k: v for k, v in data.items() if k != key})
    with pytest.raises(ValueError, match="missing \\[\\], unknown \\['parents'\\]"):
        Certificate.from_json_dict({**data, "parents": []})
    with pytest.raises(TypeError, match="a JSON object, not list"):
        Certificate.from_json_dict(list(data.items()))
    assert Certificate.from_json_dict(data) == Certificate(UPPER, "r", 1, "c")


def test_a_certificate_is_filed_under_its_whole_content(monkeypatch):
    monkeypatch.setattr(certificates, "_TABLE", type(certificates._TABLE)())
    fields = (UPPER, "r", 1, "c", ("p", "q"), {"w": [1, 2], "x": "y"})
    held = [certificate(*fields)]
    # equal fields, premises as a list, are the one live certificate
    assert certificate(UPPER, "r", 1, "c", ["p", "q"], {"w": [1, 2], "x": "y"}) is held[0]
    changed = [
        (LOWER, "r", 1, "c", ("p", "q"), {"w": [1, 2], "x": "y"}),
        (UPPER, "s", 1, "c", ("p", "q"), {"w": [1, 2], "x": "y"}),
        (UPPER, "r", 2, "c", ("p", "q"), {"w": [1, 2], "x": "y"}),
        (UPPER, "r", 1, "d", ("p", "q"), {"w": [1, 2], "x": "y"}),
        (UPPER, "r", 1, "c", ("p", "z"), {"w": [1, 2], "x": "y"}),
        (UPPER, "r", 1, "c", ("p", "q"), {"w": [1, 3], "x": "y"}),
        # True == 1, but the key tells them apart
        (UPPER, "r", 1, "c", ("p", "q"), {"w": [1, True], "x": "y"}),
    ]
    for other in changed:
        cert = certificate(*other)
        assert cert != held[0] and cert == Certificate(*other), other
        held.append(cert)
    assert len(certificates._TABLE) == len(held)
    # an int-valued certificate is alive, and a bool value still misses
    with pytest.raises(TypeError, match="not bool"):
        certificate(UPPER, "r", True, "c", ("p", "q"), {"w": [1, 2], "x": "y"})
    # the table holds no certificate of its own
    del held, cert
    gc.collect()
    assert len(certificates._TABLE) == 0


def test_witness_frozen_and_hashable():
    cert = Certificate(
        UPPER,
        "exact-threshold",
        3,
        "toric adjoint freeness",
        premises=("toric",),
        witness={"m_star": 3, "per_functional": [{"index": 0, "value": 4}]},
    )
    hash(cert)  # stays hashable after freezing the dict
    data = cert.witness_data()
    assert data["m_star"] == 3
    assert data["per_functional"][0]["index"] == 0
    # mutating the thawed copy does not touch the certificate
    data["m_star"] = 99
    assert cert.witness_data()["m_star"] == 3


def test_witness_rejects_unserializable_payload():
    with pytest.raises(TypeError):
        Certificate(UPPER, "r", 1, "c", witness={"bad": object()})
    # a report renders a Certificate, but a witness holds only JSON data
    inner = Certificate(UPPER, "r", 1, "c")
    with pytest.raises(TypeError, match="cannot hold Certificate"):
        Certificate(UPPER, "r", 1, "c", witness={"nested": [inner]})


def test_witness_rejects_floats_and_non_string_keys():
    with pytest.raises(TypeError):
        Certificate(UPPER, "r", 1, "c", witness={"x": 0.5})
    with pytest.raises(TypeError):
        Certificate(UPPER, "r", 1, "c", witness={1: "non-string key"})
    # a witness that is not a dict would print as {} yet compare unequal to it
    for not_a_dict in (None, [], '{"k":1}'):
        with pytest.raises(TypeError):
            Certificate(UPPER, "r", 1, "c", witness=not_a_dict)


def test_witness_keeps_empty_lists_and_lists_of_pairs():
    witness = {"k": [], "pairs": [["a", 1], ["b", 2]]}
    cert = Certificate(UPPER, "r", 1, "c", witness=witness)
    assert cert.witness_data() == witness
    assert json.loads(dumps_certificates([cert]))[0]["witness"] == witness


def test_witness_bool_stays_distinct_from_int():
    flag = Certificate(UPPER, "r", 1, "c", witness={"f": True})
    one = Certificate(UPPER, "r", 1, "c", witness={"f": 1})
    assert flag != one
    assert len({flag, one}) == 2
    text = dumps_certificates([flag, one])
    assert '"f": true' in text and '"f": 1' in text


def test_json_round_trip():
    cert = Certificate(
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
        Certificate(UPPER, "a", 1, "c1", witness={"k": [1, 2]}),
        Certificate(LOWER, "b", 0, "c2"),
    ]
    text = dumps_certificates(certs)
    assert text == dumps_certificates(list(certs))
    parsed = json.loads(text)
    assert [p["rule"] for p in parsed] == ["a", "b"]
    assert parsed[0]["witness"] == {"k": [1, 2]}
    assert parsed[1]["witness"] == {}


def test_empty_witness_normalizes_to_empty_dict():
    cert = Certificate(UPPER, "r", 1, "c")
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
    cert = Certificate(UPPER, "a", 1, "c1", witness={"k": [1, [2, "\u00e9"]]})
    other = Certificate(LOWER, "b", 0, "c2")
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


# the report built on json.dumps: the reference layout


def _reference_row(row, ids):
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
        "certificates": ids(interval.certificates if interval else ()),
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
    """Schema 3: each distinct certificate once in a top-level table, in
    first-seen order, and a row's certificates as indices into it."""
    table = []

    def ids(certs):
        for cert in certs:
            if cert not in table:
                table.append(cert)
        return [table.index(cert) for cert in certs]

    varieties = [_reference_row(r, ids) for r in report.rows]
    payload = {
        "schema_version": runner.REPORT_SCHEMA_VERSION,
        "varieties": varieties,
        "certificates": [c.to_json_dict() for c in table],
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
        # a non-ASCII name
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
    assert emit_json(Report()) == (
        '{\n  "schema_version": "3",\n  "varieties": [],\n  "certificates": []\n}\n'
    )


def test_emit_json_renders_each_distinct_certificate_once(monkeypatch):
    # rules share equal certificates between descriptors, so B's are
    # copied through JSON: equal to A's, but distinct objects
    report = Report(
        [
            row
            for name in ("A", "B")
            for row in evaluate(
                parse(f"let {name} = projective_space(2)\ncompute {name}\n")
            ).rows
        ]
    )
    shared = report.rows[1].interval
    report.rows[1].interval = FujitaInterval(
        shared.lo,
        shared.hi,
        tuple(Certificate.from_json_dict(c.to_json_dict()) for c in shared.certificates),
    )
    certs = [c for row in report.rows for c in row.interval.certificates]
    assert len(set(certs)) < len(certs) and len({id(c) for c in certs}) == len(certs)
    spliced = []
    plain = certificates._certificate_json
    monkeypatch.setattr(
        certificates,
        "_certificate_json",
        lambda c, nl: spliced.append(c) or plain(c, nl),
    )
    text = emit_json(report)
    # each distinct certificate is spliced once, as a table entry
    assert len(spliced) == len(set(spliced)) == len(set(certs))
    assert text == _reference_json(report)
    table = json.loads(text)["certificates"]
    assert len(table) == len(set(certs))
    assert [row["certificates"] for row in json.loads(text)["varieties"]] == [
        list(range(len(table)))
    ] * 2


def test_emit_json_decodes_no_witness(monkeypatch):
    report = corpus()

    def refuse(cert):
        raise AssertionError("emit_json decoded a witness")

    monkeypatch.setattr(Certificate, "witness_data", refuse)
    monkeypatch.setattr(Certificate, "to_json_dict", refuse)
    text = emit_json(report)
    monkeypatch.undo()
    assert text == _reference_json(report)


def test_emit_json_timestamp_matches_the_reference(monkeypatch):
    instant = datetime.datetime(
        2024, 2, 29, 12, 30, 5, 123456, tzinfo=datetime.timezone.utc
    )

    class _Fixed(datetime.datetime):
        @classmethod
        def now(cls, tz=None):
            return instant

    # the emitters import datetime only when asked for a timestamp
    monkeypatch.setitem(
        sys.modules,
        "datetime",
        types.SimpleNamespace(datetime=_Fixed, timezone=datetime.timezone),
    )
    report = evaluate(parse("let X = projective_space(2)\ncompute X\n"))
    stamped = emit_json(report, timestamps=True)
    assert stamped == _reference_json(report, generated_at=instant.isoformat())
    assert stamped.endswith('  "generated_at": "2024-02-29T12:30:05.123456+00:00"\n}\n')


def test_flat_arrays_render_as_the_stdlib_lays_them_out():
    witnesses = [
        {"ints": [3, -1, 0, 2**70]},
        {"strs": ["a", "é", '"q"', ""]},
        {"bools": [True, False, True]},
        {"mixed": [1, True, 0, False]},
        {"nested": [[1, 2], ["x"], [[True]], [], {"k": [4, 5]}]},
        {"empty": [], "none": [None, None]},
    ]
    certs = [Certificate(UPPER, "r", 1, "c", witness=w) for w in witnesses]
    assert dumps_certificates(certs) == json.dumps(
        [c.to_json_dict() for c in certs], indent=2
    )
    for cert, witness in zip(certs, witnesses):
        assert cert.witness_data() == witness


def test_witness_refuses_a_float_or_key_nested_in_a_list_of_dicts():
    with pytest.raises(TypeError, match="cannot hold float"):
        Certificate(UPPER, "r", 1, "c", witness={"rows": [{"a": 1}, {"b": 0.5}]})
    with pytest.raises(TypeError, match="keys are strings, not 2"):
        Certificate(UPPER, "r", 1, "c", witness={"rows": [{"a": 1}, {2: "b"}]})


# ------------------------------------------- a witness written once, spliced


def _nested(value, depth: int):
    for _ in range(depth):
        value = [value]
    return value


def _assert_spliced_at_every_depth(cert: Certificate, depths=range(5)) -> None:
    """``render_json(cert, nl)`` is the stdlib layout of ``to_json_dict()``
    nested ``depth`` arrays deep, and the witness text is its top-level
    layout."""
    assert cert.witness == json.dumps(cert.witness_data(), indent=2)
    for depth in depths:
        expected = json.dumps(_nested(cert.to_json_dict(), depth), indent=2)
        opening = "".join("[\n" + "  " * (i + 1) for i in range(depth))
        closing = "".join("\n" + "  " * i + "]" for i in reversed(range(depth)))
        rendered = render_json(cert, "\n" + "  " * depth)
        assert opening + rendered + closing == expected
        assert render_json(_nested(cert, depth)) == expected


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    st.dictionaries(_strings, _values, max_size=4),
    st.lists(_strings, max_size=3),
    st.integers(min_value=0, max_value=6),
)
def test_a_witness_spliced_at_any_depth_matches_the_stdlib(witness, premises, depth):
    cert = Certificate(UPPER, "r", 1, "c", premises=premises, witness=witness)
    assert cert.witness_data() == json.loads(json.dumps(witness))
    _assert_spliced_at_every_depth(cert, (depth,))


def test_line_breaks_spaces_and_quotes_inside_witness_strings():
    witness = {
        "a\nb": ["x\n  y", ' "q" ', "\n", "  ", '"'],
        ' "k"\n': {"line\n  ": "\n\n", "": [" ", ['"\n"']]},
        "text": 'say "hi"\n  then  leave',
    }
    cert = Certificate(
        LOWER, "r\n", 2, 'a "quoted"\ncitation', premises=("one\n  two", '"'), witness=witness
    )
    assert cert.witness_data() == witness
    _assert_spliced_at_every_depth(cert)
