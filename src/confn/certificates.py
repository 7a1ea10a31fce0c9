"""Certificates: the machine-checkable payload of every reported bound.

A certificate names the rule that produced it, the side it bounds, the
bound itself, the literature it is a consequence of, the premises it
needs, and enough witness data to re-run the check without trusting the
resolver.  The verifier lives next to the rules in the engine module;
this module owns the data shape and its stable serialization, which is
part of the tool's external interface (schema version 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _escape

UPPER = "upper"
LOWER = "lower"

SCHEMA_VERSION = "1"

_COMPACT = json.JSONEncoder(separators=(",", ":"))


def _check_json(value) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"certificate witness keys are strings, not {key!r}")
            _check_json(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _check_json(item)
    elif not (isinstance(value, (str, int)) or value is None):
        raise TypeError(f"certificate witness data cannot hold {type(value).__name__}")


def _witness_text(value) -> str:
    """The compact JSON text of witness data, its exact hashable form.

    Lists and tuples both become JSON arrays and ``True`` stays distinct
    from ``1``, so equal texts mean equal witnesses as the report prints
    them.  Floats and other non-JSON types are rejected.
    """
    _check_json(value)
    return _COMPACT.encode(value)


@dataclass(frozen=True)
class Certificate:
    kind: str
    rule: str
    value: int
    citation: str
    premises: tuple[str, ...] = ()
    # given as JSON data, kept as its compact text (see _witness_text)
    witness: str = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in (UPPER, LOWER):
            raise ValueError(f"certificate kind must be upper or lower, got {self.kind!r}")
        if self.value < 0:
            raise ValueError("certified bounds are nonnegative")
        object.__setattr__(self, "premises", tuple(self.premises))
        object.__setattr__(self, "witness", _witness_text(self.witness))

    def witness_data(self) -> dict:
        out = json.loads(self.witness)
        return out if isinstance(out, dict) else {}

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "rule": self.rule,
            "value": self.value,
            "citation": self.citation,
            "premises": list(self.premises),
            "witness": self.witness_data(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Certificate":
        return cls(
            kind=data["kind"],
            rule=data["rule"],
            value=data["value"],
            citation=data["citation"],
            premises=tuple(data.get("premises", ())),
            witness=data.get("witness", {}) or {},
        )


def make_certificate(
    kind: str,
    rule: str,
    value: int,
    citation: str,
    premises=(),
    witness=None,
) -> Certificate:
    return Certificate(
        kind=kind,
        rule=rule,
        value=value,
        citation=citation,
        premises=tuple(premises),
        witness=witness or {},
    )


def _render(value, nl: str, out: list, memo: dict) -> None:
    """Append ``value`` to ``out`` as ``json.dumps(value, indent=2)`` lays it
    out when nested at the line break ``nl``.

    Leaf strings and dict keys, which must be strings, go through the C
    ``encode_basestring_ascii``.  A Certificate renders as its
    ``to_json_dict()``, once per ``memo``: a reused certificate costs a dict
    lookup.
    """
    if isinstance(value, str):
        out.append(_escape(value))
    elif value is None:
        out.append("null")
    # before int, since bool is an int subclass
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        sep, comma = "{" + inner, "," + inner
        for key, item in value.items():
            out.append(sep + _escape(key) + ": ")
            _render(item, inner, out, memo)
            sep = comma
        out.append(nl + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            out.append(sep)
            _render(item, inner, out, memo)
            sep = comma
        out.append(nl + "]")
    elif isinstance(value, Certificate):
        key = (value, nl)
        text = memo.get(key)
        if text is None:
            start = len(out)
            _render(value.to_json_dict(), nl, out, memo)
            memo[key] = "".join(out[start:])
        else:
            out.append(text)
    else:
        raise TypeError(f"cannot render {type(value).__name__} as JSON")


def render_json(value) -> str:
    """``json.dumps(value, indent=2)`` byte for byte, for dicts with string
    keys, lists, tuples, strings, ints, bools and None; Certificates render
    as their ``to_json_dict()``, each distinct one once."""
    out: list[str] = []
    _render(value, "\n", out, {})
    return "".join(out)


def dumps_certificates(certs) -> str:
    return render_json(list(certs))
