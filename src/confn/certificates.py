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
from json.encoder import encode_basestring_ascii as _escape

from .frozen import Frozen

UPPER = "upper"
LOWER = "lower"

SCHEMA_VERSION = "1"

_COMPACT = json.JSONEncoder(separators=(",", ":"))

# the exact types of JSON leaves, and of a plain dict key
_LEAF_TYPES = frozenset((int, str, bool, type(None)))
_STR_TYPE = frozenset((str,))
_INT_TYPE = frozenset((int,))

# decodes a witness text afresh on each call, so the caller owns the result
_decode = json.JSONDecoder().raw_decode


def _check_json(value) -> None:
    # exact types first: a dict with plain string keys, a list or a tuple
    # needs only its items that are not leaves walked
    kind = type(value)
    if kind is dict and _STR_TYPE.issuperset(map(type, value)):
        items = value.values()
    elif kind is list or kind is tuple:
        items = value
    elif isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"certificate witness keys are strings, not {key!r}")
            _check_json(item)
        return
    elif isinstance(value, (list, tuple)):
        for item in value:
            _check_json(item)
        return
    elif isinstance(value, (str, int)) or value is None:
        return
    else:
        raise TypeError(f"certificate witness data cannot hold {type(value).__name__}")
    for item in items:
        if type(item) not in _LEAF_TYPES:
            _check_json(item)


def _witness_text(value) -> str:
    """The compact JSON text of witness data, its exact hashable form.

    Lists and tuples both become JSON arrays and ``True`` stays distinct
    from ``1``, so equal texts mean equal witnesses as the report prints
    them.  Floats and other non-JSON types are rejected.
    """
    _check_json(value)
    return _COMPACT.encode(value)


class Certificate(Frozen):
    """One certified bound; equal certificates compare and hash alike.

    The hash is computed once, in ``__init__``, since the fields never
    change and the engine's verdict memo hashes every certificate it sees.
    """

    __slots__ = ("kind", "rule", "value", "citation", "premises", "witness", "_hash")

    def __init__(
        self,
        kind: str,
        rule: str,
        value: int,
        citation: str,
        premises=(),
        # read only: given as a dict of JSON data, kept as its compact text
        # (see _witness_text)
        witness: dict = {},
    ) -> None:
        if kind not in (UPPER, LOWER):
            raise ValueError(f"certificate kind must be upper or lower, got {kind!r}")
        if value < 0:
            raise ValueError("certified bounds are nonnegative")
        if not isinstance(witness, dict):
            raise TypeError("a certificate witness is a dict of JSON data")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "citation", citation)
        object.__setattr__(self, "premises", tuple(premises))
        object.__setattr__(self, "witness", _witness_text(witness))
        object.__setattr__(
            self,
            "_hash",
            hash((kind, rule, value, citation, self.premises, self.witness)),
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.kind, self.rule, self.value, self.citation, self.premises, self.witness
        ) == (
            other.kind, other.rule, other.value, other.citation, other.premises,
            other.witness,
        )

    def __hash__(self) -> int:
        return self._hash

    def witness_data(self) -> dict:
        return _decode(self.witness)[0]

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


def _render(value, nl: str, out: list, memo: dict) -> None:
    """Append ``value`` to ``out`` as ``json.dumps(value, indent=2)`` lays it
    out when nested at the line break ``nl``.

    Leaf strings and dict keys, which must be strings, go through the C
    ``encode_basestring_ascii``.  An array whose items are all exactly
    ``int``, or all exactly ``str``, is one ``join`` (a bool is neither,
    so it still prints as true or false).  A Certificate renders as its
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
        comma = "," + inner
        kinds = set(map(type, value))
        if kinds == _INT_TYPE:
            out.append("[" + inner + comma.join(map(int.__repr__, value)) + nl + "]")
            return
        if kinds == _STR_TYPE:
            out.append("[" + inner + comma.join(map(_escape, value)) + nl + "]")
            return
        sep = "[" + inner
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


def render_json(value, nl: str = "\n", memo: dict | None = None) -> str:
    """``json.dumps(value, indent=2)`` byte for byte, for dicts with string
    keys, lists, tuples, strings, ints, bools and None; Certificates render
    as their ``to_json_dict()``, each distinct one once.

    ``nl`` is the line break the value is nested at, so the text can be
    spliced into a larger document; calls that pass one ``memo`` render
    each distinct certificate once between them.
    """
    out: list[str] = []
    _render(value, nl, out, {} if memo is None else memo)
    return "".join(out)


def dumps_certificates(certs) -> str:
    return render_json(list(certs))
