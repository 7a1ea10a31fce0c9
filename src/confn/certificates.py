"""Certificates: the machine-checkable payload of every reported bound.

A certificate names the rule that produced it, the side it bounds, the
bound itself, the literature it is a consequence of, the premises it
needs, and enough witness data to re-run the check without trusting the
resolver.  The verifier lives next to the rules in the engine module;
this module owns the data shape and its stable serialization, which is
part of the tool's external interface (the report's schema version,
``runner.REPORT_SCHEMA_VERSION``).

A witness is written once, when its certificate is made, as
``json.dumps(witness, indent=2)`` lays it out; the report's certificate
table, which holds each distinct certificate once, indents that text
into place and never decodes it.  A rule makes each distinct
certificate once while anything holds it: it calls ``certificate``,
which files the certificate in a weak table under its own content, so
the products of a program that share their factors' intervals share one
certificate, and an entry dies with the last descriptor that holds it.
"""

from __future__ import annotations

import json
import marshal
import weakref
from json.encoder import encode_basestring_ascii as _escape

from .frozen import Frozen

UPPER = "upper"
LOWER = "lower"

_STR_TYPE = frozenset((str,))
_INT_TYPE = frozenset((int,))

# the keys of a certificate's JSON object, in the order they are written
_FIELDS = ("kind", "rule", "value", "citation", "premises", "witness")

# decodes a witness text afresh on each call, so the caller owns the result
_decode = json.JSONDecoder().raw_decode


class Certificate(Frozen):
    """One certified bound; equal certificates compare and hash alike.

    The value is exactly an ``int``: a bool, which Python compares equal
    to 0 or 1, is refused.  The rule, the citation and each premise are
    exactly ``str``, and the premises a list or tuple of them, so a string
    is not taken for the premises its characters spell.  The witness is
    kept as its text, ``json.dumps(witness, indent=2)`` byte for byte,
    written in ``__init__`` by the walk that refuses non-JSON data.  Lists
    and tuples both become arrays and ``True`` stays distinct from ``1``,
    so equal texts mean equal witnesses as the report prints them.  The hash is
    computed once, in ``__init__``, since the fields never change and the
    engine's verdict memo hashes every certificate it sees.  The rules
    make one certificate per distinct content while it is alive (see
    ``certificate``), so one is checked by the verifiers of many
    descriptors: ``_matched``, which only the engine's verifiers write,
    remembers the derived witness its text was last found to equal, and
    takes no part in equality.
    """

    __slots__ = (
        "kind", "rule", "value", "citation", "premises", "witness", "_hash",
        "_matched", "__weakref__",
    )

    def __init__(
        self,
        kind: str,
        rule: str,
        value: int,
        citation: str,
        premises=(),
        # read only: given as a dict of JSON data, kept as its text
        witness: dict = {},
    ) -> None:
        if kind not in (UPPER, LOWER):
            raise ValueError(f"certificate kind must be upper or lower, got {kind!r}")
        if type(value) is not int:
            raise TypeError(f"a certified bound is an int, not {type(value).__name__}")
        if value < 0:
            raise ValueError("certified bounds are nonnegative")
        for name, field in (("rule", rule), ("citation", citation)):
            if type(field) is not str:
                raise TypeError(
                    f"a certificate {name} is a str, not {type(field).__name__}"
                )
        premises = _premises(premises)
        text = witness_text(witness)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "citation", citation)
        object.__setattr__(self, "premises", premises)
        object.__setattr__(self, "witness", text)
        object.__setattr__(
            self,
            "_hash",
            hash((kind, rule, value, citation, self.premises, self.witness)),
        )
        object.__setattr__(self, "_matched", None)

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
        """The certificate ``to_json_dict`` wrote: exactly its six keys,
        each value checked as ``Certificate`` checks it."""
        if not isinstance(data, dict):
            raise TypeError(f"a certificate is a JSON object, not {type(data).__name__}")
        if data.keys() != set(_FIELDS):
            missing = [key for key in _FIELDS if key not in data]
            unknown = [key for key in data if key not in _FIELDS]
            raise ValueError(
                f"a certificate has the keys {', '.join(_FIELDS)}; "
                f"missing {missing}, unknown {unknown}"
            )
        return cls(**data)


def _premises(premises) -> tuple:
    """``premises`` as the tuple of strings a certificate keeps; a string,
    which would iterate as its characters, is refused."""
    if not isinstance(premises, (list, tuple)):
        raise TypeError(
            f"certificate premises are a list of str, not {type(premises).__name__}"
        )
    premises = tuple(premises)
    for premise in premises:
        if type(premise) is not str:
            raise TypeError(f"a certificate premise is a str, not {type(premise).__name__}")
    return premises


# Every live certificate a rule made, keyed by its content.  An entry
# leaves when the last descriptor or interval that holds its certificate
# dies, so no certificate outlives the run that made it.
_TABLE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def certificate(
    kind: str, rule: str, value: int, citation: str, premises=(), witness: dict = {}
) -> Certificate:
    """The live certificate of these fields, made and filed on a miss.

    The key is ``marshal``'s version-2 bytes of the fields, which tell
    ``True`` from ``1`` and, unlike later versions, do not depend on
    reference counts or string interning; so a hit is, by construction,
    the certificate ``Certificate`` makes of these fields, and fields it
    refuses are never filed.
    """
    premises = _premises(premises)
    key = marshal.dumps((kind, rule, value, citation, premises, witness), 2)
    cert = _TABLE.get(key)
    if cert is None:
        cert = _TABLE[key] = Certificate(kind, rule, value, citation, premises, witness)
    return cert


def witness_text(witness: dict) -> str:
    """``witness`` as a Certificate keeps it, ``json.dumps(witness,
    indent=2)`` byte for byte; data that is not JSON is refused.

    A verifier compares a certificate's witness with this text of the
    witness it expects, so an added or missing key, or ``true`` where the
    rule writes ``1``, is refused.
    """
    if not isinstance(witness, dict):
        raise TypeError(
            f"a certificate witness is a dict of JSON data, not {type(witness).__name__}"
        )
    out: list[str] = []
    # a witness holds plain JSON data, no Certificate
    _render(witness, "\n", out, False)
    return "".join(out)


def _render(value, nl: str, out: list, certs: bool) -> None:
    """Append ``value`` to ``out`` as ``json.dumps(value, indent=2)`` lays it
    out when nested at the line break ``nl``.

    Leaf strings and dict keys, which must be strings, go through the C
    ``encode_basestring_ascii``.  An array whose items are all exactly
    ``int``, or all exactly ``str``, is one ``join`` (a bool is neither,
    so it still prints as true or false).  With ``certs``, a Certificate is
    written by ``_certificate_json``; without, as for a witness, it is
    refused like any other value that is not JSON data.
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
            if not isinstance(key, str):
                raise TypeError(f"JSON keys are strings, not {key!r}")
            out.append(sep + _escape(key) + ": ")
            _render(item, inner, out, certs)
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
            _render(item, inner, out, certs)
            sep = comma
        out.append(nl + "]")
    elif certs and isinstance(value, Certificate):
        out.append(_certificate_json(value, nl))
    else:
        raise TypeError(f"JSON data cannot hold {type(value).__name__}")


def _certificate_json(cert: Certificate, nl: str) -> str:
    """``cert.to_json_dict()`` as ``_render`` lays it out at ``nl``.

    The header fields are rendered; the witness text, written at top
    level, is spliced in one level below ``nl`` by indenting its line
    breaks.  That is exact because ``encode_basestring_ascii`` writes a
    newline inside a string as ``\\n``, so each raw newline in the text
    is a line break of the layout.
    """
    inner = nl + "  "
    out: list[str] = []
    sep = "{" + inner
    for name in _FIELDS[:-1]:
        out.append(sep + '"' + name + '": ')
        _render(getattr(cert, name), inner, out, False)
        sep = "," + inner
    out.append(sep + '"witness": ' + cert.witness.replace("\n", inner) + nl + "}")
    return "".join(out)


def render_json(value, nl: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` byte for byte, for dicts with string
    keys, lists, tuples, strings, ints, bools and None; Certificates render
    as their ``to_json_dict()``.

    ``nl`` is the line break the value is nested at, so the text can be
    spliced into a larger document.
    """
    out: list[str] = []
    _render(value, nl, out, True)
    return "".join(out)


def dumps_certificates(certs) -> str:
    return render_json(list(certs))
