"""Line-oriented descriptor programs.

A program is a sequence of statements, one per line:

    let X = projective_space(3)
    let S = delpezzo7()
    let Y = cyclic_cover(X, branch = H, degree = 6)
    compute Y
    assert_confn Y = 0
    assert_confn S in [1, 1]

Constructors take positional and named arguments.  Values are integers,
booleans, lists, references to earlier names, and divisor literals such
as ``3*H - E1 - E2`` written over the basis of whichever descriptor the
surrounding constructor call is about.  There are no other expressions:
descriptor programs are configuration, not computation.

A line ends at ``\n``, ``\r\n`` or ``\r``; every other whitespace
character, such as a tab, a form feed or U+2028, is a blank within the
line.  ``#`` starts a comment that runs to the end of the line.  An
asserted interval ``[lo, hi]`` needs ``lo <= hi``, and ``true`` and
``false`` cannot be bound by ``let``.

``parse`` returns a Program whose statements carry source spans, and
raises DslError with a category (lexical, syntax, name, type), position,
and a one-line hint on malformed input.
"""

from __future__ import annotations

import re

from .frozen import Frozen

CONSTRUCTORS = (
    "projective_space",
    "complete_intersection",
    "curve",
    "hirzebruch1",
    "delpezzo7",
    "abelian",
    "custom",
    "product",
    "blowup_point",
    "hypersurface_section",
    "cyclic_cover",
    "pipeline_n2k1",
    "pipeline_n3k1",
    "pipeline_simple_surface",
    "pipeline_simple_variety",
)

LEXICAL = "lexical"
SYNTAX = "syntax"
NAME = "name"
TYPE = "type"


class Span(Frozen):
    __slots__ = ("line", "column")

    def __init__(self, line: int, column: int) -> None:
        _span_line(self, line)
        _span_column(self, column)

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


# Parse builds a node for nearly every token, so each node class here
# sets each slot through that slot's own setter, bound once below the
# class, rather than through object.__setattr__, which looks the slot up
# by name on every call.
_span_line = Span.line.__set__
_span_column = Span.column.__set__


class DslError(ValueError):
    def __init__(self, category: str, message: str, span: Span, hint: str = ""):
        self.category = category
        self.span = span
        self.hint = hint
        text = f"{category} error at {span}: {message}"
        if hint:
            text += f"\n  hint: {hint}"
        super().__init__(text)


# value nodes ----------------------------------------------------------
#
# A value node compares and hashes by its type and value alone: the span
# says where it was written, so equal arguments on different lines are
# equal, while IntValue(1) and BoolValue(True) are not.


class _Value(Frozen):
    __slots__ = ("value", "span")

    def __init__(self, value, span: Span) -> None:
        _value_value(self, value)
        _value_span(self, span)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return hash((self.value,))


_value_value = _Value.value.__set__
_value_span = _Value.span.__set__


class IntValue(_Value):
    __slots__ = ()


class BoolValue(_Value):
    __slots__ = ()


class NameValue(_Value):
    """A bare identifier: a descriptor reference, basis name, or flag."""

    __slots__ = ()


class DivisorValue(_Value):
    """Integer combination of basis names, e.g. ((3,"H"), (-1,"E1"))."""

    __slots__ = ()


class ListValue(_Value):
    """A tuple of value nodes."""

    __slots__ = ()


class Argument(Frozen):
    __slots__ = ("keyword", "value", "span")

    def __init__(self, keyword: str | None, value: object, span: Span) -> None:
        _argument_keyword(self, keyword)
        _argument_value(self, value)
        _argument_span(self, span)


_argument_keyword = Argument.keyword.__set__
_argument_value = Argument.value.__set__
_argument_span = Argument.span.__set__


# statements -----------------------------------------------------------


class Let(Frozen):
    __slots__ = ("name", "constructor", "arguments", "span")

    def __init__(
        self, name: str, constructor: str, arguments: tuple[Argument, ...], span: Span
    ) -> None:
        _let_name(self, name)
        _let_constructor(self, constructor)
        _let_arguments(self, arguments)
        _let_span(self, span)


_let_name = Let.name.__set__
_let_constructor = Let.constructor.__set__
_let_arguments = Let.arguments.__set__
_let_span = Let.span.__set__


class Compute(Frozen):
    __slots__ = ("name", "span")

    def __init__(self, name: str, span: Span) -> None:
        _compute_name(self, name)
        _compute_span(self, span)


_compute_name = Compute.name.__set__
_compute_span = Compute.span.__set__


class AssertConfn(Frozen):
    __slots__ = ("name", "exact", "lo", "hi", "span")

    def __init__(
        self, name: str, exact: int | None, lo: int | None, hi: int | None, span: Span
    ) -> None:
        _assert_name(self, name)
        _assert_exact(self, exact)
        _assert_lo(self, lo)
        _assert_hi(self, hi)
        _assert_span(self, span)


_assert_name = AssertConfn.name.__set__
_assert_exact = AssertConfn.exact.__set__
_assert_lo = AssertConfn.lo.__set__
_assert_hi = AssertConfn.hi.__set__
_assert_span = AssertConfn.span.__set__


class Program(Frozen):
    __slots__ = ("statements",)

    def __init__(self, statements: tuple) -> None:
        _program_statements(self, statements)


_program_statements = Program.statements.__set__


# lexer ----------------------------------------------------------------
#
# One findall per line, of (blanks, token) pairs.  A token is a symbol,
# an integer, an identifier, a comment, which runs to the end of the
# line, or any other character, which is an error.  The pairs cover the
# line up to its trailing blanks, so a token's column is one more than
# the length of the pairs before it and of its own blanks.  In a str
# pattern \d, \w and \s are str.isdecimal, str.isalnum or "_", and
# str.isspace, so the one check left is that an identifier starts with
# a letter or "_": "x\u00b2" is a name and "\u00b2" is not.

_TOKEN = re.compile(r"(\s*)([()\[\]=,*+\-]|\d+|\w+|#.*|\S)")
_SYMBOLS = frozenset("()[]=,*+-")

_Tok = tuple[str, str, int]  # (kind, text, column)


def _lex_line(text: str, line_no: int) -> list[_Tok]:
    """The line's tokens, ending with an "eol" token; the other kinds are
    "ident", "int" and the symbol itself."""
    tokens = []
    column = 1
    for blanks, word in _TOKEN.findall(text):
        column += len(blanks)
        if word in _SYMBOLS:
            tokens.append((word, word, column))
        else:
            first = word[0]
            if first.isdecimal():
                tokens.append(("int", word, column))
            elif first.isalpha() or first == "_":
                tokens.append(("ident", word, column))
            elif first == "#":
                break
            else:
                raise DslError(
                    LEXICAL,
                    f"unexpected character {first!r}",
                    Span(line_no, column),
                    "allowed: identifiers, integers, and () [] = , * + -",
                )
        column += len(word)
    tokens.append(("eol", "", len(text) + 1))
    return tokens


# parser ---------------------------------------------------------------
#
# Each function takes the line's tokens and the index of its first token
# and returns what it parsed with the index after it.  Every index it
# reads exists: the tokens end with "eol", and a function reads past a
# token only once it has seen that token is not "eol".

_VALUE_END = frozenset((",", ")", "]", "eol"))
_STATEMENT_HINT = "statements start with let, compute, or assert_confn"


def _expected(tok: _Tok, what: str, line: int, hint: str = "") -> DslError:
    """The error for ``tok`` standing where the grammar needs ``what``."""
    found = tok[1] or "end of line"
    return DslError(
        SYNTAX, f"expected {what}, found {found!r}", Span(line, tok[2]), hint
    )


def _value(tokens: list[_Tok], i: int, line: int):
    kind, word, column = tokens[i]
    if kind == "int":
        if tokens[i + 1][0] in _VALUE_END:
            return IntValue(int(word), Span(line, column)), i + 1
        return _divisor(tokens, i, line, 1, Span(line, column))
    if kind == "ident":
        if word == "true" or word == "false":
            return BoolValue(word == "true", Span(line, column)), i + 1
        if tokens[i + 1][0] in _VALUE_END:
            return NameValue(word, Span(line, column)), i + 1
        return _divisor(tokens, i, line, 1, Span(line, column))
    if kind == "[":
        return _list(tokens, i, line)
    if kind == "-":
        nxt = tokens[i + 1]
        if nxt[0] == "int" and tokens[i + 2][0] in _VALUE_END:
            return IntValue(-int(nxt[1]), Span(line, column)), i + 2
        return _divisor(tokens, i + 1, line, -1, Span(line, column))
    raise _expected(
        tokens[i],
        "a value",
        line,
        "values are integers, true/false, names, divisor sums, or [lists]",
    )


def _list(tokens: list[_Tok], i: int, line: int) -> tuple[ListValue, int]:
    span = Span(line, tokens[i][2])
    i += 1
    items = []
    if tokens[i][0] != "]":
        while True:
            item, i = _value(tokens, i, line)
            items.append(item)
            if tokens[i][0] != ",":
                break
            i += 1
    if tokens[i][0] != "]":
        raise _expected(
            tokens[i], "']' closing the list", line, "lists look like [1, 2] or [toric]"
        )
    return ListValue(tuple(items), span), i + 1


def _divisor(
    tokens: list[_Tok], i: int, line: int, sign: int, span: Span
) -> tuple[DivisorValue, int]:
    """The divisor whose first term starts at token i with ``sign``; its
    span is that of its first token, the '-' of a leading minus."""
    terms: list[tuple[int, str]] = []
    while True:
        kind, word, _ = tokens[i]
        if kind == "int":
            if tokens[i + 1][0] != "*":
                raise _expected(
                    tokens[i + 1],
                    "'*' after a coefficient",
                    line,
                    "write coefficients as 3*H; a bare integer is not a divisor term",
                )
            name = tokens[i + 2]
            if name[0] != "ident":
                raise _expected(name, "a basis name after '*'", line)
            terms.append((sign * int(word), name[1]))
            i += 3
        elif kind == "ident":
            terms.append((sign, word))
            i += 1
        else:
            raise _expected(
                tokens[i],
                "a divisor term",
                line,
                "divisor terms look like 3*H, H, or -E1",
            )
        kind = tokens[i][0]
        if kind == "+":
            sign = 1
        elif kind == "-":
            sign = -1
        else:
            break
        i += 1
    if kind not in _VALUE_END:
        tok = tokens[i]
        raise DslError(
            SYNTAX,
            f"unexpected {tok[1]!r} in a divisor expression",
            Span(line, tok[2]),
            "divisor terms look like 3*H, H, or -E1, joined with + and -",
        )
    return DivisorValue(tuple(terms), span), i


def _arguments(
    tokens: list[_Tok], i: int, line: int
) -> tuple[tuple[Argument, ...], int]:
    if tokens[i][0] != "(":
        raise _expected(tokens[i], "'(' to open the argument list", line)
    i += 1
    args: list[Argument] = []
    if tokens[i][0] != ")":
        while True:
            kind, word, column = tokens[i]
            if (
                kind == "ident"
                and tokens[i + 1][0] == "="
                and word != "true"
                and word != "false"
            ):
                value, i = _value(tokens, i + 2, line)
                args.append(Argument(word, value, Span(line, column)))
            else:
                value, i = _value(tokens, i, line)
                # a value's span is that of its first token
                args.append(Argument(None, value, value.span))
            if tokens[i][0] != ",":
                break
            i += 1
    if tokens[i][0] != ")":
        raise _expected(tokens[i], "')' closing the argument list", line)
    return tuple(args), i + 1


# A line ends at \n, \r\n or \r; the other characters that str.splitlines
# breaks at, such as \x0c or U+2028, are blanks inside a line.
_LINE_END = re.compile(r"\r\n?|\n")


def parse(text: str) -> Program:
    statements = []
    defined: set[str] = set()
    for line_no, line in enumerate(_LINE_END.split(text), start=1):
        tokens = _lex_line(line, line_no)
        kind, head, column = tokens[0]
        if kind == "eol":
            continue
        if kind != "ident":
            raise _expected(tokens[0], "a statement keyword", line_no, _STATEMENT_HINT)
        if head == "let":
            stmt, i = _let(tokens, line_no, defined)
        elif head == "compute":
            stmt, i = Compute(*_defined_name(tokens, line_no, defined)), 2
        elif head == "assert_confn":
            stmt, i = _assert(tokens, line_no, defined)
        else:
            raise DslError(
                SYNTAX,
                f"unknown statement {head!r}",
                Span(line_no, column),
                _STATEMENT_HINT,
            )
        if tokens[i][0] != "eol":
            raise _expected(tokens[i], "end of line", line_no, "one statement per line")
        statements.append(stmt)
    return Program(tuple(statements))


def _let(tokens: list[_Tok], line: int, defined: set[str]) -> tuple[Let, int]:
    kind, name, column = tokens[1]
    if kind != "ident":
        raise _expected(tokens[1], "a name to bind", line)
    span = Span(line, column)
    if name in defined:
        raise DslError(
            NAME,
            f"{name!r} is already defined",
            span,
            "names cannot be redefined; pick a fresh one",
        )
    if name in CONSTRUCTORS:
        raise DslError(
            NAME, f"{name!r} is a constructor name", span, "bind a different identifier"
        )
    if name == "true" or name == "false":
        raise DslError(
            NAME, f"{name!r} is a boolean literal", span, "bind a different identifier"
        )
    if tokens[2][0] != "=":
        raise _expected(tokens[2], "'='", line)
    kind, ctor, column = tokens[3]
    if kind != "ident":
        raise _expected(tokens[3], "a constructor name", line)
    if ctor not in CONSTRUCTORS:
        raise DslError(
            NAME,
            f"unknown constructor {ctor!r}",
            Span(line, column),
            "one of: " + ", ".join(CONSTRUCTORS),
        )
    arguments, i = _arguments(tokens, 4, line)
    defined.add(name)
    return Let(name, ctor, arguments, span), i


def _defined_name(tokens: list[_Tok], line: int, defined: set[str]) -> tuple[str, Span]:
    """The name at token 1, which an earlier let must have bound."""
    kind, name, column = tokens[1]
    if kind != "ident":
        raise _expected(tokens[1], "a defined name", line)
    if name not in defined:
        raise DslError(
            NAME,
            f"{name!r} is not defined",
            Span(line, column),
            "define it first with: let " + name + " = <constructor>(...)",
        )
    return name, Span(line, column)


def _assert(
    tokens: list[_Tok], line: int, defined: set[str]
) -> tuple[AssertConfn, int]:
    name, span = _defined_name(tokens, line, defined)
    kind, word, _ = tokens[2]
    if kind == "=":
        value, i = _signed_int(tokens, 3, line)
        return AssertConfn(name, value, None, None, span), i
    if kind == "ident" and word == "in":
        if tokens[3][0] != "[":
            raise _expected(tokens[3], "'[' opening the interval", line)
        lo, i = _signed_int(tokens, 4, line)
        if tokens[i][0] != ",":
            raise _expected(tokens[i], "','", line)
        hi, i = _signed_int(tokens, i + 1, line)
        if tokens[i][0] != "]":
            raise _expected(tokens[i], "']' closing the interval", line)
        if lo > hi:
            # reported at the lower end's first token, the '-' of a negative one
            raise DslError(
                SYNTAX,
                f"the lower end {lo} exceeds the upper end {hi}",
                Span(line, tokens[4][2]),
                "an interval [lo, hi] needs lo <= hi",
            )
        return AssertConfn(name, None, lo, hi, span), i + 1
    raise _expected(
        tokens[2],
        "'=' or 'in'",
        line,
        "assert_confn X = 2   or   assert_confn X in [0, 2]",
    )


def _signed_int(tokens: list[_Tok], i: int, line: int) -> tuple[int, int]:
    sign = 1
    if tokens[i][0] == "-":
        sign = -1
        i += 1
    kind, word, _ = tokens[i]
    if kind != "int":
        raise _expected(tokens[i], "an integer", line)
    return sign * int(word), i + 1
