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
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "column", column)

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


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
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "span", span)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return hash((self.value,))


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
        object.__setattr__(self, "keyword", keyword)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "span", span)


# statements -----------------------------------------------------------


class Let(Frozen):
    __slots__ = ("name", "constructor", "arguments", "span")

    def __init__(
        self, name: str, constructor: str, arguments: tuple[Argument, ...], span: Span
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "constructor", constructor)
        object.__setattr__(self, "arguments", arguments)
        object.__setattr__(self, "span", span)


class Compute(Frozen):
    __slots__ = ("name", "span")

    def __init__(self, name: str, span: Span) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "span", span)


class AssertConfn(Frozen):
    __slots__ = ("name", "exact", "lo", "hi", "span")

    def __init__(
        self, name: str, exact: int | None, lo: int | None, hi: int | None, span: Span
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "span", span)


class Program(Frozen):
    __slots__ = ("statements",)

    def __init__(self, statements: tuple) -> None:
        object.__setattr__(self, "statements", statements)


# lexer ----------------------------------------------------------------
#
# One match per token, after any blanks: an integer, an identifier, a
# symbol, the start of a comment, or any other character, which is an
# error.  In a str pattern \d, \w and \s are str.isdecimal, str.isalnum
# or "_", and str.isspace, so the one check left is that an identifier
# starts with a letter or "_": "x\u00b2" is a name and "\u00b2" is not.

_TOKEN = re.compile(r"\s*(?:(\d+)|(\w+)|([()\[\]=,*+\-])|(#)|(\S))")
_INT, _IDENT, _SYMBOL, _COMMENT = 1, 2, 3, 4

_Tok = tuple[str, str, int]  # (kind, text, column)


def _lex_line(text: str, line_no: int) -> list[_Tok]:
    """The line's tokens, ending with an "eol" token; the other kinds are
    "ident", "int" and the symbol itself."""
    tokens = []
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        word = match[group]
        column = match.end() - len(word) + 1
        if group == _SYMBOL:
            tokens.append((word, word, column))
        elif group == _IDENT and (word[0].isalpha() or word[0] == "_"):
            tokens.append(("ident", word, column))
        elif group == _INT:
            tokens.append(("int", word, column))
        elif group == _COMMENT:
            break
        else:
            raise DslError(
                LEXICAL,
                f"unexpected character {word[0]!r}",
                Span(line_no, column),
                "allowed: identifiers, integers, and () [] = , * + -",
            )
    tokens.append(("eol", "", len(text) + 1))
    return tokens


# parser ---------------------------------------------------------------
#
# The parser knows its line and makes a Span only for a node or an error
# that keeps one.


class _LineParser:
    def __init__(self, tokens: list[_Tok], line: int):
        self.tokens = tokens
        self.line = line
        self.pos = 0

    def span(self, tok: _Tok) -> Span:
        return Span(self.line, tok[2])

    def peek(self) -> _Tok:
        return self.tokens[self.pos]

    def advance(self) -> _Tok:
        tok = self.tokens[self.pos]
        if tok[0] != "eol":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str, hint: str = "") -> _Tok:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            found = tok[1] or "end of line"
            raise DslError(
                SYNTAX, f"expected {what}, found {found!r}", self.span(tok), hint
            )
        if kind != "eol":
            self.pos += 1
        return tok

    def at_value_end(self, ahead: int = 0) -> bool:
        return self.tokens[self.pos + ahead][0] in (",", ")", "]", "eol")

    def parse_value(self):
        tok = self.peek()
        kind = tok[0]
        if kind == "[":
            return self.parse_list()
        if kind == "-":
            return self.parse_divisor_or_negative()
        if kind == "int":
            if self.at_value_end(1):
                self.pos += 1
                return IntValue(int(tok[1]), self.span(tok))
            return self.parse_divisor()
        if kind == "ident":
            if tok[1] in ("true", "false"):
                self.pos += 1
                return BoolValue(tok[1] == "true", self.span(tok))
            if self.at_value_end(1):
                self.pos += 1
                return NameValue(tok[1], self.span(tok))
            return self.parse_divisor()
        raise DslError(
            SYNTAX,
            f"expected a value, found {tok[1] or 'end of line'!r}",
            self.span(tok),
            "values are integers, true/false, names, divisor sums, or [lists]",
        )

    def parse_list(self) -> ListValue:
        open_tok = self.expect("[", "'['")
        items = []
        if self.peek()[0] != "]":
            while True:
                items.append(self.parse_value())
                if self.peek()[0] == ",":
                    self.advance()
                    continue
                break
        self.expect("]", "']' closing the list", "lists look like [1, 2] or [toric]")
        return ListValue(tuple(items), self.span(open_tok))

    def parse_divisor_or_negative(self):
        minus = self.advance()
        nxt = self.peek()
        if nxt[0] == "int" and self.at_value_end(1):
            self.pos += 1
            return IntValue(-int(nxt[1]), self.span(minus))
        return self.parse_divisor(span=self.span(minus), leading_minus=True)

    def parse_divisor(self, span: Span | None = None, leading_minus: bool = False):
        span = span or self.span(self.peek())
        terms: list[tuple[int, str]] = []
        sign = -1 if leading_minus else 1
        while True:
            terms.append(self.parse_term(sign))
            kind = self.peek()[0]
            if kind == "+":
                sign = 1
                self.advance()
            elif kind == "-":
                sign = -1
                self.advance()
            else:
                break
        if not self.at_value_end():
            tok = self.peek()
            raise DslError(
                SYNTAX,
                f"unexpected {tok[1]!r} in a divisor expression",
                self.span(tok),
                "divisor terms look like 3*H, H, or -E1, joined with + and -",
            )
        return DivisorValue(tuple(terms), span)

    def parse_term(self, sign: int) -> tuple[int, str]:
        tok = self.peek()
        if tok[0] == "int":
            self.advance()
            coeff = sign * int(tok[1])
            self.expect(
                "*",
                "'*' after a coefficient",
                "write coefficients as 3*H; a bare integer is not a divisor term",
            )
            name = self.expect("ident", "a basis name after '*'")
            return (coeff, name[1])
        if tok[0] == "ident":
            self.advance()
            return (sign, tok[1])
        raise DslError(
            SYNTAX,
            f"expected a divisor term, found {tok[1] or 'end of line'!r}",
            self.span(tok),
            "divisor terms look like 3*H, H, or -E1",
        )

    def parse_arguments(self) -> tuple[Argument, ...]:
        self.expect("(", "'(' to open the argument list")
        args: list[Argument] = []
        if self.peek()[0] != ")":
            while True:
                args.append(self.parse_argument())
                if self.peek()[0] == ",":
                    self.advance()
                    continue
                break
        self.expect(")", "')' closing the argument list")
        return tuple(args)

    def parse_argument(self) -> Argument:
        tok = self.peek()
        if (
            tok[0] == "ident"
            and self.tokens[self.pos + 1][0] == "="
            and tok[1] not in ("true", "false")
        ):
            self.advance()
            self.advance()
            value = self.parse_value()
            return Argument(tok[1], value, self.span(tok))
        value = self.parse_value()
        # a value's span is that of its first token
        return Argument(None, value, value.span)


# A line ends at \n, \r\n or \r; the other characters that str.splitlines
# breaks at, such as \x0c or U+2028, are blanks inside a line.
_LINE_END = re.compile(r"\r\n?|\n")


def parse(text: str) -> Program:
    statements = []
    defined: set[str] = set()
    for line_no, line in enumerate(_LINE_END.split(text), start=1):
        tokens = _lex_line(line, line_no)
        if tokens[0][0] == "eol":
            continue
        parser = _LineParser(tokens, line_no)
        head = parser.expect(
            "ident",
            "a statement keyword",
            "statements start with let, compute, or assert_confn",
        )
        if head[1] == "let":
            stmt = _parse_let(parser, defined)
        elif head[1] == "compute":
            stmt = _parse_compute(parser, defined)
        elif head[1] == "assert_confn":
            stmt = _parse_assert(parser, defined)
        else:
            raise DslError(
                SYNTAX,
                f"unknown statement {head[1]!r}",
                parser.span(head),
                "statements start with let, compute, or assert_confn",
            )
        parser.expect("eol", "end of line", "one statement per line")
        statements.append(stmt)
    return Program(tuple(statements))


def _parse_let(parser: _LineParser, defined: set[str]) -> Let:
    tok = parser.expect("ident", "a name to bind")
    name = tok[1]
    if name in defined:
        raise DslError(
            NAME,
            f"{name!r} is already defined",
            parser.span(tok),
            "names cannot be redefined; pick a fresh one",
        )
    if name in CONSTRUCTORS:
        raise DslError(
            NAME,
            f"{name!r} is a constructor name",
            parser.span(tok),
            "bind a different identifier",
        )
    if name in ("true", "false"):
        raise DslError(
            NAME,
            f"{name!r} is a boolean literal",
            parser.span(tok),
            "bind a different identifier",
        )
    parser.expect("=", "'='")
    ctor = parser.expect("ident", "a constructor name")
    if ctor[1] not in CONSTRUCTORS:
        raise DslError(
            NAME,
            f"unknown constructor {ctor[1]!r}",
            parser.span(ctor),
            "one of: " + ", ".join(CONSTRUCTORS),
        )
    arguments = parser.parse_arguments()
    defined.add(name)
    return Let(name, ctor[1], arguments, parser.span(tok))


def _defined_name(parser: _LineParser, defined: set[str]) -> tuple[str, Span]:
    tok = parser.expect("ident", "a defined name")
    name = tok[1]
    if name not in defined:
        raise DslError(
            NAME,
            f"{name!r} is not defined",
            parser.span(tok),
            "define it first with: let " + name + " = <constructor>(...)",
        )
    return name, parser.span(tok)


def _parse_compute(parser: _LineParser, defined: set[str]) -> Compute:
    return Compute(*_defined_name(parser, defined))


def _parse_assert(parser: _LineParser, defined: set[str]) -> AssertConfn:
    name, span = _defined_name(parser, defined)
    tok = parser.peek()
    if tok[0] == "=":
        parser.advance()
        value, _ = _parse_signed_int(parser)
        return AssertConfn(name, value, None, None, span)
    if tok[0] == "ident" and tok[1] == "in":
        parser.advance()
        parser.expect("[", "'[' opening the interval")
        lo, lo_tok = _parse_signed_int(parser)
        parser.expect(",", "','")
        hi, _ = _parse_signed_int(parser)
        parser.expect("]", "']' closing the interval")
        if lo > hi:
            raise DslError(
                SYNTAX,
                f"the lower end {lo} exceeds the upper end {hi}",
                parser.span(lo_tok),
                "an interval [lo, hi] needs lo <= hi",
            )
        return AssertConfn(name, None, lo, hi, span)
    raise DslError(
        SYNTAX,
        f"expected '=' or 'in', found {tok[1] or 'end of line'!r}",
        parser.span(tok),
        "assert_confn X = 2   or   assert_confn X in [0, 2]",
    )


def _parse_signed_int(parser: _LineParser) -> tuple[int, _Tok]:
    """The integer and its first token, which is the '-' of a negative one."""
    first = parser.peek()
    sign = 1
    if first[0] == "-":
        parser.advance()
        sign = -1
    tok = parser.expect("int", "an integer")
    return sign * int(tok[1]), first
