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

``parse`` returns a Program whose statements carry source spans, and
raises DslError with a category (lexical, syntax, name, type), position,
and a one-line hint on malformed input.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Span:
    line: int
    column: int

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


@dataclass(frozen=True)
class IntValue:
    value: int
    span: Span


@dataclass(frozen=True)
class BoolValue:
    value: bool
    span: Span


@dataclass(frozen=True)
class NameValue:
    """A bare identifier: a descriptor reference, basis name, or flag."""

    name: str
    span: Span


@dataclass(frozen=True)
class DivisorValue:
    """Integer combination of basis names, e.g. ((3,"H"), (-1,"E1"))."""

    terms: tuple[tuple[int, str], ...]
    span: Span


@dataclass(frozen=True)
class ListValue:
    items: tuple
    span: Span


@dataclass(frozen=True)
class Argument:
    keyword: str | None
    value: object
    span: Span


# statements -----------------------------------------------------------


@dataclass(frozen=True)
class Let:
    name: str
    constructor: str
    arguments: tuple[Argument, ...]
    span: Span


@dataclass(frozen=True)
class Compute:
    name: str
    span: Span


@dataclass(frozen=True)
class AssertConfn:
    name: str
    exact: int | None
    lo: int | None
    hi: int | None
    span: Span


@dataclass(frozen=True)
class Program:
    statements: tuple


# lexer ----------------------------------------------------------------

_SYMBOLS = "()[]=,*+-"


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "int" | a symbol | "eol"
    text: str
    span: Span


def _lex_line(text: str, line_no: int) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "#":
            break
        if ch.isspace():
            i += 1
            continue
        span = Span(line_no, i + 1)
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(_Token("int", text[i:j], span))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], span))
            i = j
        elif ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, span))
            i += 1
        else:
            raise DslError(
                LEXICAL,
                f"unexpected character {ch!r}",
                span,
                "allowed: identifiers, integers, and () [] = , * + -",
            )
    tokens.append(_Token("eol", "", Span(line_no, len(text) + 1)))
    return tokens


# parser ---------------------------------------------------------------


class _LineParser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eol":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str, hint: str = "") -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            found = tok.text or "end of line"
            raise DslError(
                SYNTAX, f"expected {what}, found {found!r}", tok.span, hint
            )
        return self.advance()

    def at_value_end(self) -> bool:
        return self.peek().kind in (",", ")", "]", "eol")

    def parse_value(self):
        tok = self.peek()
        if tok.kind == "[":
            return self.parse_list()
        if tok.kind == "-":
            return self.parse_divisor_or_negative()
        if tok.kind == "int":
            start = self.pos
            self.advance()
            if self.at_value_end():
                return IntValue(int(tok.text), tok.span)
            self.pos = start
            return self.parse_divisor()
        if tok.kind == "ident":
            if tok.text in ("true", "false"):
                self.advance()
                return BoolValue(tok.text == "true", tok.span)
            start = self.pos
            self.advance()
            if self.at_value_end():
                return NameValue(tok.text, tok.span)
            self.pos = start
            return self.parse_divisor()
        raise DslError(
            SYNTAX,
            f"expected a value, found {tok.text or 'end of line'!r}",
            tok.span,
            "values are integers, true/false, names, divisor sums, or [lists]",
        )

    def parse_list(self) -> ListValue:
        open_tok = self.expect("[", "'['")
        items = []
        if self.peek().kind != "]":
            while True:
                items.append(self.parse_value())
                if self.peek().kind == ",":
                    self.advance()
                    continue
                break
        self.expect("]", "']' closing the list", "lists look like [1, 2] or [toric]")
        return ListValue(tuple(items), open_tok.span)

    def parse_divisor_or_negative(self):
        minus = self.advance()
        nxt = self.peek()
        if nxt.kind == "int":
            start = self.pos
            self.advance()
            if self.at_value_end():
                return IntValue(-int(nxt.text), minus.span)
            self.pos = start
        return self.parse_divisor(span=minus.span, leading_minus=True)

    def parse_divisor(self, span: Span | None = None, leading_minus: bool = False):
        first = self.peek()
        span = span or first.span
        terms: list[tuple[int, str]] = []
        sign = -1 if leading_minus else 1
        while True:
            terms.append(self.parse_term(sign))
            tok = self.peek()
            if tok.kind == "+":
                sign = 1
                self.advance()
            elif tok.kind == "-":
                sign = -1
                self.advance()
            else:
                break
        if not self.at_value_end():
            tok = self.peek()
            raise DslError(
                SYNTAX,
                f"unexpected {tok.text!r} in a divisor expression",
                tok.span,
                "divisor terms look like 3*H, H, or -E1, joined with + and -",
            )
        return DivisorValue(tuple(terms), span)

    def parse_term(self, sign: int) -> tuple[int, str]:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            coeff = sign * int(tok.text)
            self.expect(
                "*",
                "'*' after a coefficient",
                "write coefficients as 3*H; a bare integer is not a divisor term",
            )
            name = self.expect("ident", "a basis name after '*'")
            return (coeff, name.text)
        if tok.kind == "ident":
            self.advance()
            return (sign, tok.text)
        raise DslError(
            SYNTAX,
            f"expected a divisor term, found {tok.text or 'end of line'!r}",
            tok.span,
            "divisor terms look like 3*H, H, or -E1",
        )

    def parse_arguments(self) -> tuple[Argument, ...]:
        self.expect("(", "'(' to open the argument list")
        args: list[Argument] = []
        if self.peek().kind != ")":
            while True:
                args.append(self.parse_argument())
                if self.peek().kind == ",":
                    self.advance()
                    continue
                break
        self.expect(")", "')' closing the argument list")
        return tuple(args)

    def parse_argument(self) -> Argument:
        tok = self.peek()
        if (
            tok.kind == "ident"
            and self.tokens[self.pos + 1].kind == "="
            and tok.text not in ("true", "false")
        ):
            self.advance()
            self.advance()
            value = self.parse_value()
            return Argument(tok.text, value, tok.span)
        value = self.parse_value()
        return Argument(None, value, tok.span)


def parse(text: str) -> Program:
    statements = []
    defined: set[str] = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = _lex_line(line, line_no)
        if tokens[0].kind == "eol":
            continue
        parser = _LineParser(tokens)
        head = parser.expect(
            "ident",
            "a statement keyword",
            "statements start with let, compute, or assert_confn",
        )
        if head.text == "let":
            stmt = _parse_let(parser, defined)
        elif head.text == "compute":
            stmt = _parse_compute(parser, defined)
        elif head.text == "assert_confn":
            stmt = _parse_assert(parser, defined)
        else:
            raise DslError(
                SYNTAX,
                f"unknown statement {head.text!r}",
                head.span,
                "statements start with let, compute, or assert_confn",
            )
        parser.expect("eol", "end of line", "one statement per line")
        statements.append(stmt)
    return Program(tuple(statements))


def _parse_let(parser: _LineParser, defined: set[str]) -> Let:
    name = parser.expect("ident", "a name to bind")
    if name.text in defined:
        raise DslError(
            NAME,
            f"{name.text!r} is already defined",
            name.span,
            "names cannot be redefined; pick a fresh one",
        )
    if name.text in CONSTRUCTORS:
        raise DslError(
            NAME,
            f"{name.text!r} is a constructor name",
            name.span,
            "bind a different identifier",
        )
    parser.expect("=", "'='")
    ctor = parser.expect("ident", "a constructor name")
    if ctor.text not in CONSTRUCTORS:
        raise DslError(
            NAME,
            f"unknown constructor {ctor.text!r}",
            ctor.span,
            "one of: " + ", ".join(CONSTRUCTORS),
        )
    arguments = parser.parse_arguments()
    defined.add(name.text)
    return Let(name.text, ctor.text, arguments, name.span)


def _require_defined(name: _Token, defined: set[str]) -> None:
    if name.text not in defined:
        raise DslError(
            NAME,
            f"{name.text!r} is not defined",
            name.span,
            "define it first with: let "
            + name.text
            + " = <constructor>(...)",
        )


def _parse_compute(parser: _LineParser, defined: set[str]) -> Compute:
    name = parser.expect("ident", "a defined name")
    _require_defined(name, defined)
    return Compute(name.text, name.span)


def _parse_assert(parser: _LineParser, defined: set[str]) -> AssertConfn:
    name = parser.expect("ident", "a defined name")
    _require_defined(name, defined)
    tok = parser.peek()
    if tok.kind == "=":
        parser.advance()
        value = _parse_signed_int(parser)
        return AssertConfn(name.text, value, None, None, name.span)
    if tok.kind == "ident" and tok.text == "in":
        parser.advance()
        parser.expect("[", "'[' opening the interval")
        lo = _parse_signed_int(parser)
        parser.expect(",", "','")
        hi = _parse_signed_int(parser)
        parser.expect("]", "']' closing the interval")
        return AssertConfn(name.text, None, lo, hi, name.span)
    raise DslError(
        SYNTAX,
        f"expected '=' or 'in', found {tok.text or 'end of line'!r}",
        tok.span,
        "assert_confn X = 2   or   assert_confn X in [0, 2]",
    )


def _parse_signed_int(parser: _LineParser) -> int:
    sign = 1
    if parser.peek().kind == "-":
        parser.advance()
        sign = -1
    tok = parser.expect("int", "an integer")
    return sign * int(tok.text)
