"""Descriptor program parsing: grammar, spans, and error categories."""

import string

import pytest
from hypothesis import example, given, settings, strategies as st

from confn.dsl import (
    CONSTRUCTORS,
    LEXICAL,
    NAME,
    SYNTAX,
    Argument,
    AssertConfn,
    BoolValue,
    Compute,
    DivisorValue,
    DslError,
    IntValue,
    Let,
    ListValue,
    NameValue,
    _lex_line,
    parse,
)


def test_minimal_program():
    program = parse(
        """
        let X = projective_space(3)
        compute X
        assert_confn X = 4
        """
    )
    let, comp, chk = program.statements
    assert isinstance(let, Let)
    assert let.name == "X"
    assert let.constructor == "projective_space"
    assert [a.keyword for a in let.arguments] == [None]
    assert isinstance(let.arguments[0].value, IntValue)
    assert let.arguments[0].value.value == 3
    assert isinstance(comp, Compute) and comp.name == "X"
    assert isinstance(chk, AssertConfn)
    assert (chk.exact, chk.lo, chk.hi) == (4, None, None)


def test_keyword_arguments_and_lists():
    program = parse(
        "let X = complete_intersection(3, degrees = [2, 2], very_general = false)"
    )
    (let,) = program.statements
    kw = {a.keyword: a.value for a in let.arguments if a.keyword}
    assert isinstance(kw["degrees"], ListValue)
    assert [item.value for item in kw["degrees"].value] == [2, 2]
    assert isinstance(kw["very_general"], BoolValue)
    assert kw["very_general"].value is False


def test_divisor_literals():
    program = parse(
        """
        let S = delpezzo7()
        let Y = pipeline_n3k1(S, polarization = 3*H - E1 - E2)
        """
    )
    _, let = program.statements
    div = let.arguments[1].value
    assert isinstance(div, DivisorValue)
    assert div.value == ((3, "H"), (-1, "E1"), (-1, "E2"))


def test_divisor_leading_minus_and_bare_name():
    # argument references like X resolve at evaluation time, not parse time
    program = parse("let Y = cyclic_cover(X, branch = -2*A + B, degree = 2)")
    (let,) = program.statements
    div = let.arguments[1].value
    assert div.value == ((-2, "A"), (1, "B"))
    single = parse("let Z = cyclic_cover(W, branch = F, degree = 3)")
    (let2,) = single.statements
    assert isinstance(let2.arguments[1].value, NameValue)


def test_negative_integer_value():
    program = parse("let C = curve(0)\nassert_confn C in [-1, 3]")
    _, chk = program.statements
    assert (chk.lo, chk.hi) == (-1, 3)


def test_comments_and_blank_lines():
    program = parse(
        """
        # build the del Pezzo
        let S = delpezzo7()   # seven is the degree

        compute S
        """
    )
    assert len(program.statements) == 2


def test_a_comment_ends_at_a_newline_not_at_a_line_separator():
    (let,) = parse("# note\u2028more text\nlet X = curve(0)").statements
    assert (let.name, let.span.line) == ("X", 2)


def test_a_form_feed_inside_a_call_is_a_blank():
    (let,) = parse("let P = projective_space(\x0c2)").statements
    value = let.arguments[0].value
    assert (value.value, value.span.column) == (2, 27)


@pytest.mark.parametrize(
    "blank", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_only_newlines_count_toward_the_line_number(blank):
    # str.splitlines would break the line at each of these
    err = _error(f"let X = curve(0){blank}\r\ncompute X\rcompute {blank}Y\n")
    assert err.category == NAME
    assert (err.span.line, err.span.column) == (3, 10)


def test_interval_assertion_parses():
    program = parse("let A = abelian(2)\nassert_confn A in [0, 2]")
    _, chk = program.statements
    assert chk.exact is None
    assert (chk.lo, chk.hi) == (0, 2)


# ------------------------------------------------------------ error paths


def _error(text: str) -> DslError:
    with pytest.raises(DslError) as err:
        parse(text)
    return err.value


def test_lexical_error_with_span():
    err = _error("let X = projective_space(3); compute X")
    assert err.category == LEXICAL
    assert err.span.line == 1
    assert err.span.column == 28
    assert "allowed" in err.hint


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("let P = projective_space(\u00b2)", 1, 26),
        ("let X = projective_space(3)\nassert_confn X = \u00b2", 2, 18),
        ("let P = projective_space(3\u00b2)", 1, 27),
    ],
)
def test_non_decimal_digit_is_a_lexical_error(text, line, column):
    # str.isdigit accepts superscripts that int() rejects
    err = _error(text)
    assert err.category == LEXICAL
    assert "unexpected character '\u00b2'" in str(err)
    assert (err.span.line, err.span.column) == (line, column)


def test_any_decimal_digit_reads_as_an_integer():
    program = parse("let P = projective_space(\u0663)\nassert_confn P = \u0664")
    let, chk = program.statements
    assert let.arguments[0].value.value == 3
    assert chk.exact == 4


def test_superscript_stays_valid_inside_a_name():
    program = parse("let x\u00b2 = projective_space(2)\ncompute x\u00b2")
    assert program.statements[0].name == "x\u00b2"


def test_syntax_error_missing_paren():
    err = _error("let X = projective_space(3")
    assert err.category == SYNTAX
    assert "')'" in str(err)


def test_syntax_error_statement_keyword():
    err = _error("make X = projective_space(3)")
    assert err.category == SYNTAX
    assert "let, compute, or assert_confn" in err.hint


def test_syntax_error_bad_assert_shape():
    err = _error("let X = projective_space(2)\nassert_confn X near 3")
    assert err.category == SYNTAX
    assert err.span.line == 2
    assert "in [0, 2]" in err.hint


def test_syntax_error_trailing_tokens():
    err = _error("compute X Y")
    # X is undefined, that fires first as a name error
    assert err.category == NAME
    err2 = _error("let X = projective_space(2)\ncompute X Y")
    assert err2.category == SYNTAX
    assert "one statement per line" in err2.hint


def test_name_error_undefined_target():
    err = _error("compute X")
    assert err.category == NAME
    assert "not defined" in str(err)
    assert "let X = " in err.hint


def test_name_error_redefinition():
    err = _error("let X = curve(1)\nlet X = curve(2)")
    assert err.category == NAME
    assert "already defined" in str(err)
    assert err.span.line == 2


def test_name_error_constructor_shadowing():
    err = _error("let curve = curve(1)")
    assert err.category == NAME
    assert "constructor name" in str(err)


@pytest.mark.parametrize("name", ["true", "false"])
def test_name_error_boolean_literal(name):
    err = _error(f"let {name} = curve(0)")
    assert err.category == NAME
    assert f"{name!r} is a boolean literal" in str(err)
    assert (err.span.line, err.span.column) == (1, 5)


@pytest.mark.parametrize(
    "interval, message",
    [
        ("[3, 1]", "the lower end 3 exceeds the upper end 1"),
        ("[-1, -2]", "the lower end -1 exceeds the upper end -2"),
    ],
)
def test_empty_interval_is_rejected_at_its_lower_end(interval, message):
    err = _error(f"let X = curve(0)\nassert_confn X in {interval}")
    assert err.category == SYNTAX
    assert message in str(err)
    assert (err.span.line, err.span.column) == (2, 20)


def test_name_error_unknown_constructor():
    err = _error("let X = projective_plane(2)")
    assert err.category == NAME
    assert "unknown constructor" in str(err)
    assert "projective_space" in err.hint


def test_bare_coefficient_needs_star():
    err = _error("let Y = cyclic_cover(X, branch = 2 H, degree = 2)")
    assert err.category == SYNTAX
    assert "3*H" in err.hint


def test_error_message_carries_position():
    err = _error("let X = projective_space(3")
    rendered = str(err)
    assert "line 1" in rendered
    assert "column" in rendered

# Every place the parser raises, with the category, position, message and
# hint it reported before the parser was rewritten over token indices,
# kept as literals so that a rewrite is held to the same errors.
_ALLOWED = "allowed: identifiers, integers, and () [] = , * + -"
_KEYWORDS = "statements start with let, compute, or assert_confn"
_REBIND = "bind a different identifier"
_CONSTRUCTORS = (
    "one of: projective_space, complete_intersection, curve, hirzebruch1, "
    "delpezzo7, abelian, custom, product, blowup_point, hypersurface_section, "
    "cyclic_cover, pipeline_n2k1, pipeline_n3k1, pipeline_simple_surface, "
    "pipeline_simple_variety"
)
_VALUES = "values are integers, true/false, names, divisor sums, or [lists]"
_LISTS = "lists look like [1, 2] or [toric]"
_COEFFICIENT = "write coefficients as 3*H; a bare integer is not a divisor term"
_TERMS = "divisor terms look like 3*H, H, or -E1"
_ONE_PER_LINE = "one statement per line"
_ARGUMENTS = "arguments must be names bound by an earlier let"

ERROR_TABLE = [
    ("let X = projective_space(3); compute X", LEXICAL, 1, 28,
     "unexpected character ';'", _ALLOWED),
    ("let P = projective_space(3\u00b2)", LEXICAL, 1, 27,
     "unexpected character '\u00b2'", _ALLOWED),
    ("= X", SYNTAX, 1, 1,
     "expected a statement keyword, found '='", _KEYWORDS),
    ("make X = projective_space(3)", SYNTAX, 1, 1,
     "unknown statement 'make'", _KEYWORDS),
    ("let 3 = curve(0)", SYNTAX, 1, 5,
     "expected a name to bind, found '3'", ""),
    ("let X = curve(1)\nlet X = curve(2)", NAME, 2, 5,
     "'X' is already defined", "names cannot be redefined; pick a fresh one"),
    ("let curve = curve(1)", NAME, 1, 5,
     "'curve' is a constructor name", _REBIND),
    ("let true = curve(0)", NAME, 1, 5,
     "'true' is a boolean literal", _REBIND),
    ("let X curve(0)", SYNTAX, 1, 7,
     "expected '=', found 'curve'", ""),
    ("let X = 3", SYNTAX, 1, 9,
     "expected a constructor name, found '3'", ""),
    ("let X = projective_plane(2)", NAME, 1, 9,
     "unknown constructor 'projective_plane'", _CONSTRUCTORS),
    ("let X = curve 0", SYNTAX, 1, 15,
     "expected '(' to open the argument list, found '0'", ""),
    ("let X = projective_space(3", SYNTAX, 1, 27,
     "expected ')' closing the argument list, found 'end of line'", ""),
    ("let X = curve(,)", SYNTAX, 1, 15,
     "expected a value, found ','", _VALUES),
    ("let X = complete_intersection(3, degrees = [2, 2)", SYNTAX, 1, 49,
     "expected ']' closing the list, found ')'", _LISTS),
    ("let X = complete_intersection(3, degrees = [2, 2", SYNTAX, 1, 49,
     "expected ']' closing the list, found 'end of line'", _LISTS),
    ("let X = complete_intersection(3, degrees = [1, ])", SYNTAX, 1, 48,
     "expected a value, found ']'", _VALUES),
    ("let Y = cyclic_cover(X, branch = H H, degree = 2)", SYNTAX, 1, 36,
     "unexpected 'H' in a divisor expression",
     "divisor terms look like 3*H, H, or -E1, joined with + and -"),
    # a nested constructor call, named at the call rather than at its '('
    ("let C = product(F1, product(P1, F1))", SYNTAX, 1, 21,
     "a call of 'product' cannot be an argument", _ARGUMENTS),
    ("let X = curve(0)\nlet Y = curve(genus = [curve(1)])", SYNTAX, 2, 24,
     "a call of 'curve' cannot be an argument", _ARGUMENTS),
    ("let Y = cyclic_cover(X, branch = 2 H, degree = 2)", SYNTAX, 1, 36,
     "expected '*' after a coefficient, found 'H'", _COEFFICIENT),
    ("let Y = cyclic_cover(X, branch = -3 H, degree = 2)", SYNTAX, 1, 37,
     "expected '*' after a coefficient, found 'H'", _COEFFICIENT),
    ("let Y = cyclic_cover(X, branch = 2*3, degree = 2)", SYNTAX, 1, 36,
     "expected a basis name after '*', found '3'", ""),
    ("let Y = cyclic_cover(X, branch = H + , degree = 2)", SYNTAX, 1, 38,
     "expected a divisor term, found ','", _TERMS),
    ("let Y = cyclic_cover(X, branch = -, degree = 2)", SYNTAX, 1, 35,
     "expected a divisor term, found ','", _TERMS),
    ("let X = curve(genus = )", SYNTAX, 1, 23,
     "expected a value, found ')'", _VALUES),
    ("let X = curve(true = 1)", SYNTAX, 1, 20,
     "expected ')' closing the argument list, found '='", ""),
    ("let X = curve(0 # a comment", SYNTAX, 1, 28,
     "expected ')' closing the argument list, found 'end of line'", ""),
    ("let X = projective_space(3) compute", SYNTAX, 1, 29,
     "expected end of line, found 'compute'", _ONE_PER_LINE),
    ("let X = curve(0)\u2028)", SYNTAX, 1, 18,
     "expected end of line, found ')'", _ONE_PER_LINE),
    ("compute 3", SYNTAX, 1, 9,
     "expected a defined name, found '3'", ""),
    ("compute X", NAME, 1, 9,
     "'X' is not defined", "define it first with: let X = <constructor>(...)"),
    ("\tlet X = curve(0)\n\ncompute\tY", NAME, 3, 9,
     "'Y' is not defined", "define it first with: let Y = <constructor>(...)"),
    ("let X = projective_space(2)\ncompute X Y", SYNTAX, 2, 11,
     "expected end of line, found 'Y'", _ONE_PER_LINE),
    ("let X = projective_space(2)\nassert_confn X near 3", SYNTAX, 2, 16,
     "expected '=' or 'in', found 'near'",
     "assert_confn X = 2   or   assert_confn X in [0, 2]"),
    ("let X = curve(0)\nassert_confn X in 0, 2]", SYNTAX, 2, 19,
     "expected '[' opening the interval, found '0'", ""),
    ("let X = curve(0)\nassert_confn X in [0 2]", SYNTAX, 2, 22,
     "expected ',', found '2'", ""),
    ("let X = curve(0)\nassert_confn X in [0, 2", SYNTAX, 2, 24,
     "expected ']' closing the interval, found 'end of line'", ""),
    ("let X = curve(0)\nassert_confn X in [3, 1]", SYNTAX, 2, 20,
     "the lower end 3 exceeds the upper end 1", "an interval [lo, hi] needs lo <= hi"),
    ("let X = curve(0)\nassert_confn X = two", SYNTAX, 2, 18,
     "expected an integer, found 'two'", ""),
    ("let X = curve(0)\nassert_confn X = -x", SYNTAX, 2, 19,
     "expected an integer, found 'x'", ""),
    ("let X = curve(0)\nassert_confn X =", SYNTAX, 2, 17,
     "expected an integer, found 'end of line'", ""),
]


@pytest.mark.parametrize("text, category, line, column, message, hint", ERROR_TABLE)
def test_each_error_site_keeps_its_category_position_message_and_hint(
    text, category, line, column, message, hint
):
    err = _error(text)
    assert (err.category, err.span.line, err.span.column, err.hint) == (
        category, line, column, hint
    )
    rendered = f"{category} error at line {line}, column {column}: {message}"
    assert str(err) == rendered + (f"\n  hint: {hint}" if hint else "")


# ------------------------------------------------------------------ lexer

SYMBOLS = "()[]=,*+-"


def char_loop_lex(text: str):
    """The lexer before the compiled pattern, one character at a time: the
    line's tokens as (kind, text, column), or the (message, column) of its
    lexical error."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "#":
            break
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(("int", text[i:j], i + 1))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i + 1))
            i = j
        elif ch in SYMBOLS:
            tokens.append((ch, ch, i + 1))
            i += 1
        else:
            return (f"unexpected character {ch!r}", i + 1)
    tokens.append(("eol", "", len(text) + 1))
    return tokens


LEXER_ALPHABET = (
    SYMBOLS
    + "#"
    + string.ascii_letters
    + string.digits
    + " \u00e9\u00df\u00b2\u00bd\u0663\t\xa0\x0c"
)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.text(alphabet=LEXER_ALPHABET, max_size=30))
@example("x\u00b2 = 3\u00b2")
@example("_\u00e9\u0663 \u00bd")
def test_lexer_agrees_with_the_character_loop(line):
    expected = char_loop_lex(line)
    if isinstance(expected, list):
        assert _lex_line(line, 7) == expected
        return
    message, column = expected
    with pytest.raises(DslError) as err:
        _lex_line(line, 7)
    assert err.value.category == LEXICAL
    assert (err.value.span.line, err.value.span.column) == (7, column)
    assert str(err.value).startswith(f"lexical error at line 7, column {column}: {message}\n")


# ------------------------------------------------------------------ spans

_BLANKS = st.sampled_from(["", " ", "  ", "\t", "\x0c", "   "])
_WORDS = st.sampled_from(["H", "E1", "X", "toric", "_b2", "x\u00b2", "\u00e9t"])


def _is_word(text: str) -> bool:
    return text[:1].isalnum() or text[:1] == "_"


class _Line:
    """A statement's text, written token by token with drawn blanks, and
    the (node type, column) of each node at its first token, in the
    order ``_spans`` walks the parsed nodes."""

    def __init__(self, draw):
        self.draw = draw
        self.text = ""
        self.nodes = []

    def token(self, word: str, *nodes: str) -> None:
        blanks = self.draw(_BLANKS)
        # two words run together without a blank between them
        if not blanks and _is_word(self.text[-1:]) and _is_word(word):
            blanks = " "
        self.text += blanks
        self.nodes += [(node, len(self.text) + 1) for node in nodes]
        self.text += word

    def value(self, depth: int, *nodes: str) -> None:
        kinds = ["int", "negative", "bool", "name", "divisor"]
        kind = self.draw(st.sampled_from(kinds + ["list"] if depth < 2 else kinds))
        if kind == "int":
            self.token(str(self.draw(st.integers(0, 99))), *nodes, "IntValue")
        elif kind == "negative":
            self.token("-", *nodes, "IntValue")
            self.token(str(self.draw(st.integers(0, 99))))
        elif kind == "bool":
            self.token(self.draw(st.sampled_from(["true", "false"])), *nodes, "BoolValue")
        elif kind == "name":
            self.token(self.draw(_WORDS), *nodes, "NameValue")
        elif kind == "divisor":
            # a single unsigned term without a coefficient is a name
            terms = self.draw(
                st.lists(
                    st.tuples(st.sampled_from("+-"), st.none() | st.integers(0, 9), _WORDS),
                    min_size=1,
                    max_size=3,
                ).filter(lambda terms: len(terms) > 1 or terms[0][:2] != ("+", None))
            )
            for k, (sign, coeff, word) in enumerate(terms):
                start = nodes + ("DivisorValue",) if k == 0 else ()
                if sign == "-" or k > 0:
                    self.token(sign, *start)
                    start = ()
                if coeff is not None:
                    self.token(str(coeff), *start)
                    self.token("*")
                    start = ()
                self.token(word, *start)
        else:
            self.token("[", *nodes, "ListValue")
            for k in range(self.draw(st.integers(0, 3))):
                if k:
                    self.token(",")
                self.value(depth + 1)
            self.token("]")


def _spans(node):
    """(node type, span column) of ``node`` and the nodes inside it."""
    yield type(node).__name__, node.span.column
    if isinstance(node, Let):
        for argument in node.arguments:
            yield from _spans(argument)
    elif isinstance(node, Argument):
        yield from _spans(node.value)
    elif isinstance(node, ListValue):
        for item in node.value:
            yield from _spans(item)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_each_span_points_at_its_nodes_first_token(data):
    name = data.draw(st.sampled_from(["X", "Y2", "_z", "x\u00b2"]))
    lines = []
    let = _Line(data.draw)
    # a statement's span is that of its name
    let.token("let")
    let.token(name, "Let")
    let.token("=")
    let.token(data.draw(st.sampled_from(CONSTRUCTORS)))
    let.token("(")
    for k in range(data.draw(st.integers(0, 3))):
        if k:
            let.token(",")
        keyword = data.draw(st.none() | _WORDS)
        if keyword is None:
            let.value(0, "Argument")
        else:
            let.token(keyword, "Argument")
            let.token("=")
            let.value(0)
    let.token(")")
    lines.append(let)
    compute = _Line(data.draw)
    compute.token("compute")
    compute.token(name, "Compute")
    lines.append(compute)
    check = _Line(data.draw)
    check.token("assert_confn")
    check.token(name, "AssertConfn")
    lo = data.draw(st.integers(-9, 9))
    if data.draw(st.booleans()):
        check.token("=")
        for word in ("-", str(-lo)) if lo < 0 else (str(lo),):
            check.token(word)
    else:
        hi = lo + data.draw(st.integers(0, 9))
        for word in ("in", "[", str(lo), ",", str(hi), "]"):
            check.token(word)
    lines.append(check)
    if data.draw(st.booleans()):
        check.token("# note")
    program = parse("\n".join(line.text for line in lines))
    assert len(program.statements) == len(lines)
    for line_no, (stmt, line) in enumerate(zip(program.statements, lines), start=1):
        assert list(_spans(stmt)) == line.nodes, line.text
        assert stmt.span.line == line_no
