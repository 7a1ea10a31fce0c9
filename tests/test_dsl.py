"""Descriptor program parsing: grammar, spans, and error categories."""

import pytest

from confn.dsl import (
    LEXICAL,
    NAME,
    SYNTAX,
    AssertConfn,
    BoolValue,
    Compute,
    DivisorValue,
    DslError,
    IntValue,
    Let,
    ListValue,
    NameValue,
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
    assert [item.value for item in kw["degrees"].items] == [2, 2]
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
    assert div.terms == ((3, "H"), (-1, "E1"), (-1, "E2"))


def test_divisor_leading_minus_and_bare_name():
    # argument references like X resolve at evaluation time, not parse time
    program = parse("let Y = cyclic_cover(X, branch = -2*A + B, degree = 2)")
    (let,) = program.statements
    div = let.arguments[1].value
    assert div.terms == ((-2, "A"), (1, "B"))
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
