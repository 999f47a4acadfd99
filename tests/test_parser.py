import time
from collections import Counter
from fractions import Fraction

import pytest

from tropdiff import parser
from tropdiff.diffpoly import DiffPoly, ExponentMatrix, Poly, tropicalize_poly
from tropdiff.errors import PolySyntaxError, UnknownVariable, ZetaUnavailable
from tropdiff.fields import FieldBackend, ResidueElem
from tropdiff.parser import parse_poly, print_poly
from tropdiff.semiring import TropNum
from tropdiff.series import PowerSeries
from tropdiff.verify import exp_equation, exp_tropical_closed_form

from helpers import (EISEN3, EISEN5, PADIC3, TRIVIAL, dp_zero, expr_diffpoly, expr_text,
                     initial_at, rand_diffpoly, rand_expr_tree, rng_for)

X = ExponentMatrix.var(0, 0)
X3 = ExponentMatrix.var(0, 3)


def test_parse_worked_equation():
    f = parse_poly("x' - 3*zeta*t^2*x", EISEN3, 1, 12)
    assert f == exp_equation(3, 12)[1]


def test_parse_micro_monomial():
    f = parse_poly("x*x^(3)", PADIC3, 1, 6)
    assert f == DiffPoly.make(PADIC3, 1, 6,
                              {X * X3: PowerSeries.one(PADIC3, 6)}.items())


def test_parse_zero():
    assert parse_poly("0", PADIC3, 1, 6).is_zero
    assert parse_poly("x - x", PADIC3, 1, 6).is_zero


def test_parse_precedence_corpus():
    def const(src):
        f = parse_poly(src, PADIC3, 1, 4)
        if f.is_zero:
            return Fraction(0)
        ((lam, series),) = f.terms
        assert lam.is_constant
        return series.coeffs[0].coeffs[0]

    assert const("1 - 2 - 3") == -4          # left-associative subtraction
    assert const("2*3^2") == 18              # ^ binds tighter than *
    assert const("12/4") == 3                 # rational literal, not division
    assert const("7/2") == Fraction(7, 2)
    assert const("(1 + 2)*(1 + 3)") == 12

    assert parse_poly("x^2*x", PADIC3, 1, 4) == parse_poly("x^3", PADIC3, 1, 4)
    assert parse_poly("x'''", PADIC3, 1, 4) == parse_poly("x^(3)", PADIC3, 1, 4)
    assert parse_poly("(x + 1)*(x + 1)", PADIC3, 1, 4) == \
        parse_poly("x^2 + 2*x + 1", PADIC3, 1, 4)
    assert parse_poly("x1' - x2", PADIC3, 2, 4) == \
        parse_poly("x1^(1) - x2^(0)", PADIC3, 2, 4)
    # x without an index means x1
    assert parse_poly("x", PADIC3, 2, 4) == parse_poly("x1", PADIC3, 2, 4)
    # leading minus is accepted on input
    assert parse_poly("-x + 1", PADIC3, 1, 4) == parse_poly("0 - x + 1", PADIC3, 1, 4)
    assert parse_poly("t^0", PADIC3, 1, 4) == parse_poly("1", PADIC3, 1, 4)


def test_parse_errors():
    with pytest.raises(PolySyntaxError):
        parse_poly("3x", PADIC3, 1, 4)  # no implicit multiplication
    with pytest.raises(PolySyntaxError):
        parse_poly("x +", PADIC3, 1, 4)
    with pytest.raises(PolySyntaxError):
        parse_poly("", PADIC3, 1, 4)
    with pytest.raises(PolySyntaxError):
        parse_poly("x^(2", PADIC3, 1, 4)
    with pytest.raises(PolySyntaxError):
        parse_poly("x^-2", PADIC3, 1, 4)
    with pytest.raises(PolySyntaxError):
        parse_poly("1/0", PADIC3, 1, 4)
    with pytest.raises(PolySyntaxError):
        parse_poly("x$", PADIC3, 1, 4)
    with pytest.raises(PolySyntaxError):
        parse_poly("y + 1", PADIC3, 1, 4)
    with pytest.raises(ZetaUnavailable):
        parse_poly("zeta*x", PADIC3, 1, 4)
    with pytest.raises(UnknownVariable):
        parse_poly("x2", PADIC3, 1, 4)
    err = None
    try:
        parse_poly("x + $", PADIC3, 1, 4)
    except PolySyntaxError as exc:
        err = exc
    assert err is not None and err.position == 4


@pytest.mark.parametrize("src, char, position", [
    ("x + \u0663", "\u0663", 4),  # ARABIC-INDIC DIGIT THREE
    ("x\uff11", "\uff11", 1),      # FULLWIDTH DIGIT ONE
    ("x\u00b2", "\u00b2", 1),      # SUPERSCRIPT TWO
    ("x^\u00b2", "\u00b2", 2),
    ("\u00b2*x", "\u00b2", 0),
], ids=["arabic-indic-three", "fullwidth-one", "superscript-index", "superscript-exponent",
        "superscript-literal"])
def test_digits_are_ascii(src, char, position):
    """Only 0-9 are digits: any other Unicode digit is an unexpected
    character at its position, not a number, an index or an exponent."""
    with pytest.raises(PolySyntaxError) as info:
        parse_poly(src, PADIC3, 1, 4)
    assert str(info.value) == f"unexpected character {char!r} (at position {position})"


def test_blanks_are_read_in_linear_time():
    """A million blanks after, before or instead of an expression are
    skipped one at a time: each input parses, or is refused, well within 1 s."""
    blanks = " " * 10 ** 6
    for src in ("x" + blanks, blanks + "x", "x +" + blanks + "1"):
        start = time.perf_counter()
        assert parse_poly(src, PADIC3, 1, 4).terms
        assert time.perf_counter() - start < 1.0, len(src)
    start = time.perf_counter()
    with pytest.raises(PolySyntaxError, match=r"unexpected 'end of input' \(at position "
                                              r"1000000\)"):
        parse_poly(blanks, PADIC3, 1, 4)
    assert time.perf_counter() - start < 1.0


def test_number_token_digit_limit(monkeypatch):
    """A number token longer than MAX_DIGITS is a syntax error at its position."""
    monkeypatch.setattr(parser, "MAX_DIGITS", 50)
    f = parse_poly("1" * 50 + "/" + "2" * 50, PADIC3, 1, 4)
    assert f.terms[0][1].coeffs[0].coeffs[0] == Fraction(int("1" * 50), int("2" * 50))
    with pytest.raises(PolySyntaxError, match="a number of 51 digits exceeds the limit "
                                              r"of 50 digits \(at position 4\)"):
        parse_poly("x + " + "1" * 51, PADIC3, 1, 4)


def test_written_product_is_bounded_by_its_terms():
    """A product written with "*" is refused at its operator when its operands
    have more than MAX_POWER_TERMS^2 pairs of (monomial, t-degree) terms:
    561 * 435 pairs are multiplied, 561 * 465 are not."""
    big = "(x + 1 + t)^32*(x + 1 + t)^"  # (n + 1)(n + 2)/2 terms at truncation 200
    with pytest.raises(PolySyntaxError, match=r"a product of 561 by 465 terms exceeds the "
                                              r"limit of 250000 term products \(at position 14\)"):
        parse_poly(big + "29", PADIC3, 1, 200)
    assert len(parse_poly(big + "28", PADIC3, 1, 200).terms) == 61


def test_exponent_digit_limit():
    """Exponents and derivative orders of MAX_EXPONENT_DIGITS digits are read;
    one digit more is a syntax error at the token."""
    top = "9" * parser.MAX_EXPONENT_DIGITS
    big = ExponentMatrix.make({(0, 0): int(top)})
    assert parse_poly(f"x^{top}", PADIC3, 1, 4).terms[0][0] == big
    assert parse_poly(f"x^({top})", PADIC3, 1, 4).terms[0][0] == ExponentMatrix.var(0, int(top))
    for src, pos in ((f"x + x^{top}9", 6), (f"x^({top}9)", 3)):
        with pytest.raises(PolySyntaxError, match=f"an exponent of {len(top) + 1} digits "
                                                  r"exceeds the limit of 1000 digits "
                                                  rf"\(at position {pos}\)"):
            parse_poly(src, PADIC3, 1, 4)


def test_print_examples():
    _, f = exp_equation(3, 12)
    assert print_poly(tropicalize_poly(f).map(TropNum), EISEN3.nat_val) == "x' + (2, 3/2)*x"
    assert print_poly(f) == "x' - 3*zeta*t^2*x"

    s = exp_tropical_closed_form(3, 12)
    assert print_poly(initial_at(f, (s,))) == "x' + x"

    assert print_poly(dp_zero(PADIC3, 1, 4)) == "0"
    assert print_poly(Poly.make(1, {X: ResidueElem(3, 2)})) == "2*x"


def test_print_derivative_notation():
    f = parse_poly("x^(4) + x'''", PADIC3, 1, 4)
    assert print_poly(f) == "x^(4) + x'''"
    g = parse_poly("x1*x2''^2", PADIC3, 2, 4)
    assert print_poly(g) == "x1*x2''^2"


def test_print_negative_leading_term():
    f = parse_poly("0 - x + 1", PADIC3, 1, 4)
    assert print_poly(f) == "0 - x + 1"
    assert parse_poly(print_poly(f), PADIC3, 1, 4) == f


def check_parser_roundtrip(count=200):
    rng = rng_for("parser-roundtrip")
    backends = (EISEN3, PADIC3, TRIVIAL)
    for k in range(count):
        backend = backends[k % len(backends)]
        nvars = rng.randint(1, 2)
        f = rand_diffpoly(rng, backend, nvars, rng.randint(2, 6),
                          max_terms=4, max_order=4, max_degree=3)
        text = print_poly(f)
        g = parse_poly(text, backend, nvars, f.truncation)
        assert g == f, text
        # printing is a normal form: parse . print is print-stable
        assert print_poly(g) == text


def test_parser_roundtrip():
    check_parser_roundtrip()


@pytest.mark.parametrize("src, truncation, message, position", [
    ("(x + 1 + t)^32*(x + 1 + t)^29", 200,
     "a product of 561 by 465 terms exceeds the limit of 250000 term products", 14),
    ("(x + " + "7" * 100 + ")^200", 4,
     "a product of 65 by 65 terms of up to 21238 and 21238 bits exceeds the limit of "
     "67108864 term-product bits", 106),
    ("7^16000000", 4,
     "a product of coefficients of 761804 and 2943725 bits exceeds the limit of "
     "3321929 bits", 1),
    ("(x+x'+x''+x''')^60", 4,
     "a power of a sum of 4 terms may have more than 500 monomials", 15),
    ("((x + 1)*(x - 1))^600", 4,  # the product's cancelled x is not counted
     "a power of a sum of 2 terms may have more than 500 monomials", 17),
    ("(" * 201 + "x" + ")" * 201, 4, "parentheses nested deeper than 200", 200),
    ("x + " + "1" * 1000001, 4,
     "a number of 1000001 digits exceeds the limit of 1000000 digits", 4),
    ("x + x^" + "9" * 1001, 4, "an exponent of 1001 digits exceeds the limit of 1000 digits", 6),
    ("x + 1/0", 4, "zero denominator", 6),
    ("x + y", 4, "unknown name 'y'", 4),
], ids=["term-pairs", "product-bits", "literal-bits", "power-monomials", "cancelled-terms",
        "nesting", "literal-digits", "exponent-digits", "zero-denominator", "unknown-name"])
def test_parser_refusals_are_pinned(src, truncation, message, position):
    """Each bound of the grammar refuses its input with a PolySyntaxError of
    this message, at the position of the operator or token that crosses it."""
    with pytest.raises(PolySyntaxError) as info:
        parse_poly(src, PADIC3, 1, truncation)
    assert type(info.value) is PolySyntaxError
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


def test_parser_matches_diffpoly_arithmetic():
    """parse_poly of a random expression tree's text equals the tree's value
    by DiffPoly arithmetic (the oracle in helpers), over the trivial, 2- and
    3-adic and Eisenstein 3 and 5 backends, at windows 0 to 3."""
    rng = rng_for("parser-differential")
    backends = (TRIVIAL, FieldBackend("padic", 2), PADIC3, EISEN3, EISEN5)
    seen = Counter()
    for k in range(500):
        backend = backends[k % len(backends)]
        nvars, truncation = rng.randint(1, 2), rng.randint(0, 3)
        tree = rand_expr_tree(rng, backend, nvars)
        text = expr_text(tree, nvars)
        want = expr_diffpoly(tree, backend, nvars, truncation)
        assert parse_poly(text, backend, nvars, truncation) == want, text
        wide = expr_diffpoly(tree, backend, nvars, truncation + 6)
        seen["zero"] += want.is_zero
        seen["cut"] += any(d > truncation for _, c in wide.terms for d, _ in c.terms)
        seen["window 0"] += truncation == 0
        seen["leading minus"] += text.startswith("-")
        seen["power of a group"] += ")^" in text
    assert min(seen.values()) >= 25, seen
