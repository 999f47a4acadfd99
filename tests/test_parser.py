from fractions import Fraction

import pytest

from tropdiff import parser
from tropdiff.diffpoly import DiffPoly, ExponentMatrix, Poly, tropicalize_poly
from tropdiff.errors import PolySyntaxError, UnknownVariable, ZetaUnavailable
from tropdiff.fields import ResidueElem
from tropdiff.parser import parse_poly, print_poly
from tropdiff.series import PowerSeries
from tropdiff.verify import exp_equation, exp_tropical_closed_form

from helpers import EISEN3, PADIC3, TRIVIAL, initial_at, rand_diffpoly, rng_for

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


def test_number_token_digit_limit(monkeypatch):
    """A number token longer than MAX_DIGITS is a syntax error at its position."""
    monkeypatch.setattr(parser, "MAX_DIGITS", 50)
    f = parse_poly("1" * 50 + "/" + "2" * 50, PADIC3, 1, 4)
    assert f.terms[0][1].coeffs[0].coeffs[0] == Fraction(int("1" * 50), int("2" * 50))
    with pytest.raises(PolySyntaxError, match="a number of 51 digits exceeds the limit "
                                              r"of 50 digits \(at position 4\)"):
        parse_poly("x + " + "1" * 51, PADIC3, 1, 4)


def test_print_examples():
    _, f = exp_equation(3, 12)
    assert print_poly(tropicalize_poly(f)) == "x' + (2, 3/2)*x"
    assert print_poly(f) == "x' - 3*zeta*t^2*x"

    s = exp_tropical_closed_form(3, 12)
    assert print_poly(initial_at(f, (s,))) == "x' + x"

    assert print_poly(DiffPoly.zero(PADIC3, 1, 4)) == "0"
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
