"""Tropical values keep their exact type: `int` when integral, `Fraction` otherwise.

Valuations count the field's unit 1/e, so every valuation the program
computes, t-exponents and factorial corrections are `int`s; only a value
read from a file outside (1/e)Z is a `Fraction`; no float ever appears.
The two types compare and hash equal, so a series holds the same value
whichever type its coefficients have.
"""

from fractions import Fraction

from tropdiff import files
from tropdiff.fields import FieldBackend
from tropdiff.semiring import T_INF, TropNum
from tropdiff.series import Beyond, TropSeries, rank2_val, tropicalize_series
from tropdiff.verify import exp_equation, exp_tropical_closed_form, solve_linear

from helpers import (
    EISEN3,
    EISEN5,
    PADIC3,
    TRIVIAL,
    rand_elem,
    rand_power_series,
    ref_valuation,
    rng_for,
)

BACKENDS = (TRIVIAL, FieldBackend("padic", 2), PADIC3, EISEN3, EISEN5)


def assert_exact(q):
    """q is an int when integral and a Fraction with denominator > 1 otherwise."""
    if type(q) is not int:
        assert type(q) is Fraction and q.denominator > 1, repr(q)


def test_valuation_is_int_exactly_when_integral():
    rng = rng_for("repr-valuation")
    for backend in BACKENDS:
        for _ in range(40):
            x = rand_elem(rng, backend)
            v = x.valuation()
            if x.is_zero:
                assert v.is_inf
                continue
            assert v == backend.nat_val.to_units(TropNum(ref_valuation(x.coeffs, backend)))
            assert type(v.value) is int
        if backend.kind == "trivial":
            continue
        e = backend.ramification
        for k in range(-2 * e - 1, 2 * e + 2):
            v = backend.uniformizer_pow(k).valuation()
            assert v == backend.nat_val.to_units(TropNum(Fraction(k, e)))
            assert type(v.value) is int


def test_leading_exponents_are_int():
    rng = rng_for("repr-leading")
    for backend in BACKENDS:
        for _ in range(6):
            a = rand_power_series(rng, backend, 8)
            s = tropicalize_series(a)
            for _, c in s.terms:
                assert_exact(c.value)
            for lt in [rank2_val(a)] + [s.leading(j) for j in range(s.truncation + 3)]:
                if lt.__class__ is not Beyond:
                    assert type(lt[0]) is int
                    assert_exact(lt[1])


def test_int_and_fraction_values_give_equal_series():
    rng = rng_for("repr-equal")
    for backend in BACKENDS:
        s = tropicalize_series(rand_power_series(rng, backend, 10))
        as_fractions = TropSeries(s.nat_val, s.truncation, tuple(
            (k, TropNum(Fraction(c.value))) for k, c in s.terms))
        assert s == as_fractions and hash(s) == hash(as_fractions)
    # the closed form and the tropicalized oracle solution are both in units
    # of 1/(p-1)
    for p in (3, 5):
        s = tropicalize_series(solve_linear(exp_equation(p, 6 * p)[0]))
        expected = exp_tropical_closed_form(p, 6 * p)
        assert any(type(c.value) is int for _, c in s.terms)
        assert s == expected and hash(s) == hash(expected)


def test_parsed_values_are_int_exactly_when_integral():
    for text, value in (("3", 3), ("-4", -4), (" 0 ", 0), ("6/2", 3), ("-8/4", -2),
                        ("3/2", Fraction(3, 2)), ("-1/3", Fraction(-1, 3)), ("0.5", Fraction(1, 2))):
        parsed = TropNum.parse(text).value
        assert parsed == value
        assert_exact(parsed)
    assert TropNum.parse("inf") == T_INF
    # candidate files read every tropical value through the same parser
    record = {"truncation": 4, "coeffs": [{"n": k, "val": v} for k, v in
                                          enumerate(("2", "inf", "5/3", "-6/3", 7))]}
    s = files.trop_series_from_dict(record, FieldBackend("padic", 3).nat_val)
    assert [type(c.value) for _, c in s.terms] == [int, Fraction, int, int]


def test_file_values_count_units_of_one_over_e():
    """A value read from a file is held in units of 1/e: an int inside (1/e)Z,
    a Fraction in the same unit outside it, and written back as read."""
    record = {"truncation": 3, "coeffs": [{"n": k, "val": v} for k, v in
                                          enumerate(("3/4", "1/3", "-2", "inf"))]}
    s = files.trop_series_from_dict(record, EISEN5.nat_val)
    assert [c.value for _, c in s.terms] == [3, Fraction(4, 3), -8]
    assert [type(c.value) for _, c in s.terms] == [int, Fraction, int]
    assert files.trop_series_to_dict(s)["coeffs"] == record["coeffs"][:3]
