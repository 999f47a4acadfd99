import math
import time
from fractions import Fraction

import pytest

from tropdiff.errors import BadBase, InvalidRule, TrivialBackend
from tropdiff.fields import FieldBackend
from tropdiff.radius import (
    LOG_INF,
    RadiusRule,
    _exact_log_ratio,
    base_change,
    check_rule,
    classical_radius,
    describe_radius,
    fit_rule,
    radius_from_rule,
    radius_window_estimate,
)
from tropdiff.semiring import T_INF, NatValuation, TropNum
from tropdiff.series import PowerSeries, TropSeries, tropicalize_series
from tropdiff.verify import exp_equation, exp_rule, exp_tropical_closed_form, solve_linear

from helpers import (
    PADIC3,
    TRIVIAL,
    digit_sum,
    exact_log_ratio_by_roots,
    integer_root_bisect,
    integer_root_newton,
    rng_for,
    vp_factorial_bruteforce,
)


def test_rule_examples():
    for p in (2, 3, 5):
        est = radius_from_rule(exp_rule(p))
        assert est.log_radius == 0 and est.kind == "exact-from-rule"

    flat = RadiusRule(1, Fraction(0))
    assert radius_from_rule(flat).log_radius == 0

    geometric = RadiusRule(1, Fraction(1))
    assert radius_from_rule(geometric).log_radius == 1

    with pytest.raises(InvalidRule):
        RadiusRule(0, Fraction(1))
    with pytest.raises(InvalidRule):
        RadiusRule(1, Fraction(1), factorial_correction=True)


def test_rule_series_matches_closed_form():
    """The exponential law's series is m/(p-1) - v_p(m!) at t^(m*p), in units
    of 1/(p-1), and infinity elsewhere; v_p(m!) counted by brute force."""
    for p in (2, 3, 5):
        nv = FieldBackend("eisenstein", p).nat_val
        want = TropSeries.from_coeffs(nv, 6 * p, [
            TropNum(k // p - (p - 1) * vp_factorial_bruteforce(k // p, p)) if k % p == 0
            else T_INF for k in range(6 * p + 1)])
        assert exp_rule(p).series(nv, 6 * p) == want


def test_window_estimate_against_digit_sum_oracle():
    for p in (2, 3, 5):
        sol = solve_linear(exp_equation(p, 200)[0])
        trop = tropicalize_series(sol)
        est = radius_window_estimate(trop, 100)
        assert est.kind == "window-lower-bound" and est.window == (100, 200)

        candidates = []
        for m in range(1, 200 // p + 1):
            i = p * m
            if 100 <= i <= 200:
                value = Fraction(m, p - 1) - vp_factorial_bruteforce(m, p)
                candidates.append(Fraction(value, i))
                assert Fraction(value, i) == Fraction(digit_sum(m, p),
                                                      (p - 1) * p * m)
        assert est.log_radius == min(candidates)
        assert abs(est.log_radius) <= Fraction(15, 100)


def test_window_edge_cases():
    nv = NatValuation(3)
    constant = TropSeries.monomial(nv, 10, TropNum.of(2), 0)
    est = radius_window_estimate(constant, 4)
    assert est.log_radius == LOG_INF and est.caveat

    with pytest.raises(ValueError):
        radius_window_estimate(constant, 10)
    with pytest.raises(ValueError):
        radius_window_estimate(constant, -1)


def test_window_scalar_shift():
    rng = rng_for("radius-shift")
    nv = NatValuation(3)
    trop = exp_tropical_closed_form(3, 120)
    for _ in range(20):
        shift = Fraction(rng.randint(1, 10), rng.randint(1, 4))
        shifted = trop.scale(TropNum(shift))
        a = radius_window_estimate(trop, 60).log_radius
        b = radius_window_estimate(shifted, 60).log_radius
        assert a <= b <= a + Fraction(shift, 60)


def test_base_change():
    est = radius_from_rule(RadiusRule(1, Fraction(1)))
    change = base_change(est, 3, 9)
    assert change.exact and change.new_log_radius == Fraction(1, 2)
    back = base_change(est, 9, 3)
    assert back.exact and back.new_log_radius == 2

    # round trip is the identity on the log
    there = base_change(est, 3, 9)
    from tropdiff.radius import RadiusEstimate
    back_again = base_change(RadiusEstimate(there.new_log_radius, est.kind), 9, 3)
    assert back_again.new_log_radius == est.log_radius
    assert base_change(est, 3, 3).new_log_radius == est.log_radius

    inexact = base_change(est, 2, 3)
    assert not inexact.exact

    infinite = radius_window_estimate(TropSeries(NatValuation(3), 10, ()))
    assert base_change(infinite, 2, 3).new_log_radius == LOG_INF

    with pytest.raises(BadBase):
        base_change(est, 1, 3)


def test_base_change_finds_every_rational_ratio():
    est = radius_from_rule(RadiusRule(1, Fraction(3)))
    change = base_change(est, 2, 2 ** 65)
    assert change.exact and change.new_log_radius == Fraction(3, 65)
    # c = (2/3)^6 and c' = (2/3)^4 share the root 2/3: log_{c'}(c) = 6/4
    change = base_change(est, Fraction(729, 64), Fraction(81, 16))
    assert change.exact and change.new_log_radius == Fraction(9, 2)
    change = base_change(est, 10 ** 120, 10 ** 400)
    assert change.exact and change.new_log_radius == Fraction(9, 10)
    for c, cprime in ((6, 12), (4, 8 * 3), (2, 3 ** 70), (Fraction(9, 4), Fraction(3, 2) ** 3 * 2)):
        assert not base_change(est, c, cprime).exact


def test_base_change_of_log_zero_is_exact():
    """log_r = 0 is 0 in every base, also in bases that share no root."""
    zero = radius_from_rule(RadiusRule(1, Fraction(0)))
    for c, cprime in ((3, 10), (2, 3), (Fraction(7, 2), 10 ** 400)):
        change = base_change(zero, c, cprime)
        assert change.exact and change.new_log_radius == 0


def test_exact_log_ratio_matches_root_reference():
    """Euclid's algorithm on logarithms agrees with the integer-root reference
    on exact powers r^k and their neighbours r^k +- 1 and r^k +- 2^64 (equal
    low 64 bits), for k up to 97 and r up to 2^200, including roots on both
    sides of 2^32 and 2^53, against the bases r and r^2 in both orders.  The
    reference's root finder is itself checked against bisection."""
    rng = rng_for("integer-root")
    roots = [1, 2, 3, 7, 2**31 - 1, 2**32 - 1, 2**32, 2**32 + 1, 2**53 + 1,
             10**15 + 37, 3**100, 2**200 - 1, 2**200, rng.getrandbits(200) | 1]
    for k in (1, 2, 3, 5, 31, 64, 97):
        for r in roots:
            for n in (r**k - 2**64, r**k - 1, r**k, r**k + 1, r**k + 2**64):
                if n >= 1:
                    assert integer_root_newton(n, k) == integer_root_bisect(n, k), (r, k, n - r**k)
                if n < 2 or r < 2:
                    continue
                for c, cprime in ((n, r), (r, n), (n, r * r), (r * r, n)):
                    c, cprime = Fraction(c), Fraction(cprime)
                    assert _exact_log_ratio(c, cprime) == exact_log_ratio_by_roots(c, cprime), \
                        (r, k, n - r**k)
            assert integer_root_newton(r**k, k) == r
            if r >= 2:
                assert _exact_log_ratio(Fraction(r**k), Fraction(r)) == k


def test_exact_log_ratio_matches_root_reference_on_random_bases():
    """Rational bases g^i against g^j for g = a/b > 1, one side sometimes
    multiplied by a small factor that breaks the common root."""
    rng = rng_for("log-ratio-random")
    factors = [1, 1, 1, 2, 3, 7, Fraction(3, 2), Fraction(5, 4)]
    for _ in range(2000):
        a = rng.randint(2, 60)
        g = Fraction(a, rng.randint(1, a - 1))
        c = g ** rng.randint(1, 12) * rng.choice(factors)
        cprime = g ** rng.randint(1, 12) * rng.choice(factors)
        assert _exact_log_ratio(c, cprime) == exact_log_ratio_by_roots(c, cprime), (c, cprime)


def test_exact_log_ratio_of_a_huge_base_is_fast():
    """Bases of thousands of digits, with and without a common root, cost a
    few big-integer divisions each."""
    start = time.perf_counter()
    assert _exact_log_ratio(Fraction(10**4000 + 1, 7), Fraction(3)) is None
    assert _exact_log_ratio(Fraction(10**4299 + 1), Fraction(10**4299)) is None
    assert _exact_log_ratio(Fraction(10**4000), Fraction(10**40)) == 100
    assert time.perf_counter() - start < 1.0


def test_inexact_base_change_of_a_huge_base_is_finite():
    est = radius_from_rule(RadiusRule(1, Fraction(1)))
    change = base_change(est, 3, 10 ** 400)
    assert not change.exact
    assert change.new_log_radius == pytest.approx(math.log(3) / (400 * math.log(10)))
    back = base_change(est, Fraction(10 ** 400 + 1, 7), 3)
    expected = (400 * math.log(10) - math.log(7)) / math.log(3)
    assert not back.exact and back.new_log_radius == pytest.approx(expected, rel=1e-12)


def test_classical_radius():
    p = 3
    sol = solve_linear(exp_equation(p, 200)[0])
    trop_est = radius_window_estimate(tropicalize_series(sol), 100)
    classical_est = classical_radius(sol, window_start=100)
    assert classical_est == trop_est

    # geometric series sum p^m t^m: |p^m| r^m -> 0 iff r < p, so log_p r = 1
    geo = PowerSeries.from_coeffs(PADIC3, 30, [PADIC3.elem(3 ** m) for m in range(31)])
    trop = tropicalize_series(geo)
    assert all(c.value == k for k, c in enumerate(trop.coeffs))
    est = classical_radius(geo, window_start=10)
    assert est.log_radius == 1

    zero = PowerSeries.zero(PADIC3, 20)
    assert classical_radius(zero, window_start=5).log_radius == LOG_INF

    with pytest.raises(TrivialBackend):
        classical_radius(PowerSeries.one(TRIVIAL, 10))


def test_fit_rule():
    for p in (2, 3, 5):
        trop = exp_tropical_closed_form(p, 40 * p // 2)
        rule = fit_rule(trop, p, p)
        assert rule == exp_rule(p)
        assert radius_from_rule(rule).log_radius == 0

    nv = NatValuation(3)
    geo = TropSeries.from_coeffs(nv, 10, tuple(TropNum.of(k) for k in range(11)))
    rule = fit_rule(geo, 1, 3)
    assert (rule.stride, rule.slope, rule.offset) == (1, 1, 0)

    with pytest.raises(InvalidRule):
        fit_rule(geo, 2, 3)  # support not inside 2N
    bad = TropSeries.from_coeffs(nv, 6, tuple(TropNum.of(k * k) for k in range(7)))
    with pytest.raises(InvalidRule):
        fit_rule(bad, 1, 3)


def test_fit_rule_refuses_a_window_that_both_laws_fit():
    """exp's closed form follows the factorial-corrected law; the plain law
    through a_0 and a_p also fits exactly the windows with no m >= p, where
    v_p(m!) = 0, and gives another radius, so those windows are refused."""
    for p in (2, 3, 5):
        nv = FieldBackend("eisenstein", p).nat_val
        plain = RadiusRule(p, Fraction(1, p - 1), Fraction(0), False, p)
        refused = []
        for n in range(p, 4 * p + 1):
            s = exp_tropical_closed_form(p, n)
            assert exp_rule(p).series(nv, n) == s
            if plain.series(nv, n) == s:
                refused.append(n)
                with pytest.raises(InvalidRule, match="both fit the window"):
                    fit_rule(s, p, p)
            else:
                assert fit_rule(s, p, p) == exp_rule(p)
        assert refused == list(range(p, min(p * p, 4 * p + 1)))


def test_check_rule():
    """A rule is returned when its window follows it, refused otherwise."""
    nv = NatValuation(3)
    geo = TropSeries.from_coeffs(nv, 10, tuple(TropNum.of(k) for k in range(11)))
    rule = RadiusRule(1, Fraction(1))
    assert check_rule(rule, geo) is rule
    for wrong in (RadiusRule(1, Fraction(1), Fraction(1)), RadiusRule(1, Fraction(2)),
                  RadiusRule(2, Fraction(2)), RadiusRule(1, Fraction(1), Fraction(0), True, 3)):
        with pytest.raises(InvalidRule):
            check_rule(wrong, geo)
    with pytest.raises(InvalidRule, match=r"coefficient of t\^1 is 1, the rule gives 2$"):
        check_rule(RadiusRule(1, Fraction(2)), geo)
    closed = exp_tropical_closed_form(3, 30)
    assert check_rule(exp_rule(3), closed) == exp_rule(3)
    with pytest.raises(InvalidRule, match="infinite coefficients"):
        check_rule(exp_rule(3), TropSeries(closed.nat_val, 30, closed.terms[:-1]))


def test_corrected_rule_needs_the_series_prime():
    """A factorial-corrected rule reads v(m!) from the series' valuation, so a
    series at another prime, or with none, is refused rather than mixed in."""
    for nv in (NatValuation(5), FieldBackend("eisenstein", 5).nat_val, NatValuation(None)):
        with pytest.raises(InvalidRule, match="a rule for p = 3 does not apply"):
            exp_rule(3).series(nv, 9)
    with pytest.raises(InvalidRule, match="does not apply"):
        check_rule(exp_rule(3), TropSeries(NatValuation(5), 9, exp_tropical_closed_form(3, 9).terms))
    plain = RadiusRule(1, Fraction(1), Fraction(0), False, 3)  # reads no v(m!)
    assert plain.series(NatValuation(5), 4) == RadiusRule(1, Fraction(1)).series(NatValuation(5), 4)


def test_describe_radius():
    assert describe_radius(radius_from_rule(exp_rule(3)), 3) == \
        "log_r = 0, r = 1 (base 3)"
    assert "r = 9" in describe_radius(radius_from_rule(RadiusRule(1, Fraction(2))), 3)
    assert "3^(1/2)" in describe_radius(
        radius_from_rule(RadiusRule(2, Fraction(1))), 3)
    assert "r = inf" in describe_radius(
        radius_window_estimate(TropSeries(NatValuation(3), 10, ())), 3)


def test_describe_radius_prints_r_within_the_digit_limit():
    """3^9012 has 4,300 digits, the most Python prints by default; 3^9013
    and 3^-9013 are printed as powers, decided without computing them."""
    def r_of(log):
        text = describe_radius(radius_from_rule(RadiusRule(1, Fraction(log))), 3)
        return text.split(", r = ")[1].split(" (base")[0]

    assert r_of(9012) == str(3 ** 9012)
    assert r_of(-9012) == f"1/{3 ** 9012}"
    assert r_of(9013) == "3^(9013)"
    assert r_of(-9013) == "3^(-9013)"
    assert r_of(10 ** 30) == f"3^({10 ** 30})"
