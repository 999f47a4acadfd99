"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything is exact-arithmetic with zero tolerance unless a bound is
stated explicitly (the radius window bound 0.15 and the 5 s runtime budget).
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from tropdiff.diffpoly import (
    Poly,
    at_vector,
    derived_system,
    derived_tropical_system,
    eval_tropical,
    evaluate,
    is_tropical_solution,
)
from tropdiff.diffpoly import ExponentMatrix
from tropdiff.fields import FieldBackend, ResidueElem
from tropdiff.radius import RadiusRule, radius_from_rule, radius_window_estimate
from tropdiff.semiring import T_INF, TropNum, Trop2
from tropdiff.series import TropSeries, psi_trop_inverse, tropicalize_series
from tropdiff.verify import (
    DEFAULT_SEED,
    check_easy_inclusion,
    check_truncation_vectors,
    exp_equation,
    exp_tropical_closed_form,
    random_linear_odes,
    solve_linear,
)

from helpers import checked_monomial_check, initial_at, initial_form_literal
from test_diffpoly import check_taylor_identity
from test_fields import (
    check_angular_multiplicative,
    check_valuation_multiplicative,
    check_valuation_subadditive,
)
from test_initial import (
    check_initial_biconditionals,
    check_initial_literal_oracle,
    check_initial_multiplicativity,
)
from test_parser import check_parser_roundtrip
from test_semiring import check_semiring_axioms, check_vanishing_definitions_agree
from test_series import (
    check_enhancement_commutation,
    check_phi_diagram,
    check_psi_roundtrips,
    check_psi_square,
    check_tropical_leibniz,
)

X = ExponentMatrix.var(0, 0)
X1 = ExponentMatrix.var(0, 1)
X3 = ExponentMatrix.var(0, 3)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE {number}] FAIL - {description}")
        raise
    print(f"[ACCEPTANCE {number}] PASS - {description}")


def test_criterion_1_exp_solution_closed_form():
    with criterion(1, "tropicalized oracle solution matches m/(p-1) - v_p(m!) "
                      "exactly for p in {2,3,5}, under 5 s per prime"):
        for p in (2, 3, 5):
            start = time.monotonic()
            n, m = 6 * p, 3 * p
            ode, _ = exp_equation(p, n)
            trop = tropicalize_series(solve_linear(ode))
            assert trop == exp_tropical_closed_form(p, n)
            assert time.monotonic() - start < 5.0, f"p={p} exceeded 5 s"


def test_criterion_2_solution_check_and_perturbation():
    with criterion(2, "derived-system check passes on the worked solution and "
                      "names a failing order for the a_3 + 1 perturbation"):
        for p in (2, 3, 5):
            n, m = 6 * p, 3 * p
            _, f = exp_equation(p, n)
            system = derived_tropical_system(f, m)
            s = exp_tropical_closed_form(p, n)
            report = is_tropical_solution(system, (s,))
            assert report.all_vanish and not report.truncation_limited

        _, f = exp_equation(3, 18)
        system = derived_tropical_system(f, 9)
        s = exp_tropical_closed_form(3, 18)
        cs = list(s.coeffs)
        cs[3] = TropNum(cs[3].value + 1)
        bad = is_tropical_solution(system, (TropSeries.from_coeffs(s.nat_val, 18, tuple(cs)),))
        assert not bad.all_vanish
        assert bad.failing, "a failing derivative order must be named"
        assert min(bad.failing) <= 3


def test_criterion_3_initial_form():
    with criterion(3, "in_S(f) = x' + x over F_p for p in {2,3,5}, exact"):
        for p in (2, 3, 5):
            _, f = exp_equation(p, 6 * p)
            s = exp_tropical_closed_form(p, 6 * p)
            expected = Poly.make(1, {X1: ResidueElem(p, 1), X: ResidueElem(p, 1)})
            assert initial_at(f, (s,)) == expected


def test_criterion_4_radius():
    with criterion(4, "rule-exact log r = 0 (r = 1 base p); window estimate at "
                      "N=200, start 100, within 0.15 of 0"):
        for p in (2, 3, 5):
            rule = RadiusRule(p, Fraction(1, p - 1), Fraction(0), True, p)
            assert radius_from_rule(rule).log_radius == 0
            sol = solve_linear(exp_equation(p, 200)[0])
            est = radius_window_estimate(tropicalize_series(sol), 100)
            assert abs(est.log_radius) <= Fraction(15, 100)


def test_criterion_5_micro_examples():
    with criterion(5, "M(S) = (1,2) and M(B) = inf reproduced exactly"):
        nv = FieldBackend("padic", 3).nat_val
        m_trop = Poly.make(1, {X * X3: Trop2.of(0, 0)})
        s = TropSeries.from_coeffs(nv, 8, [T_INF, TropNum.of(0), T_INF, TropNum.of(1)])
        assert eval_tropical(m_trop, (s,)).value == Trop2.of(1, 2)

        m_plain = Poly.make(1, {X * X3: TropNum.of(0)})
        b = (psi_trop_inverse(s)[:4],)
        assert b[0] == (T_INF, TropNum.of(0), T_INF, TropNum.of(2))
        assert evaluate(m_plain, at_vector(b)).value.is_inf


def test_criterion_6_property_suites():
    with criterion(6, "property suites at their stated counts, fixed seeds"):
        check_semiring_axioms(1000)
        check_vanishing_definitions_agree(1000)
        check_valuation_multiplicative(1000)
        check_valuation_subadditive(1000)
        check_angular_multiplicative(1000)
        check_enhancement_commutation(500)
        check_phi_diagram(1000)
        check_tropical_leibniz(500)
        check_taylor_identity(100)
        check_psi_roundtrips(1000)
        check_psi_square(500)
        check_initial_biconditionals(1000)
        check_initial_multiplicativity(50)
        check_initial_literal_oracle(50)
        check_parser_roundtrip(200)


def _ft_instances():
    backend = FieldBackend("padic", 3)
    return random_linear_odes(50, backend, truncation=20, seed=DEFAULT_SEED)


def test_criterion_7_ft_inclusions():
    with criterion(7, "easy inclusion and truncation-vector checks pass on 50 "
                      "seeded linear ODEs (p=3, N=20, m=8)"):
        for ode in _ft_instances():
            family = derived_system(ode.as_diffpoly(), 8)
            sol = solve_linear(ode)
            assert check_easy_inclusion(family, (sol,)).all_vanish
            s = tropicalize_series(sol)
            assert check_truncation_vectors(family, (s,)).all_vanish


def test_criterion_8_monomial_check_equivalence():
    with criterion(8, "monomial-freeness verdict coincides with the solution "
                      "verdict on every tested instance (the hard direction of "
                      "the fundamental theorem is not desk-reproducible)"):
        for p in (2, 3, 5):
            _, f = exp_equation(p, 6 * p)
            s = exp_tropical_closed_form(p, 6 * p)
            family = derived_system(f, 3 * p)
            solution, report = checked_monomial_check([family], (s,))
            assert report.monomial_free and solution.all_vanish
            for (_, k), form in report.initials:
                assert form == initial_form_literal(family[k], (s,))

        _, f = exp_equation(3, 18)
        s = exp_tropical_closed_form(3, 18)
        cs = list(s.coeffs)
        cs[3] = TropNum(cs[3].value + 1)
        perturbed = TropSeries.from_coeffs(s.nat_val, 18, tuple(cs))
        family = derived_system(f, 9)
        solution, report = checked_monomial_check([family], (perturbed,))
        assert not report.monomial_free and not solution.all_vanish
        for (_, k), form in report.initials:
            assert form == initial_form_literal(family[k], (perturbed,))

        for ode in _ft_instances():
            f = ode.as_diffpoly()
            s = tropicalize_series(solve_linear(ode))
            solution, report = checked_monomial_check([derived_system(f, 8)], (s,))
            assert report.monomial_free and solution.all_vanish
