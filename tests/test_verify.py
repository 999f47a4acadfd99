import math
from fractions import Fraction

import pytest

from tropdiff import verify
from tropdiff.diffpoly import DiffPoly, ExponentMatrix, Poly, derived_system, f_lr
from tropdiff.errors import NotAClassicalSolution
from tropdiff.fields import FieldBackend, FieldElem
from tropdiff.semiring import TropNum
from tropdiff.series import PowerSeries, TropSeries, tropicalize_series
from tropdiff.verify import (
    DEFAULT_SEED,
    LinearODE,
    check_easy_inclusion,
    check_truncation_vectors,
    exp_equation,
    exp_tropical_closed_form,
    random_linear_odes,
    reproduce_exponential_example,
    solve_linear,
    verify_ft,
)

from helpers import EISEN3, PADIC3, count_evaluations


def test_solve_linear_exp_closed_form():
    for p in (2, 3, 5):
        ode, _ = exp_equation(p, 6 * p)
        sol = solve_linear(ode)
        backend = sol.backend
        z = backend.zeta()
        for k in range(6 * p + 1):
            if k % p:
                assert sol.coeffs[k].is_zero
            else:
                m = k // p
                expected = z ** m * backend.elem(Fraction(1, math.factorial(m)))
                assert sol.coeffs[k] == expected


def test_solve_linear_degenerate():
    g = PowerSeries.zero(PADIC3, 7)
    sol = solve_linear(LinearODE(g, PADIC3.elem(5), 8))
    assert sol.coeffs[0] == PADIC3.elem(5)
    assert all(c.is_zero for c in sol.coeffs[1:])

    g = PowerSeries.from_coeffs(PADIC3, 7, [PADIC3.elem(2), PADIC3.elem(1)])
    sol = solve_linear(LinearODE(g, PADIC3.zero(), 8))
    assert sol.is_zero


def test_solve_linear_raises_on_nonzero_residual(monkeypatch):
    # the self-check is a raise, not an assert, so it also runs under python -O
    ode, _ = exp_equation(3, 6)
    monkeypatch.setattr(verify, "eval_classical",
                        lambda f, a: PowerSeries.monomial(EISEN3, 5, EISEN3.one(), 2))
    with pytest.raises(NotAClassicalSolution, match=r"t\^2"):
        solve_linear(ode)


def test_easy_inclusion_worked_example():
    ode, f = exp_equation(3, 18)
    sol = solve_linear(ode)
    report = check_easy_inclusion(derived_system(f, 9), (sol,))
    assert report.all_vanish


def test_easy_inclusion_zero_solution():
    ode, f = exp_equation(3, 12)
    zero = PowerSeries.zero(EISEN3, 12)
    report = check_easy_inclusion(derived_system(f, 4), (zero,))
    assert report.all_vanish  # every evaluation is infinite
    assert report.truncation_limited


def test_easy_inclusion_rejects_non_solutions():
    ode, f = exp_equation(3, 12)
    not_solution = PowerSeries.one(EISEN3, 12) + PowerSeries.monomial(
        EISEN3, 12, EISEN3.one(), 1)
    with pytest.raises(NotAClassicalSolution):
        check_easy_inclusion(derived_system(f, 4), (not_solution,))


def test_truncation_vectors_exp_example():
    _, f = exp_equation(3, 18)
    s = exp_tropical_closed_form(3, 18)
    report = check_truncation_vectors(derived_system(f, 6), (s,))
    assert report.all_vanish and len(report.reports) == 7


def test_truncation_vectors_order_zero():
    _, f = exp_equation(3, 12)
    assert f_lr(f, 0) == Poly.make(1, {ExponentMatrix.var(0, 1): EISEN3.one()})
    s = exp_tropical_closed_form(3, 12)
    assert check_truncation_vectors(derived_system(f, 0), (s,)).all_vanish


def test_truncation_vectors_perturbed():
    _, f = exp_equation(3, 18)
    s = exp_tropical_closed_form(3, 18)
    cs = list(s.coeffs)
    cs[3] = TropNum(cs[3].value + 1)
    perturbed = TropSeries.from_coeffs(s.nat_val, 18, tuple(cs))
    report = check_truncation_vectors(derived_system(f, 6), (perturbed,))
    assert not report.all_vanish
    assert 2 in report.failing  # F_2 = x''' - 6*zeta*x sees the bad b_3


def test_verify_ft_random_odes():
    report = verify_ft(p=3, count=50, truncation=20, order=8, seed=DEFAULT_SEED)
    assert report.passed
    assert len(report.steps) == 100
    # determinism: the same seed reproduces the same report
    again = verify_ft(p=3, count=50, truncation=20, order=8, seed=DEFAULT_SEED)
    assert again == report


def test_tropical_multiple_closure_random():
    backend = FieldBackend("padic", 3)
    odes = random_linear_odes(10, backend, 16, seed=DEFAULT_SEED + 1)
    from tropdiff.diffpoly import derived_tropical_system, is_tropical_solution
    for ode in odes:
        f = ode.as_diffpoly()
        s = tropicalize_series(solve_linear(ode))
        system = derived_tropical_system(f, 5)
        assert is_tropical_solution(system, (s,)).all_vanish
        scaled = s.scale(TropNum.of(Fraction(5, 2)))
        assert is_tropical_solution(system, (scaled,)).all_vanish


def test_reproduce_exponential_example_parameterizations():
    assert reproduce_exponential_example(3, 18, 9).passed
    assert reproduce_exponential_example(2, 16, 8).passed
    assert reproduce_exponential_example(5, 30, 10).passed


def test_report_serialization():
    report = reproduce_exponential_example(2, 12, 6)
    data = report.to_dict()
    assert data["passed"] is True
    assert {s["name"] for s in data["steps"]} >= {"oracle-solution", "radius"}
    (table,) = [s["rows"] for s in data["steps"]
                if s["name"] == "derived-system-solution"]
    assert len(table) == 7 and all("attained 2x" in row for row in table)
    text = report.format_text()
    assert "ALL PASS" in text


def test_verify_ft_derives_each_ode_once(monkeypatch):
    """50 ODEs derived to order 9: one derived family each, 450 DiffPoly.diff calls."""
    calls = []
    diff = DiffPoly.diff

    def counted(self):
        calls.append(self)
        return diff(self)

    monkeypatch.setattr(DiffPoly, "diff", counted)
    assert verify_ft(3, 50, 18, 9, DEFAULT_SEED).passed
    assert len(calls) == 450


def test_verify_ft_certifies_each_solution_once(monkeypatch):
    """solve_linear's residual check is the only certificate: one classical
    evaluation and one tropicalization per ODE."""
    counts = {"eval_classical": 0, "tropicalize_series": 0}

    def counting(name):
        original = getattr(verify, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)
        return wrapper

    for name in counts:
        monkeypatch.setattr(verify, name, counting(name))
    assert verify_ft(3, 4, 18, 9, DEFAULT_SEED).passed
    assert counts == {"eval_classical": 4, "tropicalize_series": 4}


def test_derived_system_works_on_the_support(monkeypatch):
    """The exp equation at p = 13 derived to order 39 costs 403 field products
    and 390 sums; a dense window of every coefficient cost 26,417 and 24,115."""
    counts = {"mul": 0, "add": 0}
    mul, add = FieldElem.__mul__, FieldElem.__add__

    def counted_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    def counted_add(self, other):
        counts["add"] += 1
        return add(self, other)

    monkeypatch.setattr(FieldElem, "__mul__", counted_mul)
    monkeypatch.setattr(FieldElem, "__add__", counted_add)
    family = derived_system(exp_equation(13, 78)[1], 39)
    assert len(family) == 40
    assert counts == {"mul": 403, "add": 390}


def test_selftest_evaluates_each_equation_once(monkeypatch):
    """At p = 3 (m = 9) the derived-system step evaluates the 10 equations
    once; the initial-form and monomial steps are passed those reports;
    the Grigoriev projection evaluates its own 10 polynomials."""
    calls = count_evaluations(monkeypatch)
    assert reproduce_exponential_example(3).passed
    assert len(calls) == 20
