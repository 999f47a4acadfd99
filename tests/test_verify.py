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

from helpers import (
    EISEN3,
    EISEN5,
    PADIC3,
    count_evaluations,
    rand_ref_coeffs,
    rand_ref_series,
    ref_add,
    ref_from_terms,
    ref_mul,
    ref_zero,
    rng_for,
    series_from_ref,
)


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


def ref_solve_linear(g: tuple, c0: tuple, truncation: int, backend: FieldBackend) -> tuple:
    """Dense recurrence c_(k+1) = (1/(k+1)) sum_(j<=k) g_j c_(k-j) over every
    j, zero terms included, on the plain-tuple reference arithmetic."""
    c = [c0]
    for k in range(truncation):
        acc = ref_zero(backend)
        for j in range(min(k, len(g) - 1) + 1):
            acc = ref_add(acc, ref_mul(g[j], c[k - j], backend))
        c.append(tuple(q / (k + 1) for q in acc))
    return tuple(c)


def sparse_ref_g(rng, backend: FieldBackend, window: int, shape: str) -> tuple:
    """A right-hand side with gaps ("sparse"), with g_0 = 0 ("no-constant"),
    or a single term at degree >= 2 ("monomial")."""
    g = list(rand_ref_series(rng, backend, window, "sparse"))
    if shape == "no-constant":
        g[0] = ref_zero(backend)
    elif shape == "monomial":
        k = rng.randint(2, window)
        g = [ref_zero(backend)] * (window + 1)
        while not any(g[k]):
            g[k] = rand_ref_coeffs(rng, backend, 4)
    return tuple(g)


@pytest.mark.parametrize("backend", [FieldBackend("padic", 2), PADIC3, FieldBackend("padic", 5),
                                     EISEN3, EISEN5], ids=lambda b: f"{b.kind}-{b.p}")
def test_solve_linear_matches_dense_recurrence(backend):
    """Sparse right-hand sides, and c0 = 0: the recurrence that skips the
    steps with no nonzero pair equals the dense reference, coefficient for
    coefficient."""
    rng = rng_for(f"sparse-recurrence-{backend.kind}-{backend.p}")
    for shape in ("sparse", "no-constant", "monomial"):
        for _ in range(6):
            n = rng.randint(3, 14)
            g = sparse_ref_g(rng, backend, n - 1, shape)
            c0 = ref_zero(backend) if rng.random() < 0.25 else rand_ref_coeffs(rng, backend, 4)
            ode = LinearODE(series_from_ref(backend, g), backend.from_coeffs(c0), n)
            assert ref_from_terms(solve_linear(ode)) == ref_solve_linear(g, c0, n, backend)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_shared_oracle_is_a_prefix(p):
    """The window-n solution and tropicalization are the window-n prefixes
    of the ones at max(n, RADIUS_TRUNCATION)."""
    for n in (6 * p, 240):
        long_sol = solve_linear(exp_equation(p, max(n, verify.RADIUS_TRUNCATION))[0])
        sol = solve_linear(exp_equation(p, n)[0])
        assert sol == long_sol.with_window(n)
        assert tropicalize_series(sol) == tropicalize_series(long_sol).truncate(n)


def test_selftest_solves_one_oracle(monkeypatch):
    """Each call solves once, in the window max(N, RADIUS_TRUNCATION)."""
    windows = []
    solve = verify.solve_linear

    def recorded(ode):
        windows.append(ode.truncation)
        return solve(ode)

    monkeypatch.setattr(verify, "solve_linear", recorded)
    for args, window in (((3,), 200), ((3, 240), 240), ((37,), 222), ((3, 2, 1), 200)):
        windows.clear()
        reproduce_exponential_example(*args)
        assert windows == [window], args


SELFTEST_P3_N240 = """\
p-adic exponential example, p=3 (backend: Q(zeta), zeta^2 = -3 (3-adic valuation), N=240, m=9)
  [PASS] oracle-solution: recurrence solution of x' = 3*zeta*t^2*x to degree 240
  [PASS] tropicalize-solution: coefficientwise valuation over Q(zeta)
  [PASS] closed-form-coefficients: tropical coefficients equal m/2 - v_3(m!) at indices m*3, infinity elsewhere (exact)
  [PASS] derived-system-solution: all 10 equations vanish up to order 9
      d^0: value (2, 3/2), attained 2x (vanishes)
      d^1: value (1, 3/2), attained 2x (vanishes)
      d^2: value (0, 3/2), attained 2x (vanishes)
      d^3: value (2, 3), attained 2x (vanishes)
      d^4: value (1, 3), attained 2x (vanishes)
      d^5: value (0, 3), attained 2x (vanishes)
      d^6: value (2, 9/2), attained 2x (vanishes)
      d^7: value (1, 9/2), attained 2x (vanishes)
      d^8: value (0, 9/2), attained 2x (vanishes)
      d^9: value (2, 6), attained 2x (vanishes)
  [PASS] initial-form: in_S(f) = x' + x over F_p
  [PASS] initial-ideal-monomial-free: no monomial initial form among d^k f, k <= 9; verdict matches the solution check
  [PASS] radius: rule-exact log_r = 0 (r = 1); window estimate 1/162 at N=200, start 100
  [PASS] grigoriev-projection: support projection solves the t-adic tropicalization of the derived system
overall: ALL PASS"""

SELFTEST_P3_N2 = """\
p-adic exponential example, p=3 (backend: Q(zeta), zeta^2 = -3 (3-adic valuation), N=2, m=1)
  [PASS] oracle-solution: recurrence solution of x' = 3*zeta*t^2*x to degree 2
  [PASS] tropicalize-solution: coefficientwise valuation over Q(zeta)
  [PASS] closed-form-coefficients: tropical coefficients equal m/2 - v_3(m!) at indices m*3, infinity elsewhere (exact)
  [FAIL] derived-system-solution: fails at derivative orders [0, 1] (truncation-limited)
      d^0: value (2, 3/2), attained 1x (FAILS, truncation-limited)
      d^1: value (1, 3/2), attained 1x (FAILS, truncation-limited)
overall: FAILED"""


def test_selftest_reports_in_long_and_short_windows():
    """A window above RADIUS_TRUNCATION, and one far below it whose
    derived-system step stops the run, print the reports of two separate
    solves at N and at RADIUS_TRUNCATION."""
    assert reproduce_exponential_example(3, 240).format_text() == SELFTEST_P3_N240
    assert reproduce_exponential_example(3, 2, 1).format_text() == SELFTEST_P3_N2


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


def test_exponential_example_above_p_100():
    """The radius window grows to 2p, so for p > 100 it still holds the
    support indices p and 2p."""
    report = reproduce_exponential_example(211, 211, 1)
    assert report.passed
    assert "at N=422, start 211" in report.steps[-2].detail


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
