"""Desk-scale verification harness for the fundamental-theorem inclusions.

A classical recurrence oracle solves first-order linear scalar equations
x' = g x exactly; tropicalized oracle solutions are then checked against the
derived tropical system (the easy inclusion) and against the vector checks
on the non-differential polynomials F_r = (d^r f)|_{t=0}.  For the p-adic
exponential family everything is recomputed end to end from one certified
oracle solution per call: closed-form tropical coefficients, derived-system
solution, initial form, radius, and Grigoriev-mode projection.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .diffpoly import (
    DiffPoly,
    ExponentMatrix,
    Poly,
    SolutionReport,
    at_vector,
    derived_system,
    eval_classical,
    evaluate,
    is_tropical_solution,
    tropicalize_poly,
)
from .errors import NotAClassicalSolution, TruncationExhausted
from .fields import FieldBackend, FieldElem, ResidueElem, dot
from .initial import initial_form, initial_system_monomial_check
from .radius import RadiusRule, radius_from_rule, radius_window_estimate
from .semiring import NatValuation
from .series import (
    PowerSeries,
    TropSeries,
    sigma_to_grigoriev,
    tropicalize_series,
)

DEFAULT_SEED = 271828
G_DEGREE = 3  # degree of the random right-hand sides g of `verify_ft`
RADIUS_TRUNCATION = 200  # least window of the exponential example's radius step


def default_window(p: Optional[int], truncation: Optional[int] = None,
                   order: Optional[int] = None) -> tuple[int, int]:
    """(N, m) with unset values at N = 6p and m = 3p, or 12 and 6 without a prime."""
    scale = p if p else 2
    return (6 * scale if truncation is None else truncation,
            3 * scale if order is None else order)


@dataclass(frozen=True, slots=True)
class LinearODE:
    """First-order linear scalar equation x' = g x with initial value c0."""

    g: PowerSeries
    c0: FieldElem
    truncation: int

    def __post_init__(self):
        if self.g.truncation < self.truncation - 1:
            raise TruncationExhausted("right-hand side g must be truncated to >= N-1")

    def as_diffpoly(self) -> DiffPoly:
        """The defining polynomial x' - g*x."""
        backend = self.g.backend
        return DiffPoly.make(backend, 1, self.truncation, [
            (ExponentMatrix.var(0, 1), PowerSeries.one(backend, self.truncation)),
            (ExponentMatrix.var(0, 0), -self.g),  # make re-windows g to N
        ])


def solve_linear(ode: LinearODE) -> PowerSeries:
    """Exact power-series solution by the convolution recurrence.

    c_{k+1} = (1/(k+1)) sum_{j<=k} g_j c_{k-j}, summed over the pairs with
    g_j and c_{k-j} both nonzero, as one `dot` and one exact division by
    the int k + 1.  A step with no such pair appends zero with no field
    arithmetic.  Every run certifies the result by `_first_mismatch`; a
    degree where x' and g x differ raises NotAClassicalSolution.
    """
    backend = ode.g.backend
    g_support = [(j, gj) for j, gj in ode.g.terms if j < ode.truncation]
    zero = backend.zero()
    coeffs = [ode.c0]
    for k in range(ode.truncation):
        pairs = [(gj, coeffs[k - j]) for j, gj in g_support
                 if j <= k and not coeffs[k - j].is_zero]
        coeffs.append(dot(backend, pairs) / (k + 1) if pairs else zero)
    sol = PowerSeries.from_coeffs(backend, ode.truncation, coeffs)
    if ode.truncation >= 1 and (k := _first_mismatch(ode, sol)) is not None:
        raise NotAClassicalSolution(f"recurrence oracle failed its own equation at t^{k}")
    return sol


def _first_mismatch(ode: LinearODE, sol: PowerSeries) -> Optional[int]:
    """The least k < N where x' and g x differ at t^k, or None: (k+1) c_(k+1) against
    (g x)_k of a fresh product, compared with `==`, exact on canonical elements."""
    dx = {k - 1: c * k for k, c in sol.terms if k}
    gx = dict((ode.g.truncate(ode.truncation - 1) * sol).terms)
    return None if dx == gx else min(k for k in dx.keys() | gx.keys() if dx.get(k) != gx.get(k))


def exp_equation(p: int, truncation: int) -> tuple[LinearODE, DiffPoly]:
    """The p-adic exponential equation x' = p*zeta*t^(p-1)*x over Q(zeta)."""
    backend = FieldBackend("eisenstein", p)
    g = PowerSeries.monomial(backend, max(truncation - 1, p - 1),
                             backend.zeta() * p, p - 1)
    ode = LinearODE(g, backend.one(), truncation)
    return ode, ode.as_diffpoly()


def exp_rule(p: int) -> RadiusRule:
    """The tropical law of exp(zeta t^p) over Q(zeta): m/(p-1) - v_p(m!) at
    t^(m*p), infinity elsewhere."""
    return RadiusRule(p, Fraction(1, p - 1), Fraction(0), True, p)


def exp_tropical_closed_form(p: int, truncation: int) -> TropSeries:
    """Tropicalization of exp(zeta t^p) in window `truncation`: `exp_rule(p)`'s series."""
    return exp_rule(p).series(FieldBackend("eisenstein", p).nat_val, truncation)


@dataclass(frozen=True, slots=True)
class FTStep:
    """One named pass/fail line of a verification report.

    `rows` holds an optional table (one string per line), e.g. the per-order
    tropical-vanishing table of a derived-system check.
    """

    name: str
    passed: bool
    detail: str
    rows: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class FTReport:
    """Machine-readable verification report; every claim carries N and m."""

    title: str
    backend: str
    truncation: int
    order: int
    steps: tuple[FTStep, ...]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.steps)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "backend": self.backend,
            "truncation": self.truncation,
            "order": self.order,
            "passed": self.passed,
            "steps": [{"name": s.name, "passed": s.passed, "detail": s.detail,
                       "rows": list(s.rows)}
                      for s in self.steps],
        }

    def format_text(self) -> str:
        lines = [f"{self.title} (backend: {self.backend}, N={self.truncation}, m={self.order})"]
        for s in self.steps:
            lines.append(f"  [{'PASS' if s.passed else 'FAIL'}] {s.name}: {s.detail}")
            lines.extend(f"      {row}" for row in s.rows)
        lines.append(f"overall: {'ALL PASS' if self.passed else 'FAILED'}")
        return "\n".join(lines)


def _vanishing_table(report: SolutionReport, nat_val: NatValuation) -> tuple[str, ...]:
    """Per-order rows: minimum value, attainment count, truncation flag."""
    rows = []
    for k, rep in enumerate(report.reports):
        flag = ", truncation-limited" if rep.truncation_limited else ""
        verdict = "vanishes" if rep.vanishes else "FAILS"
        rows.append(f"d^{k}: value {nat_val.to_text(rep.value)}, attained {len(rep.attainment)}x"
                    f" ({verdict}{flag})")
    return tuple(rows)


def _solution_detail(report: SolutionReport, m: int) -> str:
    if report.all_vanish:
        text = f"all {len(report.reports)} equations vanish up to order {m}"
    else:
        text = f"fails at derivative orders {list(report.failing)}"
    if report.truncation_limited:
        text += " (truncation-limited)"
    return text


def check_easy_inclusion(family: Sequence[Union[DiffPoly, Poly]],
                         sol: Sequence[PowerSeries]) -> SolutionReport:
    """Tropicalized classical solutions solve the tropicalized derived system.

    `family` is f, df, ..., d^m f (see `derived_system`).  Raises
    NotAClassicalSolution unless eval(f, sol) vanishes identically within
    the truncation window.
    """
    residual = eval_classical(family[0], sol)
    if not residual.is_zero:
        raise NotAClassicalSolution(
            f"residual has nonzero coefficient at t^{residual.order()}")
    s = tuple(tropicalize_series(a) for a in sol)
    return is_tropical_solution([tropicalize_poly(g) for g in family], s)


def t0_face(g: Poly) -> Poly:
    """trop(h|_(t=0)) read off g = trop(h): the terms (0, b) of g, each as the rank-1 b."""
    return g.map(lambda w: w[1] if w[0] == 0 else None)


def check_truncation_vectors(system: Sequence[Poly], s: Sequence[TropSeries]) -> SolutionReport:
    """A tropical solution truncates to a solution of the F_r tropicalizations.

    F_r = (d^r f)|_(t=0), and a coefficient's rank-2 value is (t-order,
    valuation of its lowest term), so trop(F_r) is the `t0_face` of
    trop(d^r f) in `system`.  It is evaluated at B, b_j = c_j + v(j!) the
    constant term of d_v^j S: b where its leading term is (0, b), else inf.
    The values are constants, so no report is truncation-limited.
    """
    b = [[w[1] if w.__class__ is tuple and w[0] == 0 else None
          for w in map(si.leading, range(si.truncation + 1))] for si in s]
    return SolutionReport.of(evaluate(t0_face(g), at_vector(b)) for g in system)


def random_linear_odes(count: int, backend: FieldBackend, truncation: int,
                       seed: int) -> list[LinearODE]:
    """Seeded generator of nonzero right-hand sides with rational coefficients."""
    rng = random.Random(seed)

    def rat() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    odes = []
    while len(odes) < count:
        cs = [backend.elem(rat()) for _ in range(G_DEGREE + 1)]
        if all(c.is_zero for c in cs):
            continue
        g = PowerSeries.from_coeffs(backend, truncation - 1, cs)
        c0 = backend.elem(rat())
        if c0.is_zero:
            c0 = backend.one()
        odes.append(LinearODE(g, c0, truncation))
    return odes


def verify_ft(p: int, count: int, truncation: int, order: int,
              seed: int = DEFAULT_SEED) -> FTReport:
    """Easy-inclusion and truncation-vector checks over seeded random linear ODEs, m < N."""
    if order >= truncation:  # g is cut to N - 1, and F_m reads b_(m+1)
        raise ValueError(f"verify-ft needs order < truncation, got {order} >= {truncation}")
    backend = FieldBackend("padic", p)
    odes = random_linear_odes(count, backend, truncation, seed)
    steps = []
    for idx, ode in enumerate(odes):
        system = [tropicalize_poly(g) for g in derived_system(ode.as_diffpoly(), order)]
        # solve_linear certified the solution against f
        s = (tropicalize_series(solve_linear(ode)),)
        inclusion = is_tropical_solution(system, s)
        steps.append(FTStep(f"ode-{idx}-easy-inclusion", inclusion.all_vanish,
                            _solution_detail(inclusion, order)))
        vectors = check_truncation_vectors(system, s)
        detail = (f"all {len(vectors.reports)} F_r checks vanish" if vectors.all_vanish
                  else f"F_r fails at r in {list(vectors.failing)}")
        steps.append(FTStep(f"ode-{idx}-truncation-vectors", vectors.all_vanish, detail))
    return FTReport(f"fundamental-theorem inclusions on {count} random linear ODEs",
                    backend.describe(), truncation, order, tuple(steps))


def reproduce_exponential_example(p: int, truncation: Optional[int] = None,
                                  order: Optional[int] = None) -> FTReport:
    """Recompute every value of the p-adic exponential example end to end.

    Steps: oracle solution, tropicalization, closed-form coefficients,
    derived-system solution check, initial form x' + x, radius 1 by rule and
    window, Grigoriev projection.  Stops at the first failing step.  The
    oracle is solved and tropicalized once, in the window max(N, R); the
    steps read its window-N and window-R prefixes.  The radius window
    R = max(RADIUS_TRUNCATION, 2p) holds the support indices p and 2p.
    """
    n, m = default_window(p, truncation, order)
    if n < max(m, p - 1):  # d^m f needs m <= N, and g's t^(p-1) term p - 1 <= N
        raise ValueError(f"selftest needs --truncation >= max(--order, p - 1) = {max(m, p - 1)}")
    radius_n = max(RADIUS_TRUNCATION, 2 * p)
    backend = FieldBackend("eisenstein", p)
    steps: list[FTStep] = []

    def step(name: str, passed: bool, detail: str) -> bool:
        steps.append(FTStep(name, passed, detail))
        return passed

    def report() -> FTReport:
        return FTReport(f"p-adic exponential example, p={p}", backend.describe(),
                        n, m, tuple(steps))

    # The recurrence is prefix-stable, and its certificate in the longer
    # window covers every degree of window n.
    f = exp_equation(p, n)[1]
    long_s = tropicalize_series(solve_linear(exp_equation(p, max(n, radius_n))[0]))
    step("oracle-solution", True,
         f"recurrence solution of x' = {p}*zeta*t^{p - 1}*x to degree {n}")

    s = long_s.truncate(n)
    step("tropicalize-solution", True, "coefficientwise valuation over Q(zeta)")

    rule = exp_rule(p)
    expected = rule.series(backend.nat_val, n)
    if not step("closed-form-coefficients", s == expected,
                f"tropical coefficients equal m/{p - 1} - v_{p}(m!) at indices m*{p}, "
                "infinity elsewhere (exact)"):
        return report()

    family = derived_system(f, m)
    system = [tropicalize_poly(g) for g in family]
    solution = is_tropical_solution(system, (s,))
    steps.append(FTStep("derived-system-solution", solution.all_vanish,
                        _solution_detail(solution, m),
                        _vanishing_table(solution, backend.nat_val)))
    if not solution.all_vanish:
        return report()

    form = initial_form(f, solution.reports[0])
    expected_form = Poly.make(1, {
        ExponentMatrix.var(0, 1): ResidueElem(p, 1),
        ExponentMatrix.var(0, 0): ResidueElem(p, 1),
    })
    if not step("initial-form", form == expected_form,
                "in_S(f) = x' + x over F_p"):
        return report()

    monomials = initial_system_monomial_check([family], solution)
    if not step("initial-ideal-monomial-free", monomials.monomial_free,
                f"no monomial initial form among d^k f, k <= {m}; "
                "verdict matches the solution check"):
        return report()

    exact = radius_from_rule(rule)  # the law the closed-form step checked
    window = radius_window_estimate(long_s.truncate(radius_n))
    rule_ok = exact.log_radius == 0
    window_ok = abs(window.log_radius) <= Fraction(15, 100)
    if not step("radius", rule_ok and window_ok,
                f"rule-exact log_r = {exact.log_str()} (r = 1); window estimate "
                f"{window.log_str()} at N={radius_n}, start {window.window[0]}"):
        return report()

    grig_s = sigma_to_grigoriev(s)  # leading terms (k, 0); coefficients (a, b) become (a, 0)
    grig_ok = all(evaluate(g.map(lambda w: (w[0], 0)), lambda i, j: grig_s.leading(j)).vanishes
                  for g in system)
    step("grigoriev-projection", grig_ok,
         "support projection solves the t-adic tropicalization of the derived system")
    return report()
