"""Tropical radius of convergence of a tropical power series.

With coefficients a_i, the radius with respect to a base c > 1 is
r_c = c^L where L = liminf a_i / i (convention: r = infinity when the
coefficients are cofinitely infinite).  Radii are
kept in log space as exact rationals; only display exponentiates.

A finite truncation cannot certify a liminf, so estimates come in two kinds:
``exact-from-rule`` for coefficient laws of the shape

    a_n = infinity unless n = stride * m,
    a_{stride*m} = slope * m + offset - [factorial_correction] * v_p(m!),

whose liminf is (slope - [corr]/(p-1)) / stride exactly (the digit-sum part
of Legendre's formula contributes 0 along m = p^k), and
``window-lower-bound`` for the finite-sample proxy min a_i / i over a window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import BadBase, InvalidRule, TrivialBackend
from .semiring import NatValuation, Rat, T_INF, TropNum, format_rational, is_prime, v_p_factorial
from .series import PowerSeries, TropSeries, tropicalize_series

LogValue = Union[Fraction, float]  # float: the infinity marker, or an inexact base change

LOG_INF = float("inf")


@dataclass(frozen=True, slots=True)
class RadiusRule:
    """Coefficient law supported on an arithmetic progression of exponents.

    `finite_support` marks a polynomial (all-infinite tail), whose radius is
    infinite regardless of the other fields.
    """

    stride: int
    slope: Fraction
    offset: Fraction = Fraction(0)
    factorial_correction: bool = False
    p: Optional[int] = None
    finite_support: bool = False

    def __post_init__(self):
        if self.stride < 1:
            raise InvalidRule("stride must be a positive natural")
        if self.factorial_correction and (self.p is None or not is_prime(self.p)):
            raise InvalidRule("factorial correction needs a prime p")

    def coefficient(self, n: int) -> TropNum:
        """The coefficient of t^n prescribed by the rule."""
        if self.finite_support or n % self.stride:
            return T_INF
        m = n // self.stride
        a = self.slope * m + self.offset
        if self.factorial_correction:
            a -= v_p_factorial(m, self.p)
        return TropNum(a)

    def series(self, nat_val: NatValuation, truncation: int) -> TropSeries:
        return TropSeries.from_coeffs(nat_val, truncation,
                                      map(self.coefficient, range(truncation + 1)))


@dataclass(frozen=True, slots=True)
class RadiusEstimate:
    """Log-space radius with its guarantee level."""

    log_radius: LogValue
    kind: str  # "exact-from-rule" | "window-lower-bound"
    window: Optional[tuple[int, int]] = None
    caveat: Optional[str] = None

    def log_str(self) -> str:
        if self.log_radius == LOG_INF:
            return "inf"
        return format_rational(self.log_radius)


def radius_from_rule(rule: RadiusRule) -> RadiusEstimate:
    """Exact log-radius of a rule-described series."""
    if rule.finite_support:
        return RadiusEstimate(LOG_INF, "exact-from-rule")
    log = rule.slope
    if rule.factorial_correction:
        log -= Fraction(1, rule.p - 1)
    return RadiusEstimate(Fraction(log, rule.stride), "exact-from-rule")


def radius_window_estimate(a: TropSeries, window_start: Optional[int] = None) -> RadiusEstimate:
    """Finite-sample lower bound min a_i / i over i in [window_start, truncation].

    The window starts at truncation // 2 unless given.  This is a proxy for
    the liminf with no convergence guarantee; an all-infinite window yields
    an infinite candidate radius with a caveat.
    """
    if window_start is None:
        window_start = a.truncation // 2
    if not 0 <= window_start < a.truncation:
        raise ValueError("window must start inside the truncation window")
    window = (window_start, a.truncation)
    start = max(window_start, 1)
    best = min((Fraction(c.value, i) for i, c in a.terms if i >= start), default=None)
    if best is None:
        return RadiusEstimate(LOG_INF, "window-lower-bound", window,
                              caveat="all coefficients infinite in the window; "
                                     "infinite radius is only a candidate")
    return RadiusEstimate(best, "window-lower-bound", window)


def _integer_root(n: int, k: int) -> Optional[int]:
    """The integer r with r^k = n, for n >= 1, when n is an exact k-th power.

    log2 of the root, read off the top 53 bits of n, estimates the root to
    a relative error of about 2^-40.  A root below 2^32 is therefore the
    rounded estimate, checked on the low 64 bits before the full power.  A
    larger one is reached by Newton's method from above, started at the
    estimate raised until r^k >= n, so a few steps reach floor(n^(1/k)).
    """
    shift = max(n.bit_length() - 53, 0)
    log_root = (math.log2(n >> shift) + shift) / k
    if log_root < 32:
        r = round(2.0 ** log_root)
        low = 1 << 64
        return r if pow(r, k, low) == n % low and r ** k == n else None
    whole = int(log_root)
    exact_bits = min(whole, 52)
    r = int(2.0 ** (log_root - whole + exact_bits)) << (whole - exact_bits)
    step = (r >> 32) + 1
    while r ** k < n:
        r += step
        step *= 2
    while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = s
    return r if r ** k == n else None


def _exact_log_ratio(c: Fraction, cprime: Fraction) -> Optional[Fraction]:
    """Rational x = log_{c'}(c), i.e. c'^x = c, when one exists.

    Each base is written r^k with k largest: numerator and denominator are
    exact integer k-th powers (a prime factor q of k needs 2^q <= numerator).
    The log ratio is rational iff the two roots r agree, and it is k/k'.
    """
    roots = []
    for num, den in ((c.numerator, c.denominator), (cprime.numerator, cprime.denominator)):
        k, q = 1, 2
        while 1 << q <= num:
            rn = _integer_root(num, q) if is_prime(q) else None
            rd = None if rn is None else _integer_root(den, q)
            if rd is None:
                q += 1
            else:
                num, den, k = rn, rd, k * q
        roots.append((Fraction(num, den), k))
    (r, k), (rprime, kprime) = roots
    return Fraction(k, kprime) if r == rprime else None


def _log(c: Fraction) -> float:
    """ln c from integer logs, which cannot overflow."""
    return math.log(c.numerator) - math.log(c.denominator)


@dataclass(frozen=True, slots=True)
class BaseChange:
    """The same radius value expressed in two bases: r = c^log_c = c'^log_cprime."""

    base: Fraction
    log_radius: LogValue
    new_base: Fraction
    new_log_radius: LogValue
    exact: bool


def base_change(est: RadiusEstimate, c: Rat, cprime: Rat) -> BaseChange:
    """Re-express the radius r = c^log in base c'; exact when log_{c'}(c) is rational."""
    c, cprime = Fraction(c), Fraction(cprime)
    if c <= 1 or cprime <= 1:
        raise BadBase("bases must be rationals > 1")
    log = est.log_radius
    if isinstance(log, float) or log == 0:  # infinity and 0 are the same in every base
        return BaseChange(c, log, cprime, log, True)
    ratio = _exact_log_ratio(c, cprime)
    if ratio is not None:
        return BaseChange(c, log, cprime, log * ratio, True)
    return BaseChange(c, log, cprime, float(log) * _log(c) / _log(cprime), False)


def classical_radius(a: PowerSeries, window_start: Optional[int] = None,
                     rule: Optional[RadiusRule] = None) -> RadiusEstimate:
    """Radius of a classical series, computed on its tropicalization.

    Uses the rule path when a rule is supplied, the window path otherwise.
    """
    if a.backend.kind == "trivial":
        raise TrivialBackend("radius of convergence needs a nontrivial valuation")
    if rule is not None:
        return radius_from_rule(rule)
    return radius_window_estimate(tropicalize_series(a), window_start)


def fit_rule(a: TropSeries, stride: int, p: Optional[int]) -> RadiusRule:
    """Recover a coefficient rule from a truncated series, or fail.

    Tries the factorial-corrected law first (when p is available), then the
    uncorrected one; every coefficient in the window must match exactly.
    """
    if stride < 1:
        raise InvalidRule("stride must be a positive natural")
    finite = [(n, c.value) for n, c in a.terms]
    if not finite:
        raise InvalidRule("all coefficients are infinite; no rule to fit")
    if any(n % stride for n, _ in finite):
        raise InvalidRule(f"support is not contained in {stride}*N")
    multiples = list(range(0, a.truncation + 1, stride))
    if len(finite) < len(multiples):
        raise InvalidRule("some multiples of the stride have infinite "
                          "coefficients; not a rule-described series")
    corrections = [True, False] if p is not None else [False]
    for corr in corrections:
        g = {n // stride: (v + (v_p_factorial(n // stride, p) if corr else 0))
             for n, v in finite}
        ms = sorted(g)
        if len(ms) == 1:
            slope, offset = Fraction(0), g[ms[0]]
        else:
            m0, m1 = ms[0], ms[1]
            slope = Fraction(g[m1] - g[m0], m1 - m0)
            offset = g[m0] - slope * m0
        if all(g[m] == slope * m + offset for m in ms):
            return RadiusRule(stride, slope, offset, corr, p)
    raise InvalidRule("coefficients do not follow an affine law in m")


def describe_radius(est: RadiusEstimate, base: Rat) -> str:
    """Human rendering, e.g. "log_r = 0, r = 1 (base 3)"."""
    base = Fraction(base)
    if base <= 1:
        raise BadBase("bases must be rationals > 1")
    log = est.log_radius
    if log == LOG_INF:
        r = "inf"
    elif log.denominator == 1:
        r = format_rational(base ** log.numerator)
    else:
        r = f"{format_rational(base)}^({format_rational(log)})"
    text = f"log_r = {est.log_str()}, r = {r} (base {format_rational(base)})"
    if est.kind == "window-lower-bound":
        text += f" [window {est.window[0]}..{est.window[1]}, lower-bound proxy]"
    if est.caveat:
        text += f" [{est.caveat}]"
    return text
