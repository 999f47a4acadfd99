"""Tropical radius of convergence of a tropical power series.

With coefficients a_i, the radius with respect to a base c > 1 is
r_c = c^L where L = liminf a_i / i (convention: r = infinity when the
coefficients are cofinitely infinite).  Radii are kept in log space as
exact rationals, and so are base changes, by Euclid's algorithm on logarithms,
whenever exact; display writes r = c^L out only when it has few enough digits.

A finite truncation cannot certify a liminf, so estimates come in two kinds:
``exact-from-rule`` for coefficient laws of the shape

    a_n = infinity unless n = stride * m,
    a_{stride*m} = slope * m + offset - [factorial_correction] * v_p(m!),

whose liminf is (slope - [corr]/(p-1)) / stride exactly (the digit-sum part
of Legendre's formula contributes 0 along m = p^k), and
``window-lower-bound`` for the finite-sample proxy min a_i / i over a window.
Every rule, given or fitted, is checked against its window first
(`check_rule`); a window that both laws fit cannot tell them apart.

Series coefficients are valuations in units of 1/e, the unit of the
series' `nat_val`; rules, slopes, offsets and log-radii are rationals.  The
estimates divide by e, and a rule's coefficients are compared with the
series in its unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import BadBase, InvalidRule, TrivialBackend
from .semiring import NatValuation, Rat, TropNum, format_rational, is_prime, max_str_digits
from .series import PowerSeries, TropSeries, tropicalize_series

LogValue = Union[Fraction, float]  # float: the infinity marker, or an inexact base change

LOG_INF = float("inf")


@dataclass(frozen=True, slots=True)
class RadiusRule:
    """Coefficient law supported on an arithmetic progression of exponents."""

    stride: int
    slope: Fraction
    offset: Fraction = Fraction(0)
    factorial_correction: bool = False
    p: Optional[int] = None

    def __post_init__(self):
        if self.stride < 1:
            raise InvalidRule("stride must be a positive natural")
        if self.factorial_correction and (self.p is None or not is_prime(self.p)):
            raise InvalidRule("factorial correction needs a prime p")

    def series(self, nat_val: NatValuation, truncation: int) -> TropSeries:
        """The rule's series in window `truncation`, in the unit 1/e of `nat_val`,
        on the integers where e * slope and e * offset are integral.  A
        factorial correction reads v(m!) from `nat_val`, whose prime must be p."""
        if self.factorial_correction and nat_val.p != self.p:
            raise InvalidRule(f"a rule for p = {self.p} does not apply at p = {nat_val.p}")
        slope, offset = (nat_val.to_units(TropNum(q)).value for q in (self.slope, self.offset))
        count = truncation // self.stride + 1
        vfact = nat_val.factorials(count - 1) if self.factorial_correction else [0] * count
        return TropSeries(nat_val, truncation, tuple(
            (self.stride * m, TropNum(slope * m + offset - vfact[m])) for m in range(count)))


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
        if a.truncation < 1:
            raise ValueError("a window estimate needs truncation >= 1")
        window_start = a.truncation // 2
    if not 0 <= window_start < a.truncation:
        raise ValueError("window must start inside the truncation window")
    window = (window_start, a.truncation)
    start, e = max(window_start, 1), a.nat_val.e
    best = min((Fraction(c.value, i * e) for i, c in a.terms if i >= start), default=None)
    if best is None:
        return RadiusEstimate(LOG_INF, "window-lower-bound", window,
                              caveat="all coefficients infinite in the window; "
                                     "infinite radius is only a candidate")
    return RadiusEstimate(best, "window-lower-bound", window)


def _int_log_ratio(x: int, y: int) -> Optional[Fraction]:
    """log_y(x) for integers x, y >= 2 when it is rational, else None.

    One step of Euclid's algorithm on logarithms: x = y^k * r, k largest, read
    off the squares y, y^2, y^4, ... that divide x.  x and y are powers of one
    integer iff r = 1, or r < y and so are y and r; log_y(x) = k + 1/log_r(y).
    """
    squares = [y]
    while x % squares[-1] == 0:
        squares.append(squares[-1] ** 2)
    k = 0
    for i in reversed(range(len(squares) - 1)):
        if x % squares[i] == 0:
            x //= squares[i]
            k += 1 << i
    if x == 1:
        return Fraction(k)
    rest = _int_log_ratio(y, x) if x < y else None
    return None if rest is None else k + 1 / rest


def _exact_log_ratio(c: Fraction, cprime: Fraction) -> Optional[Fraction]:
    """Rational x = log_{c'}(c), i.e. c'^x = c, when one exists, for c, c' > 1.

    In lowest terms c'^x = c holds iff it holds for the numerators and for
    the denominators apart, so x is the log ratio of the numerators, which
    the denominators must share, unless both are 1.
    """
    x = _int_log_ratio(c.numerator, cprime.numerator)
    d, dprime = c.denominator, cprime.denominator
    if d == dprime == 1 or x is None:
        return x
    return x if 1 not in (d, dprime) and _int_log_ratio(d, dprime) == x else None


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


def classical_radius(a: PowerSeries, window_start: Optional[int] = None) -> RadiusEstimate:
    """Window estimate of a classical series' radius, computed on its tropicalization."""
    if a.backend.kind == "trivial":
        raise TrivialBackend("radius of convergence needs a nontrivial valuation")
    return radius_window_estimate(tropicalize_series(a), window_start)


def _check_support(a: TropSeries, stride: int):
    """The finite terms of `a` must sit at exactly the multiples of `stride`."""
    if any(n % stride for n, _ in a.terms):
        raise InvalidRule(f"support is not contained in {stride}*N")
    if len(a.terms) != a.truncation // stride + 1:
        raise InvalidRule("some multiples of the stride have infinite "
                          "coefficients; not a rule-described series")


def check_rule(rule: RadiusRule, a: TropSeries) -> RadiusRule:
    """`rule`, when every coefficient in the window of `a` is the rule's; else InvalidRule."""
    _check_support(a, rule.stride)
    to_text = a.nat_val.to_text
    for (n, c), (_, want) in zip(a.terms, rule.series(a.nat_val, a.truncation).terms):
        if c != want:
            raise InvalidRule(f"the coefficient of t^{n} is {to_text(c)}, the rule "
                              f"gives {to_text(want)}")
    return rule


def fit_rule(a: TropSeries, stride: int, p: Optional[int]) -> RadiusRule:
    """Recover a coefficient rule from a truncated series, or fail.

    v_p(0!) = v_p(1!) = 0, so both laws, factorial-corrected (when p is
    available) and plain, pass through a_0 and a_stride; each law's series
    is then compared with the window.  Both fit only when the window has no
    m >= p, where v_p(m!) > 0; their radii differ, so such a window is
    refused.
    """
    e = a.nat_val.e
    values = [Fraction(c.value, e) for _, c in a.terms[:2]] or [Fraction(0)]
    laws = [RadiusRule(stride, values[-1] - values[0], values[0], corr, p)
            for corr in ((True, False) if p is not None else (False,))]
    _check_support(a, stride)
    fits = [rule for rule in laws if rule.series(a.nat_val, a.truncation) == a]
    if not fits:
        raise InvalidRule("coefficients do not follow an affine law in m")
    if len(fits) == 2:
        corrected, plain = (radius_from_rule(rule).log_str() for rule in fits)
        raise InvalidRule(f"the factorial-corrected law (log_r = {corrected}) and the plain "
                          f"law (log_r = {plain}) both fit the window; a longer window decides")
    return fits[0]


def _power_prints(x: int, k: int) -> bool:
    """Whether x^k, for x >= 1 and k >= 0, has at most `max_str_digits()` digits.

    x^k >= 2^(k*(bits(x) - 1)) settles the large cases from bit lengths; any
    other x^k has at most twice the bits of 10^limit and is compared with it.
    """
    limit = max_str_digits()
    bound = 10 ** limit  # the least number with limit + 1 digits
    return limit == 0 or (k * (x.bit_length() - 1) < bound.bit_length() and x ** k < bound)


def describe_radius(est: RadiusEstimate, base: Rat) -> str:
    """Human rendering, e.g. "log_r = 0, r = 1 (base 3)"."""
    base = Fraction(base)
    if base <= 1:
        raise BadBase("bases must be rationals > 1")
    log = est.log_radius
    if log == LOG_INF:
        r = "inf"
    elif log.denominator == 1 and all(_power_prints(x, abs(log.numerator))
                                      for x in (base.numerator, base.denominator)):
        r = format_rational(base ** log.numerator)
    else:  # a fractional base is parenthesised: (7/2)^(1/2), not 7/2^(1/2)
        b = format_rational(base)
        if base.denominator != 1:
            b = f"({b})"
        r = f"{b}^({format_rational(log)})"
    text = f"log_r = {est.log_str()}, r = {r} (base {format_rational(base)})"
    if est.kind == "window-lower-bound":
        text += f" [window {est.window[0]}..{est.window[1]}, lower-bound proxy]"
    if est.caveat:
        text += f" [{est.caveat}]"
    return text
