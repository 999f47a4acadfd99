"""Degree-truncated power series, classical and tropical, with differential structure.

Every series carries a hard truncation degree N and stands for the
coefficients of t^0 .. t^N.  A series stores only its support, the nonzero
(classical) or finite (tropical) terms, and its operations loop over those.
Binary operations truncate to the smaller window; each differentiation
loses one degree.  A window that is all zero (classical) or all infinite
(tropical) cannot determine the leading term of the underlying infinite
series, so leading-term extraction returns an infinity flagged
`truncation_limited` instead of failing.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from typing import Iterable, Optional, Sequence, Union

from .errors import TruncationExhausted
from .fields import FieldBackend, FieldElem, dot, power
from .semiring import (
    NatValuation,
    T_INF,
    TRIVIAL_NAT_VAL,
    T_ZERO,
    TropNum,
    v_p_factorial,
)


@dataclass(frozen=True, slots=True)
class LeadingTerm:
    """Leading term of a truncated series; flagged when the window is empty.

    A flagged infinity means every coefficient inside the truncation window
    was zero / infinite -- the true series may still have support beyond it,
    from exponent `beyond` (the first index past the window) on.
    """

    value: TropNum
    truncation_limited: bool = False
    beyond: int = 0

    @property
    def is_inf(self) -> bool:
        return self.value.is_inf


@dataclass(frozen=True, slots=True)
class PowerSeries:
    """Truncated element of K[[t]], stored as its nonzero terms.

    `terms` is ((k, c_k), ...) sorted by k, with every c_k nonzero and
    0 <= k <= truncation; every other coefficient in the window is zero.
    Equal series therefore have equal fields, which `==` and `hash` rely on.
    `coeffs` is the derived dense view.
    """

    backend: FieldBackend
    truncation: int
    terms: tuple[tuple[int, FieldElem], ...]

    def __post_init__(self):
        if self.truncation < 0:
            raise ValueError("classical series need truncation >= 0")
        if self.terms and not 0 <= self.terms[0][0] <= self.terms[-1][0] <= self.truncation:
            raise ValueError("term degrees must lie in 0 .. truncation")

    @staticmethod
    def from_coeffs(backend: FieldBackend, truncation: int, coeffs: Iterable[FieldElem]) -> "PowerSeries":
        """The series c_0 + c_1 t + ...; coefficients past the window are dropped."""
        return PowerSeries(backend, truncation, tuple(
            (k, c) for k, c in enumerate(islice(coeffs, truncation + 1)) if not c.is_zero))

    @staticmethod
    def zero(backend: FieldBackend, truncation: int) -> "PowerSeries":
        return PowerSeries(backend, truncation, ())

    @staticmethod
    def one(backend: FieldBackend, truncation: int) -> "PowerSeries":
        return PowerSeries(backend, truncation, ((0, backend.one()),))

    @staticmethod
    def monomial(backend: FieldBackend, truncation: int, coeff: FieldElem, degree: int) -> "PowerSeries":
        inside = 0 <= degree <= truncation and not coeff.is_zero
        return PowerSeries(backend, truncation, ((degree, coeff),) if inside else ())

    @property
    def coeffs(self) -> tuple[FieldElem, ...]:
        """The dense coefficients c_0 .. c_N, zeros included."""
        out = [self.backend.zero()] * (self.truncation + 1)
        for k, c in self.terms:
            out[k] = c
        return tuple(out)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def order(self):
        """Smallest exponent with a nonzero coefficient, or None within the window."""
        return self.terms[0][0] if self.terms else None

    def constant_term(self) -> FieldElem:
        if self.terms and self.terms[0][0] == 0:
            return self.terms[0][1]
        return self.backend.zero()

    def with_window(self, truncation: int) -> "PowerSeries":
        """The same terms in window N = truncation: terms past N are dropped,
        and a wider window reads zero beyond the old one."""
        if truncation == self.truncation:
            return self
        cut = bisect_right(self.terms, truncation, key=itemgetter(0))
        return PowerSeries(self.backend, truncation, self.terms[:cut])

    def truncate(self, truncation: int) -> "PowerSeries":
        if truncation >= self.truncation:
            return self
        return self.with_window(truncation)

    def _common(self, other: "PowerSeries") -> int:
        """The smaller truncation of the two operands, which must share a backend."""
        if self.backend is not other.backend and self.backend != other.backend:
            raise ValueError("mixed field backends")
        return min(self.truncation, other.truncation)

    @staticmethod
    def sum(backend: FieldBackend, truncation: int,
            parts: Iterable["PowerSeries"]) -> "PowerSeries":
        """The sum of `parts` in window N = truncation, one running sum per degree.

        A degree whose running sum cancels is dropped; a later term there
        starts it afresh.
        """
        out: dict[int, FieldElem] = {}
        for part in parts:
            for k, c in part.terms:
                if k > truncation:
                    break
                old = out.get(k)
                if old is None:
                    out[k] = c
                    continue
                total = old + c
                if total.is_zero:
                    del out[k]
                else:
                    out[k] = total
        return PowerSeries(backend, truncation, tuple(sorted(out.items())))

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        return PowerSeries.sum(self.backend, self._common(other), (self, other))

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return self + (-other)

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(self.backend, self.truncation, tuple((k, -c) for k, c in self.terms))

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        """Cauchy product in the smaller window; each coefficient is one `dot`.

        Only the degrees i + j <= n that some pair of terms reaches are
        visited, so a sparse product costs its pairs, not the window.
        """
        n = self._common(other)
        a, b = self.truncate(n).terms, other.truncate(n).terms
        if len(a) > len(b):  # scan the smaller support, look up the larger
            a, b = b, a
        lookup = dict(b)
        b_degrees = list(lookup)
        reached: set[int] = set()
        for i, _ in a:
            reached.update(map(i.__add__, b_degrees[:bisect_right(b_degrees, n - i)]))
        out = []
        for k in sorted(reached):
            c = dot(self.backend, _pairs(a, lookup, k))
            if not c.is_zero:
                out.append((k, c))
        return PowerSeries(self.backend, n, tuple(out))

    def __pow__(self, n: int) -> "PowerSeries":
        if n < 0:
            raise ValueError("series powers need n >= 0")
        return power(self, n, PowerSeries.one(self.backend, self.truncation))

    def scale(self, c: Union[FieldElem, int]) -> "PowerSeries":
        if (c == 0) if isinstance(c, int) else c.is_zero:
            return PowerSeries.zero(self.backend, self.truncation)
        return PowerSeries(self.backend, self.truncation, tuple((k, a * c) for k, a in self.terms))

    def derivative(self) -> "PowerSeries":
        """d/dt; drops the truncation by one."""
        if self.truncation == 0:
            raise TruncationExhausted("no coefficients left to differentiate")
        terms = tuple((k - 1, c * k) for k, c in self.terms if k)
        return PowerSeries(self.backend, self.truncation - 1, terms)


def _pairs(a, lookup, k):
    """The factor pairs (a_i, b_(k-i)) of coefficient k, for a sorted support
    `a` and a degree -> coefficient map `lookup` of the other factor."""
    for i, x in a:
        if i > k:
            return
        y = lookup.get(k - i)
        if y is not None:
            yield x, y


@dataclass(frozen=True, slots=True)
class TropSeries:
    """Truncated tropical power series with a tropical differential d_v,
    stored as its finite terms.

    `terms` is ((k, a_k), ...) sorted by k, with every a_k finite and
    0 <= k <= truncation; every other coefficient in the window is infinite.
    As for `PowerSeries`, equal series have equal fields and `coeffs` is the
    derived dense view.  Truncation -1 (an empty window) marks a series
    differentiated past its data; its leading term is a flagged infinity.
    """

    nat_val: NatValuation
    truncation: int
    terms: tuple[tuple[int, TropNum], ...]
    # Memo of `_leading_table`, set on the first `diff_leading` call; not
    # part of the value, so equality, hashing and repr ignore it.
    _leading: Optional[tuple[LeadingTerm, ...]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.truncation < -1:
            raise ValueError("tropical series need truncation >= -1")
        if self.terms and not 0 <= self.terms[0][0] <= self.terms[-1][0] <= self.truncation:
            raise ValueError("term degrees must lie in 0 .. truncation")

    @staticmethod
    def from_coeffs(nat_val: NatValuation, truncation: int, coeffs: Iterable[TropNum]) -> "TropSeries":
        """The series with coefficients a_0, a_1, ...; those past the window are dropped."""
        return TropSeries(nat_val, truncation, tuple(
            (k, c) for k, c in enumerate(islice(coeffs, truncation + 1)) if not c.is_inf))

    @staticmethod
    def inf(nat_val: NatValuation, truncation: int) -> "TropSeries":
        return TropSeries(nat_val, truncation, ())

    @staticmethod
    def monomial(nat_val: NatValuation, truncation: int, coeff: TropNum, degree: int) -> "TropSeries":
        inside = 0 <= degree <= truncation and not coeff.is_inf
        return TropSeries(nat_val, truncation, ((degree, coeff),) if inside else ())

    @property
    def coeffs(self) -> tuple[TropNum, ...]:
        """The dense coefficients a_0 .. a_N, infinities included."""
        out = [T_INF] * (self.truncation + 1)
        for k, c in self.terms:
            out[k] = c
        return tuple(out)

    @property
    def is_inf(self) -> bool:
        return not self.terms

    def __add__(self, other: "TropSeries") -> "TropSeries":
        n = min(self.truncation, other.truncation)
        out = dict(self.truncate(n).terms)
        for k, c in other.truncate(n).terms:
            out[k] = out[k] + c if k in out else c
        return TropSeries(self.nat_val, n, tuple(sorted(out.items())))

    def __mul__(self, other: "TropSeries") -> "TropSeries":
        """Min-plus convolution."""
        n = min(self.truncation, other.truncation)
        out: dict[int, TropNum] = {}
        for i, a in self.truncate(n).terms:
            for j, b in other.terms:
                if i + j > n:
                    break
                c = a * b
                out[i + j] = out[i + j] + c if i + j in out else c
        return TropSeries(self.nat_val, n, tuple(sorted(out.items())))

    def scale(self, c: TropNum) -> "TropSeries":
        """Tropical scalar multiple: adds c to every coefficient."""
        if c.is_inf:
            return TropSeries.inf(self.nat_val, self.truncation)
        return TropSeries(self.nat_val, self.truncation, tuple((k, c * a) for k, a in self.terms))

    def diff(self) -> "TropSeries":
        """Tropical differential d_v: coefficient k-1 becomes v(k) + coefficient k."""
        if self.truncation <= 0:
            return TropSeries(self.nat_val, -1, ())
        v = self.nat_val
        return TropSeries(v, self.truncation - 1, tuple((k - 1, v(k) * c) for k, c in self.terms if k))

    def diff_leading(self, j: int) -> LeadingTerm:
        """Phi(d_v^j S) for j >= 0: (first finite exponent, its coefficient) in T_2.

        Read from a table of j = 0 .. K, K the last finite index, built on
        the first call (`_leading_table`).  Every j > K leaves no finite
        coefficient in the window: a flagged infinity whose true leading
        exponent is at least N - j + 1.
        """
        table = self._leading
        if table is None:
            table = self._leading_table()
            object.__setattr__(self, "_leading", table)
        if j < len(table):
            return table[j]
        return LeadingTerm(T_INF, True, max(self.truncation - j + 1, 0))

    def _leading_table(self) -> tuple[LeadingTerm, ...]:
        """Phi(d_v^j S) for j = 0 .. K in closed form, walking the terms backwards.

        Coefficient i of d_v^j S is S_{i+j} + v((i+j)!) - v(i!), so the first
        finite index k >= j gives the leading term (k - j, S_k + v(k!) - v((k-j)!)).
        """
        terms, p = self.terms, self.nat_val.p
        last = terms[-1][0] if terms else -1
        vfact = ([0] * (last + 1) if p is None  # vfact[m] = v(m!)
                 else [v_p_factorial(m, p) for m in range(last + 1)])
        table = []
        t = len(terms)  # terms[t] is the first term of index >= j
        for j in range(last, -1, -1):
            if t and terms[t - 1][0] == j:
                t -= 1
            k, c = terms[t]
            table.append(LeadingTerm(TropNum((k - j, c.value + vfact[k] - vfact[k - j]))))
        table.reverse()
        return tuple(table)

    def truncate(self, truncation: int) -> "TropSeries":
        if truncation >= self.truncation:
            return self
        cut = bisect_right(self.terms, truncation, key=itemgetter(0))
        return TropSeries(self.nat_val, truncation, self.terms[:cut])


def tropicalize_series(a: PowerSeries) -> TropSeries:
    """Coefficientwise valuation of a classical series (the differential enhancement)."""
    return TropSeries(a.backend.nat_val, a.truncation,
                      tuple((k, c.valuation()) for k, c in a.terms))


def rank2_val(a: PowerSeries) -> LeadingTerm:
    """Rank-2 valuation (t-order, valuation of the leading coefficient)."""
    if a.is_zero:
        return LeadingTerm(T_INF, True, a.truncation + 1)
    k, c = a.terms[0]
    return LeadingTerm(TropNum((k, c.valuation().value)))


def psi_one(a: Sequence[FieldElem], backend: FieldBackend) -> PowerSeries:
    """Taylor packing: coefficient j of the output is a_j / j!."""
    cs = (c / math.factorial(j) for j, c in enumerate(a))
    return PowerSeries.from_coeffs(backend, len(a) - 1, cs)


def psi(a: Sequence[Sequence[FieldElem]], backend: FieldBackend) -> tuple[PowerSeries, ...]:
    return tuple(psi_one(ai, backend) for ai in a)


def psi_one_inverse(s: PowerSeries) -> tuple[FieldElem, ...]:
    return tuple(c * math.factorial(j) for j, c in enumerate(s.coeffs))


def psi_inverse(series: Sequence[PowerSeries]) -> tuple[tuple[FieldElem, ...], ...]:
    return tuple(psi_one_inverse(s) for s in series)


def psi_trop(b: Sequence[TropNum], nat_val: NatValuation) -> TropSeries:
    """Tropical Taylor packing: coefficient j is b_j - v(j!)."""
    return TropSeries(nat_val, len(b) - 1, tuple(
        (j, TropNum(bj.value - nat_val.factorial(j).value)) for j, bj in enumerate(b) if not bj.is_inf))


def psi_trop_inverse(s: TropSeries) -> tuple[TropNum, ...]:
    """Inverse packing: b_j = c_j + v(j!) (the constant term of d_v^j applied to s)."""
    return tuple(s.nat_val.factorial(j) * c for j, c in enumerate(s.coeffs))


def sigma0(w: TropNum) -> TropNum:
    """Pair morphism on leading terms: projection onto the first component."""
    if w.is_inf:
        return T_INF
    return TropNum(w.value[0])


def sigma_to_grigoriev(s: TropSeries) -> TropSeries:
    """Pair morphism on series: keep the support, forget finite coefficients.

    The image is a Grigoriev series, a trivial-valuation series with
    coefficients in {0, inf}.
    """
    return TropSeries(TRIVIAL_NAT_VAL, s.truncation, tuple((k, T_ZERO) for k, _ in s.terms))
