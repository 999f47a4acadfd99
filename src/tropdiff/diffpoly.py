"""Ritt differential polynomials over truncated power series, and their tropical images.

A differential polynomial is a finite sum of terms A_lam * x^lam where lam is
a sparse exponent matrix over pairs (variable i, derivative order j) and
A_lam is a truncated series.  Tropicalization replaces each A_lam by its
rank-2 valuation; evaluation of the tropical image at a tuple of tropical
series plugs in the leading term of the j-th tropical derivative for
x_i^(j) and asks whether the resulting minimum tropically vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from .errors import MissingVariable, TruncationExhausted
from .fields import FieldBackend, FieldElem, field_val
from .semiring import T_INF, T2_INF, TropNum, Trop2, tropically_vanishes
from .series import (
    BoolSeries,
    PowerSeries,
    TropSeries,
    rank2_val,
    sigma0,
)


@dataclass(frozen=True, slots=True)
class ExponentMatrix:
    """Sparse exponent matrix of a differential monomial prod (x_i^(j))^e.

    Entries are (((i, j), e), ...) with e >= 1, sorted by (i, j); variable
    indices i are 0-based internally.
    """

    entries: tuple[tuple[tuple[int, int], int], ...]

    @staticmethod
    def make(exponents: Mapping[tuple[int, int], int]) -> "ExponentMatrix":
        items = tuple(sorted((ij, e) for ij, e in exponents.items() if e != 0))
        for (i, j), e in items:
            if i < 0 or j < 0 or e < 0:
                raise ValueError(f"bad exponent entry ({i},{j}) -> {e}")
        return ExponentMatrix(items)

    @staticmethod
    def var(i: int, j: int) -> "ExponentMatrix":
        return ExponentMatrix((((i, j), 1),))

    def degree(self) -> int:
        return sum(e for _, e in self.entries)

    def order(self) -> int:
        """Largest derivative order appearing; -1 for the constant monomial."""
        return max((j for (_, j), _ in self.entries), default=-1)

    @property
    def is_constant(self) -> bool:
        return not self.entries

    def exponent(self, i: int, j: int) -> int:
        for ij, e in self.entries:
            if ij == (i, j):
                return e
        return 0

    def __mul__(self, other: "ExponentMatrix") -> "ExponentMatrix":
        merged = dict(self.entries)
        for ij, e in other.entries:
            merged[ij] = merged.get(ij, 0) + e
        return ExponentMatrix.make(merged)

    def bump(self, i: int, j: int) -> "ExponentMatrix":
        """Leibniz step: one factor x_i^(j) becomes x_i^(j+1)."""
        merged = dict(self.entries)
        merged[(i, j)] = merged.get((i, j), 0) - 1
        merged[(i, j + 1)] = merged.get((i, j + 1), 0) + 1
        return ExponentMatrix.make(merged)

    def sort_key(self):
        """Graded ordering key, then entrywise lexicographic for determinism."""
        return (self.degree(), self.entries)


CONSTANT_MONOMIAL = ExponentMatrix(())


def _sorted_terms(terms: Mapping[ExponentMatrix, object]):
    return tuple(sorted(terms.items(), key=lambda kv: kv[0].sort_key()))


@dataclass(frozen=True, slots=True)
class DiffPoly:
    """Differential polynomial with truncated power-series coefficients.

    All coefficients share the polynomial's truncation; terms whose
    coefficient vanishes inside the window are dropped on construction.
    """

    backend: FieldBackend
    nvars: int
    truncation: int
    terms: tuple[tuple[ExponentMatrix, PowerSeries], ...]

    @staticmethod
    def make(backend: FieldBackend, nvars: int, truncation: int,
             terms: Mapping[ExponentMatrix, PowerSeries]) -> "DiffPoly":
        collected: dict[ExponentMatrix, PowerSeries] = {}
        for lam, coeff in terms.items():
            if coeff.truncation != truncation:
                coeff = PowerSeries.from_coeffs(backend, truncation, coeff.coeffs)
            if lam in collected:
                collected[lam] = collected[lam] + coeff
            else:
                collected[lam] = coeff
        kept = {lam: c for lam, c in collected.items() if not c.is_zero}
        return DiffPoly(backend, nvars, truncation, _sorted_terms(kept))

    @staticmethod
    def zero(backend: FieldBackend, nvars: int, truncation: int) -> "DiffPoly":
        return DiffPoly(backend, nvars, truncation, ())

    @staticmethod
    def var(backend: FieldBackend, nvars: int, truncation: int, i: int, j: int) -> "DiffPoly":
        one = PowerSeries.one(backend, truncation)
        return DiffPoly.make(backend, nvars, truncation, {ExponentMatrix.var(i, j): one})

    @staticmethod
    def constant(backend: FieldBackend, nvars: int, series: PowerSeries) -> "DiffPoly":
        return DiffPoly.make(backend, nvars, series.truncation, {CONSTANT_MONOMIAL: series})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> int:
        return max((lam.order() for lam, _ in self.terms), default=-1)

    def degree(self) -> int:
        return max((lam.degree() for lam, _ in self.terms), default=0)

    def coefficient(self, lam: ExponentMatrix) -> PowerSeries:
        for mu, c in self.terms:
            if mu == lam:
                return c
        return PowerSeries.zero(self.backend, self.truncation)

    def _common(self, other: "DiffPoly") -> int:
        if self.backend != other.backend or self.nvars != other.nvars:
            raise ValueError("mixed polynomial rings")
        return min(self.truncation, other.truncation)

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        n = self._common(other)
        out: dict[ExponentMatrix, PowerSeries] = {}
        for lam, c in self.terms + other.terms:
            c = c.truncate(n)
            out[lam] = out[lam] + c if lam in out else c
        return DiffPoly.make(self.backend, self.nvars, n, out)

    def __neg__(self) -> "DiffPoly":
        return DiffPoly(self.backend, self.nvars, self.truncation,
                        tuple((lam, -c) for lam, c in self.terms))

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        return self + (-other)

    def __mul__(self, other: "DiffPoly") -> "DiffPoly":
        n = self._common(other)
        out: dict[ExponentMatrix, PowerSeries] = {}
        for lam, a in self.terms:
            for mu, b in other.terms:
                key = lam * mu
                prod = a.truncate(n) * b.truncate(n)
                out[key] = out[key] + prod if key in out else prod
        return DiffPoly.make(self.backend, self.nvars, n, out)

    def __pow__(self, n: int) -> "DiffPoly":
        if n < 0:
            raise ValueError("polynomial powers need n >= 0")
        if n == 0:
            return DiffPoly.constant(self.backend, self.nvars,
                                     PowerSeries.one(self.backend, self.truncation))
        result = self
        for _ in range(n - 1):
            result = result * self
        return result

    def scale(self, c: FieldElem) -> "DiffPoly":
        return DiffPoly.make(self.backend, self.nvars, self.truncation,
                             {lam: s.scale(c) for lam, s in self.terms})

    def diff(self) -> "DiffPoly":
        """Total derivative: Leibniz across coefficients and monomials."""
        if self.truncation < 1:
            raise TruncationExhausted("coefficient truncation exhausted by d")
        n = self.truncation - 1
        out: dict[ExponentMatrix, PowerSeries] = {}

        def add(lam: ExponentMatrix, coeff: PowerSeries):
            out[lam] = out[lam] + coeff if lam in out else coeff

        for lam, a in self.terms:
            add(lam, a.derivative())
            a_low = a.truncate(n)
            for (i, j), e in lam.entries:
                add(lam.bump(i, j), a_low if e == 1 else a_low.scale(e))
        return DiffPoly.make(self.backend, self.nvars, n, out)

    def constant_terms(self) -> "KPoly":
        """This polynomial at t = 0, with coefficients in K."""
        return KPoly.make(self.backend, self.nvars,
                          {lam: c.constant_term() for lam, c in self.terms})


@dataclass(frozen=True, slots=True)
class TropDiffPoly:
    """Tropicalized differential polynomial: rank-2 coefficients per monomial."""

    nvars: int
    terms: tuple[tuple[ExponentMatrix, Trop2], ...]
    truncation_limited: bool = False

    @staticmethod
    def make(nvars: int, terms: Mapping[ExponentMatrix, Trop2], limited: bool = False) -> "TropDiffPoly":
        kept = {lam: c for lam, c in terms.items() if not c.is_inf}
        return TropDiffPoly(nvars, _sorted_terms(kept), limited)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> int:
        return max((lam.order() for lam, _ in self.terms), default=-1)


@dataclass(frozen=True, slots=True)
class TropPoly1:
    """Polynomial over T in the variables x_i^(j), no differential structure."""

    nvars: int
    terms: tuple[tuple[ExponentMatrix, TropNum], ...]

    @staticmethod
    def make(nvars: int, terms: Mapping[ExponentMatrix, TropNum]) -> "TropPoly1":
        kept = {lam: c for lam, c in terms.items() if not c.is_inf}
        return TropPoly1(nvars, _sorted_terms(kept))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> int:
        return max((lam.order() for lam, _ in self.terms), default=-1)


@dataclass(frozen=True, slots=True)
class KPoly:
    """Polynomial over the coefficient field in the variables x_i^(j)."""

    backend: FieldBackend
    nvars: int
    terms: tuple[tuple[ExponentMatrix, FieldElem], ...]

    @staticmethod
    def make(backend: FieldBackend, nvars: int, terms: Mapping[ExponentMatrix, FieldElem]) -> "KPoly":
        kept = {lam: c for lam, c in terms.items() if not c.is_zero}
        return KPoly(backend, nvars, _sorted_terms(kept))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def tropicalize(self) -> TropPoly1:
        return TropPoly1.make(self.nvars, {lam: field_val(c) for lam, c in self.terms})


@dataclass(frozen=True, slots=True)
class EvalReport:
    """Result of a tropical evaluation: minimum value, argmin set, vanishing flag.

    `truncation_limited` records that some needed leading term came from an
    exhausted window, in which case a non-vanishing verdict holds only up to
    the truncation.
    """

    value: Union[Trop2, TropNum]
    attainment: tuple[ExponentMatrix, ...]
    vanishes: bool
    truncation_limited: bool


def _report_from_terms(pairs, inf) -> EvalReport:
    values = [w for _, w, _ in pairs]
    vr = tropically_vanishes(values, inf=inf)
    attainment = tuple(sorted((pairs[k][0] for k in vr.attainment),
                              key=ExponentMatrix.sort_key))
    limited = any(flag for _, _, flag in pairs)
    return EvalReport(vr.total, attainment, vr.vanishes, limited)


def tropicalize_poly(f: DiffPoly) -> TropDiffPoly:
    """Apply the rank-2 valuation coefficientwise.

    A coefficient that is zero inside the window only (possible after heavy
    differentiation) is dropped and flags the result.
    """
    out: dict[ExponentMatrix, Trop2] = {}
    limited = False
    for lam, a in f.terms:
        lt = rank2_val(a)
        if lt.truncation_limited:
            limited = True
            continue
        out[lam] = lt.value
    return TropDiffPoly.make(f.nvars, out, limited)


def sigma0_poly(g: TropDiffPoly) -> TropPoly1:
    """Grigoriev-mode image: project every coefficient onto its t-order."""
    return TropPoly1.make(g.nvars, {lam: sigma0(c) for lam, c in g.terms})


def eval_classical(f: DiffPoly, a: Sequence[PowerSeries]) -> PowerSeries:
    """Plug d^j(a_i) in for x_i^(j) and expand; exact up to the propagated truncation."""
    if len(a) != f.nvars:
        raise MissingVariable(f"expected {f.nvars} series, got {len(a)}")
    cache: dict[tuple[int, int], PowerSeries] = {}

    def deriv(i: int, j: int) -> PowerSeries:
        if (i, j) not in cache:
            cache[(i, j)] = a[i] if j == 0 else deriv(i, j - 1).derivative()
        return cache[(i, j)]

    total: Optional[PowerSeries] = None
    for lam, coeff in f.terms:
        prod = coeff
        for (i, j), e in lam.entries:
            prod = prod * deriv(i, j) ** e
        total = prod if total is None else total + prod
    if total is None:
        n = min([f.truncation] + [ai.truncation for ai in a])
        return PowerSeries.zero(f.backend, n)
    return total


def eval_tropical(g: TropDiffPoly, s: Sequence[TropSeries]) -> EvalReport:
    """Evaluate a tropicalized polynomial at tropical series (pair-style evaluation)."""
    if len(s) != g.nvars:
        raise MissingVariable(f"expected {g.nvars} series, got {len(s)}")
    pairs = []
    for lam, coeff in g.terms:
        w = coeff
        flag = g.truncation_limited
        for (i, j), e in lam.entries:
            lt = s[i].diff_leading(j)
            w = w * lt.value ** e
            flag = flag or lt.truncation_limited
        pairs.append((lam, w, flag))
    return _report_from_terms(pairs, T2_INF)


def eval_grigoriev(g: TropPoly1, s: Sequence[BoolSeries]) -> EvalReport:
    """Pair-style evaluation in Grigoriev (trivial-valuation) mode."""
    if len(s) != g.nvars:
        raise MissingVariable(f"expected {g.nvars} series, got {len(s)}")
    pairs = []
    for lam, coeff in g.terms:
        w = coeff
        flag = False
        for (i, j), e in lam.entries:
            lt = s[i].diff_leading(j)
            w = w * lt.value ** e
            flag = flag or lt.truncation_limited
        pairs.append((lam, w, flag))
    return _report_from_terms(pairs, T_INF)


def eval_trop1(g: TropPoly1, b: Sequence[Sequence[TropNum]]) -> EvalReport:
    """Plain min-plus evaluation at a vector, ignoring differential relations."""
    pairs = []
    for lam, coeff in g.terms:
        w = coeff
        for (i, j), e in lam.entries:
            if i >= len(b) or j >= len(b[i]):
                raise MissingVariable(f"no value supplied for x_{i + 1}^({j})")
            w = w * b[i][j] ** e
        pairs.append((lam, w, False))
    return _report_from_terms(pairs, T_INF)


def f_lr(f: DiffPoly, r: int) -> KPoly:
    """The polynomial (d^r f) evaluated at t = 0, with coefficients in K."""
    return derived_system(f, r)[r].constant_terms()


def derived_system(f: DiffPoly, m: int) -> list[DiffPoly]:
    """The finite derived family f, df, ..., d^m f."""
    out = [f]
    for _ in range(m):
        out.append(out[-1].diff())
    return out


def derived_tropical_system(f: DiffPoly, m: int) -> list[TropDiffPoly]:
    return [tropicalize_poly(g) for g in derived_system(f, m)]


@dataclass(frozen=True, slots=True)
class SolutionReport:
    """Per-equation tropical-vanishing table for a candidate solution."""

    reports: tuple[EvalReport, ...]
    all_vanish: bool
    truncation_limited: bool
    failing: tuple[int, ...]


def is_tropical_solution(system: Sequence[TropDiffPoly], s: Sequence[TropSeries]) -> SolutionReport:
    """Check a candidate against every equation of a (derived) tropical system."""
    reports = tuple(eval_tropical(g, s) for g in system)
    failing = tuple(k for k, r in enumerate(reports) if not r.vanishes)
    limited = any(r.truncation_limited for r in reports)
    return SolutionReport(reports, not failing, limited, failing)
