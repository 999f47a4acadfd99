"""Ritt differential polynomials over truncated power series, and their tropical images.

A differential polynomial is a finite sum of terms A_lam * x^lam where lam is
a sparse exponent matrix over pairs (variable i, derivative order j) and
A_lam is a truncated series.  Tropicalization replaces each A_lam by its
rank-2 valuation, giving a `Poly`, the one sparse container for
polynomials with tropical, field or residue coefficients.  One evaluator
(`evaluate`) computes such a polynomial's value: a leading-term provider
gives the value of x_i^(j), e.g. the leading term of the j-th tropical
derivative of a series, and the report gives the minimum, the monomials
attaining it, whether it tropically vanishes, and whether an exhausted
window could still reach it (`ambiguous`).  Reports are values: a caller
that evaluates a system passes them on to whatever reads them (the solution
table, initial forms), so no polynomial is evaluated twice at one candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import MissingVariable, TruncationExhausted
from .fields import FieldBackend, FieldElem, power
from .semiring import T_INF, Rat, TropNum, tropically_vanishes
from .series import LeadingTerm, PowerSeries, TropSeries, rank2_val


@dataclass(frozen=True, slots=True, eq=False)
class ExponentMatrix:
    """Sparse exponent matrix of a differential monomial prod (x_i^(j))^e.

    Entries are (((i, j), e), ...) with e >= 1, sorted by (i, j); variable
    indices i are 0-based internally.  The graded key (degree, entries) and
    its hash are computed once, on construction.
    """

    entries: tuple[tuple[tuple[int, int], int], ...]
    _key: tuple = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)

    def __post_init__(self):
        key = (sum(e for _, e in self.entries), self.entries)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other):
        if other.__class__ is not ExponentMatrix:
            return NotImplemented
        return self._hash == other._hash and self.entries == other.entries

    def __hash__(self) -> int:
        return self._hash

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
        return self._key[0]

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
        """Leibniz step: one factor x_i^(j) becomes x_i^(j+1).

        (i, j+1) sorts right after (i, j), so the entries are edited where
        (i, j) stands, in one pass.
        """
        entries = self.entries
        ij = (i, j)
        for k, (key, e) in enumerate(entries):
            if key == ij:
                break
        else:
            raise ValueError(f"no factor x_{i + 1}^({j}) to differentiate")
        up = (i, j + 1)
        rest = k + 1
        if rest < len(entries) and entries[rest][0] == up:
            tail = ((up, entries[rest][1] + 1),) + entries[rest + 1:]
        else:
            tail = ((up, 1),) + entries[rest:]
        head = entries[:k] if e == 1 else entries[:k] + ((ij, e - 1),)
        return ExponentMatrix(head + tail)

    def sort_key(self):
        """Graded ordering key, then entrywise lexicographic for determinism."""
        return self._key


CONSTANT_MONOMIAL = ExponentMatrix(())


def _is_additive_identity(c) -> bool:
    return c.is_inf if isinstance(c, TropNum) else c.is_zero


def _sorted_terms(terms: Mapping[ExponentMatrix, object]):
    """Terms in graded order, without additive-identity coefficients."""
    kept = ((lam, c) for lam, c in terms.items() if not _is_additive_identity(c))
    return tuple(sorted(kept, key=lambda kv: kv[0].sort_key()))


@dataclass(frozen=True, slots=True)
class Poly:
    """Sparse polynomial in the x_i^(j) with coefficients of one type.

    The coefficients carry their own ring: tropical values (TropNum),
    field elements (FieldElem) or residues (ResidueElem).  Terms are sorted
    graded-lexicographically; additive-identity coefficients (inf, 0) are
    dropped on construction.
    """

    nvars: int
    terms: tuple[tuple[ExponentMatrix, object], ...]

    @staticmethod
    def make(nvars: int, terms: Mapping[ExponentMatrix, object]) -> "Poly":
        return Poly(nvars, _sorted_terms(terms))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def map(self, fn: Callable[[object], object]) -> "Poly":
        """The coefficientwise image c -> fn(c)."""
        return Poly.make(self.nvars, {lam: fn(c) for lam, c in self.terms})


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
             terms: Iterable[tuple[ExponentMatrix, PowerSeries]]) -> "DiffPoly":
        """The sum of the (monomial, coefficient) pairs in window `truncation`.

        Each monomial's coefficients are collected first and summed once,
        degree by degree, in the window; zero sums are dropped.  Every
        DiffPoly operation builds its result here.
        """
        collected: dict[ExponentMatrix, list[PowerSeries]] = {}
        for lam, coeff in terms:
            parts = collected.get(lam)
            if parts is None:
                collected[lam] = [coeff]
            else:
                parts.append(coeff)
        return DiffPoly(backend, nvars, truncation, _sorted_terms({
            lam: parts[0].with_window(truncation) if len(parts) == 1
            else PowerSeries.sum(backend, truncation, parts)
            for lam, parts in collected.items()}))

    @staticmethod
    def zero(backend: FieldBackend, nvars: int, truncation: int) -> "DiffPoly":
        return DiffPoly(backend, nvars, truncation, ())

    @staticmethod
    def var(backend: FieldBackend, nvars: int, truncation: int, i: int, j: int) -> "DiffPoly":
        one = PowerSeries.one(backend, truncation)
        return DiffPoly.make(backend, nvars, truncation, [(ExponentMatrix.var(i, j), one)])

    @staticmethod
    def constant(backend: FieldBackend, nvars: int, series: PowerSeries) -> "DiffPoly":
        return DiffPoly.make(backend, nvars, series.truncation, [(CONSTANT_MONOMIAL, series)])

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
        return DiffPoly.make(self.backend, self.nvars, n, self.terms + other.terms)

    def __neg__(self) -> "DiffPoly":
        return DiffPoly(self.backend, self.nvars, self.truncation,
                        tuple((lam, -c) for lam, c in self.terms))

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        return self + (-other)

    def __mul__(self, other: "DiffPoly") -> "DiffPoly":
        """Product; each coefficient product lies in the smaller window already."""
        n = self._common(other)
        return DiffPoly.make(self.backend, self.nvars, n, (
            (lam * mu, a * b) for lam, a in self.terms for mu, b in other.terms))

    def __pow__(self, n: int) -> "DiffPoly":
        if n < 0:
            raise ValueError("polynomial powers need n >= 0")
        one = DiffPoly.constant(self.backend, self.nvars,
                                PowerSeries.one(self.backend, self.truncation))
        return power(self, n, one)

    def scale(self, c: FieldElem) -> "DiffPoly":
        return DiffPoly.make(self.backend, self.nvars, self.truncation,
                             [(lam, s.scale(c)) for lam, s in self.terms])

    def diff(self) -> "DiffPoly":
        """Total derivative: Leibniz across coefficients and monomials."""
        if self.truncation < 1:
            raise TruncationExhausted("coefficient truncation exhausted by d")
        n = self.truncation - 1
        out: list[tuple[ExponentMatrix, PowerSeries]] = []
        for lam, a in self.terms:
            out.append((lam, a.derivative()))
            a_low = a.truncate(n)
            out.extend((lam.bump(i, j), a_low if e == 1 else a_low.scale(e))
                       for (i, j), e in lam.entries)
        return DiffPoly.make(self.backend, self.nvars, n, out)

    def constant_terms(self) -> Poly:
        """This polynomial at t = 0, with coefficients in K."""
        return Poly.make(self.nvars, {lam: c.constant_term() for lam, c in self.terms})


@dataclass(frozen=True, slots=True)
class EvalReport:
    """Result of a tropical evaluation: minimum value, argmin set, vanishing flag.

    `truncation_limited` records that some needed leading term came from an
    exhausted window, in which case a non-vanishing verdict holds only up to
    the truncation.  `ambiguous` records that the minimum is finite and such
    a term could still reach it, so the attainment set is not certified.
    """

    value: TropNum
    attainment: tuple[ExponentMatrix, ...]
    vanishes: bool
    truncation_limited: bool
    ambiguous: bool


def tropicalize_poly(f: DiffPoly) -> Poly:
    """Apply the rank-2 valuation coefficientwise.

    Every coefficient of a DiffPoly is nonzero inside its window (`make`
    drops the others), so no rank-2 value here is truncation-limited.
    """
    return Poly.make(f.nvars, {lam: rank2_val(a).value for lam, a in f.terms})


def eval_classical(f: DiffPoly, a: Sequence[PowerSeries]) -> PowerSeries:
    """Plug d^j(a_i) in for x_i^(j) and expand; exact up to the propagated truncation.

    Each term multiplies its derivative factors first; a unit coefficient
    only cuts that product to its window instead of convolving with 1.
    """
    if len(a) != f.nvars:
        raise MissingVariable(f"expected {f.nvars} series, got {len(a)}")
    backend = f.backend
    derivs: dict[int, list[PowerSeries]] = {}  # derivs[i][j] = d^j(a_i)
    for lam, _ in f.terms:
        for (i, j), _ in lam.entries:
            if i not in derivs and a[i].backend is not backend and a[i].backend != backend:
                raise ValueError("mixed field backends")
            chain = derivs.setdefault(i, [a[i]])
            while len(chain) <= j:
                chain.append(chain[-1].derivative())

    unit = ((0, backend.one()),)
    total: Optional[PowerSeries] = None
    for lam, coeff in f.terms:
        prod = None
        for (i, j), e in lam.entries:
            factor = derivs[i][j] ** e
            prod = factor if prod is None else prod * factor
        if prod is None:
            prod = coeff
        elif coeff.terms == unit:
            prod = prod.truncate(coeff.truncation)
        else:
            prod = coeff * prod
        total = prod if total is None else total + prod
    if total is None:
        n = min([f.truncation] + [ai.truncation for ai in a])
        return PowerSeries.zero(f.backend, n)
    return total


LeadingProvider = Callable[[int, int], LeadingTerm]


def _first(w: TropNum) -> Rat:
    """First coordinate of a finite tropical value."""
    return w.value[0] if w.value.__class__ is tuple else w.value


def evaluate(g: Poly, leading: LeadingProvider) -> EvalReport:
    """Tropical evaluation of g with x_i^(j) read from `leading`.

    Each monomial weighs coeff * prod Phi(d^j S_i)^e.  A weight with a factor
    from an exhausted window reads as infinite; the first coordinate of its
    true value is at least that of its known part (coefficient and unflagged
    factors) plus, per flagged factor, e times the first exponent past that
    factor's window.  The report is `ambiguous` when such a bound does not
    exceed a finite minimum.
    """
    weights, bounds = [], []
    for lam, coeff in g.terms:
        w, beyond, flagged = coeff, 0, False
        for (i, j), e in lam.entries:
            lt = leading(i, j)
            if lt.truncation_limited:
                beyond += e * lt.beyond
                flagged = True
            else:
                w = w * lt.value ** e
        if flagged:
            bounds.append(_first(w) + beyond)
        weights.append(T_INF if flagged else w)
    vr = tropically_vanishes(weights)
    attainment = tuple(sorted((g.terms[k][0] for k in vr.attainment),
                              key=ExponentMatrix.sort_key))
    ambiguous = not vr.total.is_inf and any(b <= _first(vr.total) for b in bounds)
    return EvalReport(vr.total, attainment, vr.vanishes, bool(bounds), ambiguous)


def at_vector(b: Sequence[Sequence[TropNum]]) -> LeadingProvider:
    """Plain min-plus provider: x_i^(j) is the constant b[i][j], no differential relations."""
    def leading(i: int, j: int) -> LeadingTerm:
        if i >= len(b) or j >= len(b[i]):
            raise MissingVariable(f"no value supplied for x_{i + 1}^({j})")
        return LeadingTerm(b[i][j])
    return leading


def eval_tropical(g: Poly, s: Sequence[TropSeries]) -> EvalReport:
    """Evaluate a tropicalized polynomial at tropical series: x_i^(j) is Phi(d_v^j S_i)."""
    if len(s) != g.nvars:
        raise MissingVariable(f"expected {g.nvars} series, got {len(s)}")
    return evaluate(g, lambda i, j: s[i].diff_leading(j))


def f_lr(f: DiffPoly, r: int) -> Poly:
    """The polynomial (d^r f) evaluated at t = 0, with coefficients in K."""
    return derived_system(f, r)[r].constant_terms()


def derived_system(f: DiffPoly, m: int) -> list[DiffPoly]:
    """The finite derived family f, df, ..., d^m f."""
    out = [f]
    for _ in range(m):
        out.append(out[-1].diff())
    return out


def derived_tropical_system(f: DiffPoly, m: int) -> list[Poly]:
    return [tropicalize_poly(g) for g in derived_system(f, m)]


@dataclass(frozen=True, slots=True)
class SolutionReport:
    """Per-equation tropical-vanishing table for a candidate solution."""

    reports: tuple[EvalReport, ...]
    all_vanish: bool
    truncation_limited: bool
    failing: tuple[int, ...]

    @staticmethod
    def of(reports: Iterable[EvalReport]) -> "SolutionReport":
        """The table of the per-equation reports, in equation order."""
        reports = tuple(reports)
        failing = tuple(k for k, r in enumerate(reports) if not r.vanishes)
        limited = any(r.truncation_limited for r in reports)
        return SolutionReport(reports, not failing, limited, failing)


def is_tropical_solution(system: Sequence[Poly], s: Sequence[TropSeries]) -> SolutionReport:
    """Check a candidate against every equation of a (derived) tropical system."""
    return SolutionReport.of(eval_tropical(g, s) for g in system)
