"""Ritt differential polynomials over truncated power series, and their tropical images.

A differential polynomial is a finite sum of terms A_lam * x^lam where lam is
a sparse exponent matrix over pairs (variable i, derivative order j) and
A_lam is a truncated series.  Tropicalization replaces each A_lam by its
rank-2 valuation, giving a `Poly`, the one sparse container for
polynomials with tropical, field, residue or jet coefficients (a derived
family holds d^k f, k >= 1, as jets: `derived_system`).  One evaluator
(`evaluate`) computes such a polynomial's value at the values of the
x_i^(j) (e.g. the leading terms of the tropical derivatives of a series):
the minimum, the monomials attaining it, whether it tropically vanishes,
and whether an exhausted window could still reach it (`ambiguous`).  A
caller passes the reports on (solution table, initial forms), so no
polynomial is evaluated twice at one candidate.

Tropicalization, jets and evaluation run on raw tropical values, a TropNum's
`value`: None for infinity, a rational (rank 1) or a (t-exponent, units)
pair (rank 2), added with `min` and multiplied coordinatewise, with no
TropNum arithmetic.  A TropNum is built where a value leaves: the report's.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import comb, perm
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .errors import MissingVariable, TruncationExhausted
from .fields import FieldBackend, FieldElem
from .semiring import TropNum
from .series import LeadingTerm, PowerSeries, TropSeries


class ExponentMatrix(NamedTuple):
    """Sparse exponent matrix of a differential monomial prod (x_i^(j))^e.

    Entries are (((i, j), e), ...) with e >= 1, sorted by (i, j); variable
    indices i are 0-based internally, and `degree` is the sum of the e.  As
    a tuple, a monomial compares, hashes and sorts by (degree, entries): the
    graded order, then entrywise lexicographic for determinism.
    """

    degree: int
    entries: tuple[tuple[tuple[int, int], int], ...]

    @staticmethod
    def make(exponents: Mapping[tuple[int, int], int]) -> "ExponentMatrix":
        items = tuple(sorted((ij, e) for ij, e in exponents.items() if e != 0))
        for (i, j), e in items:
            if i < 0 or j < 0 or e < 0:
                raise ValueError(f"bad exponent entry ({i},{j}) -> {e}")
        return ExponentMatrix(sum(e for _, e in items), items)

    @staticmethod
    def var(i: int, j: int) -> "ExponentMatrix":
        return ExponentMatrix(1, (((i, j), 1),))

    @property
    def is_constant(self) -> bool:
        return not self.entries

    def __mul__(self, other: "ExponentMatrix") -> "ExponentMatrix":
        merged = dict(self.entries)
        for ij, e in other.entries:
            merged[ij] = merged.get(ij, 0) + e
        return ExponentMatrix(self.degree + other.degree, tuple(sorted(merged.items())))

    def bump(self, i: int, j: int) -> "ExponentMatrix":
        """Leibniz step: one factor x_i^(j) becomes x_i^(j+1).

        (i, j+1) sorts right after (i, j), so the entries are edited where
        (i, j) stands, in one pass.
        """
        ij = (i, j)
        for k, (key, _) in enumerate(self.entries):
            if key == ij:
                return ExponentMatrix(self.degree, _bump_at(self.entries, k))
        raise ValueError(f"no factor x_{i + 1}^({j}) to differentiate")


def _bump_at(entries, k: int):
    """The entries with one factor of entry k, x_i^(j), made x_i^(j+1)."""
    (i, j), e = entries[k]
    up = (i, j + 1)
    rest = k + 1
    if rest < len(entries) and entries[rest][0] == up:
        tail = ((up, entries[rest][1] + 1),) + entries[rest + 1:]
    else:
        tail = ((up, 1),) + entries[rest:]
    return (entries[:k] if e == 1 else entries[:k] + (((i, j), e - 1),)) + tail


CONSTANT_MONOMIAL = ExponentMatrix(0, ())


def _is_additive_identity(c) -> bool:
    """inf (None or T_INF) for a tropical coefficient, 0 for a field or residue one."""
    return c is None or (c.is_inf if isinstance(c, TropNum) else getattr(c, "is_zero", False))


def _sorted_terms(terms: Mapping[ExponentMatrix, object]):
    """Terms in graded order, without additive-identity coefficients."""
    kept = ((lam, c) for lam, c in terms.items() if not _is_additive_identity(c))
    return tuple(sorted(kept, key=itemgetter(0)))


@dataclass(frozen=True, slots=True)
class Poly:
    """Sparse polynomial in the x_i^(j) with coefficients of one type.

    The coefficients carry their own ring: tropical values (raw or TropNum),
    field elements (FieldElem), residues (ResidueElem) or jets (Jet).
    Terms are in graded-lexicographic order, without additive-identity
    coefficients (inf, 0); only `make` sorts, other constructors keep the
    order they are given.
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
        """The coefficientwise image c -> fn(c), in the same order."""
        return Poly(self.nvars, tuple((lam, d) for lam, c in self.terms
                                      if not _is_additive_identity(d := fn(c))))


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
        degree by degree, in the window; zero sums are dropped.  The parser and
        derivatives build their results here, the one place that sorts terms.
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

    @property
    def is_zero(self) -> bool:
        return not self.terms

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


def tropicalize_poly(f: Union[DiffPoly, Poly]) -> Poly:
    """Apply the rank-2 valuation coefficientwise, as raw pairs; a jet holds its value.

    Every coefficient of a DiffPoly or jet is nonzero inside its window, so
    no rank-2 value here is truncation-limited, and the terms are in graded
    order already, so they are kept as they stand.
    """
    return Poly(f.nvars, tuple(
        (lam, a.value if a.__class__ is Jet else (a.terms[0][0], a.terms[0][1].valuation().value))
        for lam, a in f.terms))


def constant_terms(f: Union[DiffPoly, Poly]) -> Poly:
    """f (a DiffPoly or a Poly of jets) at t = 0, with coefficients in K."""
    return Poly(f.nvars, f.terms).map(lambda c: c.constant_term())


def eval_classical(f: DiffPoly, a: Sequence[PowerSeries]) -> PowerSeries:
    """Plug d^j(a_i) in for x_i^(j) and expand; exact up to the propagated truncation.

    Each term multiplies its derivative factors first, then its coefficient.
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

    total: Optional[PowerSeries] = None
    for lam, coeff in f.terms:
        prod = None
        for (i, j), e in lam.entries:
            factor = derivs[i][j] ** e
            prod = factor if prod is None else prod * factor
        prod = coeff if prod is None else coeff * prod
        total = prod if total is None else total + prod
    if total is None:
        n = min([f.truncation] + [ai.truncation for ai in a])
        return PowerSeries.zero(f.backend, n)
    return total


LeadingProvider = Callable[[int, int], object]  # the raw x_i^(j), or a flagged LeadingTerm


def evaluate(g: Poly, leading: LeadingProvider) -> EvalReport:
    """Tropical evaluation of g on raw values, each x_i^(j) read once from `leading`.

    A TropNum coefficient is read as its value.  Each monomial weighs
    coeff * prod x_i^(j)^e.  A weight with a flagged factor reads as
    infinite; when its known part (the rest) is finite, the first coordinate
    of its true value is at least that of the known part plus, per flagged
    factor, e times the first exponent past that factor's window.  The
    report is `ambiguous` when such a bound does not exceed a finite minimum.
    """
    read: dict[tuple[int, int], object] = {}
    weights, bounds = [], []
    for lam, w in g.terms:
        if w.__class__ is TropNum:
            w = w.value
        beyond, flagged = 0, False
        for ij, e in lam.entries:
            try:
                x = read[ij]
            except KeyError:
                x = read[ij] = leading(*ij)
            if x.__class__ is LeadingTerm:
                beyond += e * x.beyond
                flagged = True
            elif w is None or x is None:
                w = None
            elif w.__class__ is tuple:
                w = (w[0] + e * x[0], w[1] + e * x[1])
            else:
                w = w + e * x
        if flagged:
            if w is not None:  # an infinite known part bounds nothing
                bounds.append((w[0] if w.__class__ is tuple else w) + beyond)
            w = None
        weights.append(w)
    total = min((w for w in weights if w is not None), default=None)  # inf: all attain it
    attainment = tuple(lam for (lam, _), w in zip(g.terms, weights) if w == total)
    first = total[0] if total.__class__ is tuple else total
    ambiguous = total is not None and any(b <= first for b in bounds)
    return EvalReport(TropNum(total), attainment, total is None or len(attainment) >= 2,
                      bool(bounds), ambiguous)


def at_vector(b: Sequence[Sequence]) -> LeadingProvider:
    """Plain min-plus provider: x_i^(j) is the constant b[i][j], a raw value
    or a TropNum, with no differential relations."""
    def leading(i: int, j: int):
        if i >= len(b) or j >= len(b[i]):
            raise MissingVariable(f"no value supplied for x_{i + 1}^({j})")
        x = b[i][j]
        return x.value if x.__class__ is TropNum else x
    return leading


def eval_tropical(g: Poly, s: Sequence[TropSeries]) -> EvalReport:
    """Evaluate a tropicalized polynomial at tropical series: x_i^(j) is Phi(d_v^j S_i)."""
    if len(s) != g.nvars:
        raise MissingVariable(f"expected {g.nvars} series, got {len(s)}")
    return evaluate(g, lambda i, j: s[i].leading(j))


def f_lr(f: DiffPoly, r: int) -> Poly:
    """The polynomial (d^r f) evaluated at t = 0, with coefficients in K."""
    return constant_terms(derived_system(f, r)[r])


def _leibniz_tables(lam: ExponentMatrix, top: int) -> list[dict[ExponentMatrix, int]]:
    """D_b = d^b(x^lam) for b = 0 .. top, each as {monomial: count}.

    Every count is a positive int: D_(b+1) applies the Leibniz step to each
    factor of each monomial of D_b, on the raw entries, and each distinct
    monomial becomes an ExponentMatrix once, of lam's degree, which a
    Leibniz step keeps.  The list stops early at the first empty table
    (x^lam constant).
    """
    tables = [{lam: 1}]
    last = {lam.entries: 1}
    for _ in range(top):
        step: dict[tuple, int] = {}
        for mu, count in last.items():
            for k, (_, e) in enumerate(mu):
                nu = _bump_at(mu, k)
                step[nu] = step.get(nu, 0) + count * e
        if not step:
            break
        tables.append({ExponentMatrix(lam.degree, nu): count for nu, count in step.items()})
        last = step
    return tables


class Jet(NamedTuple):
    """A coefficient of d^k f (k >= 1), held as its sources, not as a series.

    The coefficient is the sum of C(k, a) * count * c^(a) over its sources
    (c, a, count), c a coefficient of f by degree (see `derived_system`).
    `value` is its raw rank-2 value; its t^j coefficients are summed on demand.
    A NamedTuple: one is made per term of every d^k f, twice as fast as a
    frozen dataclass.
    """

    value: tuple[int, object]
    k: int
    sources: tuple[tuple[dict[int, FieldElem], int, int], ...]
    zero: FieldElem

    def coefficient(self, j: int) -> FieldElem:
        """The sum of C(k, a) * count * (j+a)!/j! * c_(j+a) over the sources."""
        total = self.zero
        for c, a, count in self.sources:
            if (x := c.get(j + a)) is not None:
                total = total + x * (comb(self.k, a) * count * perm(j + a, a))
        return total

    def leading_coefficient(self) -> FieldElem:
        return self.coefficient(self.value[0])

    def constant_term(self) -> FieldElem:
        return self.coefficient(0)


def _jet(k: int, entries: list, window: int, zero: FieldElem) -> Optional[Jet]:
    """The jet of the sources in `entries`, each (j0, v, source) with v the
    valuation of its t^j0 term; None when they cancel through the window."""
    j = min(j0 for j0, _, _ in entries)
    first = [v for j0, v, _ in entries if j0 == j]
    jet = Jet((j, first[0]), k, tuple(source for _, _, source in entries), zero)
    if len(first) == 1:
        return jet
    for j in range(j, window + 1):  # a collision: sum at j, one degree up while it cancels
        if not (x := jet.coefficient(j)).is_zero:
            return jet._replace(value=(j, x.valuation().value))
    return None


def derived_system(f: DiffPoly, m: int) -> list:
    """The finite derived family f, df, ..., d^m f, by the general Leibniz rule.

    d^k(c x^lam) = sum_a C(k, a) c^(a) D_(k-a)(lam), with D_b the integer
    tables of `_leibniz_tables`, built for b <= min(m, N - ord(c)).  For
    k >= 1, d^k f is a `Poly` of `Jet`s in window N - k, and no series is
    built.  A source (c, a, count) of a monomial starts at degree
    j0 = (first degree of c that is >= a) - a, if j0 <= N - k.  A least j0
    that one source alone attains gives the value on the integers:
    v(c_(j0+a)) + v((j0+a)!) - v(j0!) + v(C(k, a) * count).  Where several
    do, their terms are summed at j0, and one degree up while they cancel;
    a sum that cancels through the window drops the monomial, as `make` does.
    """
    n = f.truncation
    if m > n:
        raise TruncationExhausted("coefficient truncation exhausted by d")
    nat_val = f.backend.nat_val
    p, vf = nat_val.p, nat_val.factorials(n)  # vf[i] = v(i!)
    parts = [(dict(c.terms), [d for d, _ in c.terms], [x.valuation().value for _, x in c.terms],
              _leibniz_tables(lam, min(m, n - c.terms[0][0]))) for lam, c in f.terms]
    zero = f.backend.zero()
    out = [f]
    for k in range(1, m + 1):
        window = n - k
        found: dict[ExponentMatrix, list] = {}
        for c, degrees, vals, tables in parts:
            # c^(a) runs while c has a term of degree >= a, D_(k-a) over the tables built
            for a in range(max(k - len(tables) + 1, 0), min(k, degrees[-1]) + 1):
                i = bisect_left(degrees, a)
                j0 = degrees[i] - a
                if j0 > window:
                    continue
                v = vals[i] + vf[j0 + a] - vf[j0] + vf[k] - vf[a] - vf[k - a]
                for mu, count in tables[k - a].items():
                    w = v if not p or count % p else v + nat_val(count).value
                    found.setdefault(mu, []).append((j0, w, (c, a, count)))
        terms = []
        for mu, entries in found.items():
            if len(entries) == 1:
                (j, w, source), = entries
                terms.append((mu, Jet((j, w), k, (source,), zero)))
            elif (jet := _jet(k, entries, window, zero)) is not None:
                terms.append((mu, jet))
        terms.sort(key=itemgetter(0))
        out.append(Poly(f.nvars, tuple(terms)))
    return out


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
