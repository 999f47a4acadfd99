"""Initial forms of differential polynomials over the residue field.

The initial form of f at a tropical series tuple S keeps exactly the
monomials where the tropical evaluation attains its minimum, with the
angular component of the corresponding leading coefficient as residue-field
coefficient; it is zero iff the tropical evaluation is infinite, and a
monomial iff the minimum is attained exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .diffpoly import (
    DiffPoly,
    ExponentMatrix,
    SolutionReport,
    _sorted_terms,
    is_tropical_solution,
    tropicalize_poly,
)
from .errors import MissingVariable, TruncationAmbiguous
from .fields import ResidueElem, angular_component
from .semiring import T2_INF, Trop2, trop_sum
from .series import TropSeries, rank2_val


@dataclass(frozen=True, slots=True)
class ResiduePoly:
    """Polynomial over the residue field (F_p, or Q for the trivial backend)."""

    p: Optional[int]
    nvars: int
    terms: tuple[tuple[ExponentMatrix, ResidueElem], ...]

    @staticmethod
    def make(p: Optional[int], nvars: int,
             terms: Mapping[ExponentMatrix, ResidueElem]) -> "ResiduePoly":
        kept = {lam: c for lam, c in terms.items() if not c.is_zero}
        return ResiduePoly(p, nvars, _sorted_terms(kept))

    @staticmethod
    def zero(p: Optional[int], nvars: int) -> "ResiduePoly":
        return ResiduePoly(p, nvars, ())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "ResiduePoly"):
        if self.p != other.p or self.nvars != other.nvars:
            raise ValueError("mixed residue polynomial rings")

    def __add__(self, other: "ResiduePoly") -> "ResiduePoly":
        self._check(other)
        out: dict[ExponentMatrix, ResidueElem] = {}
        for lam, c in self.terms + other.terms:
            out[lam] = out[lam] + c if lam in out else c
        return ResiduePoly.make(self.p, self.nvars, out)

    def __mul__(self, other: "ResiduePoly") -> "ResiduePoly":
        self._check(other)
        out: dict[ExponentMatrix, ResidueElem] = {}
        for lam, a in self.terms:
            for mu, b in other.terms:
                key = lam * mu
                prod = a * b
                out[key] = out[key] + prod if key in out else prod
        return ResiduePoly.make(self.p, self.nvars, out)


def is_monomial(g: ResiduePoly) -> bool:
    """True iff g has exactly one term (zero is not a monomial)."""
    return len(g.terms) == 1


def initial_form(f: DiffPoly, s: Sequence[TropSeries]) -> ResiduePoly:
    """Initial form via the angular-component closed form.

    Per monomial lam the weight is v(A_lam) + sum lam_ij * Phi(d^j S_i); the
    minimizing monomials survive with coefficient ac(leading coefficient of
    A_lam).  Raises TruncationAmbiguous when an exhausted window could still
    change the attainment set.
    """
    if len(s) != f.nvars:
        raise MissingVariable(f"expected {f.nvars} series, got {len(s)}")
    p = f.backend.residue_char or None

    exact: list[tuple[ExponentMatrix, Trop2]] = []
    flagged_bounds: list = []  # first-coordinate lower bounds of unknown weights
    for lam, coeff in f.terms:
        lt_coeff = rank2_val(coeff)
        w = lt_coeff.value
        bound = w.value[0]
        limited = False
        for (i, j), e in lam.entries:
            lt = s[i].diff_leading(j)
            if lt.truncation_limited:
                limited = True
                window = s[i].truncation - j
                bound += e * max(window + 1, 0)
            else:
                w = w * lt.value ** e
                bound += e * lt.value.value[0]
        if limited:
            flagged_bounds.append(bound)
        else:
            exact.append((lam, w))

    total = trop_sum([w for _, w in exact], inf=T2_INF)
    if total.is_inf:
        # All terms are infinite as far as the windows can tell: the zero
        # initial form, matching the (possibly truncation-qualified)
        # vanishing verdict of the tropical evaluation.
        return ResiduePoly.zero(p, f.nvars)
    if any(total.value[0] >= b for b in flagged_bounds):
        raise TruncationAmbiguous(
            "an exhausted window could still reach the computed minimum")
    out: dict[ExponentMatrix, ResidueElem] = {}
    for lam, w in exact:
        if w == total:
            coeff = f.coefficient(lam)
            out[lam] = angular_component(coeff.coeffs[coeff.order()])
    return ResiduePoly.make(p, f.nvars, out)


@dataclass(frozen=True, slots=True)
class MonomialCheckReport:
    """Monomial-freeness verdict for the derived family of a generating set."""

    order: int
    monomial_free: bool
    witnesses: tuple[tuple[int, int], ...]  # (generator index, derivative order)
    initials: tuple[tuple[tuple[int, int], ResiduePoly], ...]
    solution_report: SolutionReport
    cross_check_ok: bool

    @property
    def verdict(self) -> str:
        return (f"MONOMIAL_FREE_UP_TO_{self.order}" if self.monomial_free
                else "MONOMIAL_FOUND")


def initial_system_monomial_check(families: Sequence[Sequence[DiffPoly]],
                                  s: Sequence[TropSeries]) -> MonomialCheckReport:
    """Compute in_S(d^k f_l) over derived families and look for monomial initial forms.

    `families[l]` is the derived family f_l, d f_l, ..., d^m f_l of generator
    l (see `derived_system`); the report's order is m, or -1 without
    generators.  Also evaluates the derived tropical system at s and checks
    that the two verdicts coincide (a monomial initial form is exactly a
    uniquely attained finite minimum).
    """
    initials: list[tuple[tuple[int, int], ResiduePoly]] = []
    witnesses: list[tuple[int, int]] = []
    trop_system = []
    for l, family in enumerate(families):
        for k, g in enumerate(family):
            form = initial_form(g, s)
            initials.append(((l, k), form))
            if is_monomial(form):
                witnesses.append((l, k))
            trop_system.append(tropicalize_poly(g))
    sol = is_tropical_solution(trop_system, s)
    monomial_free = not witnesses
    cross_ok = all(r.vanishes == (not is_monomial(form))
                   for r, (_, form) in zip(sol.reports, initials))
    if not cross_ok:
        raise AssertionError(
            "monomial check and tropical-solution check disagree; "
            "this indicates an internal inconsistency")
    m = len(families[0]) - 1 if families else -1
    return MonomialCheckReport(m, monomial_free, tuple(witnesses),
                               tuple(initials), sol, cross_ok)
