"""Initial forms of differential polynomials over the residue field.

The initial form of f at a tropical series tuple S keeps exactly the
monomials where the tropical evaluation attains its minimum, with the
angular component of the corresponding leading coefficient as residue-field
coefficient; it is zero iff the tropical evaluation is infinite, and a
monomial iff the minimum is attained exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .diffpoly import (
    DiffPoly,
    Poly,
    SolutionReport,
    eval_tropical,
    is_tropical_solution,
    tropicalize_poly,
)
from .errors import TruncationAmbiguous
from .fields import angular_component
from .series import TropSeries


def is_monomial(g: Poly) -> bool:
    """True iff g has exactly one term (zero is not a monomial)."""
    return len(g.terms) == 1


def initial_form(f: DiffPoly, s: Sequence[TropSeries]) -> Poly:
    """Initial form via the angular-component closed form.

    The monomials attaining the tropical evaluation of f at s (`eval_tropical`)
    survive with coefficient ac(leading coefficient of A_lam), a residue.
    Raises TruncationAmbiguous when an exhausted window could still change
    the attainment set.
    """
    report = eval_tropical(tropicalize_poly(f), s)
    if report.value.is_inf:
        # All terms are infinite as far as the windows can tell: the zero
        # initial form, matching the (possibly truncation-qualified)
        # vanishing verdict of the tropical evaluation.
        return Poly(f.nvars, ())
    if report.ambiguous:
        raise TruncationAmbiguous(
            "an exhausted window could still reach the computed minimum")
    return Poly.make(f.nvars, {lam: angular_component(f.coefficient(lam).terms[0][1])
                               for lam in report.attainment})


@dataclass(frozen=True, slots=True)
class MonomialCheckReport:
    """Monomial-freeness verdict for the derived family of a generating set."""

    order: int
    monomial_free: bool
    witnesses: tuple[tuple[int, int], ...]  # (generator index, derivative order)
    initials: tuple[tuple[tuple[int, int], Poly], ...]
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
    initials: list[tuple[tuple[int, int], Poly]] = []
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
