"""Initial forms of differential polynomials over the residue field.

The initial form of f at a tropical series tuple S keeps exactly the
monomials where the tropical evaluation attains its minimum, with the
angular component of the corresponding leading coefficient as residue-field
coefficient; it is zero iff the tropical evaluation is infinite, and a
monomial iff the minimum is attained exactly once.  It is read off the
evaluation report of trop(f) at S, which the caller computed once for the
solution check, so both verdicts on S rest on the same evaluation.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Union

from .diffpoly import DiffPoly, EvalReport, Poly, SolutionReport
from .errors import TruncationAmbiguous
from .fields import angular_component


def is_monomial(g: Poly) -> bool:
    """True iff g has exactly one term (zero is not a monomial)."""
    return len(g.terms) == 1


def initial_form(f: Union[DiffPoly, Poly], report: EvalReport) -> Poly:
    """Initial form via the angular-component closed form.

    `f` is a DiffPoly or a Poly of jets, and `report` the tropical
    evaluation of trop(f) at S (`eval_tropical`).  The monomials attaining
    it survive with coefficient ac(leading coefficient of A_lam), a
    residue.  Raises TruncationAmbiguous when an exhausted window could
    still change the attainment set.
    """
    if report.value.is_inf:
        # All terms are infinite as far as the windows can tell: the zero
        # initial form, matching the (possibly truncation-qualified)
        # vanishing verdict of the tropical evaluation.
        return Poly(f.nvars, ())
    if report.ambiguous:
        raise TruncationAmbiguous(
            "an exhausted window could still reach the computed minimum")
    # the attainment is in graded order, and an angular component is never zero
    coeffs = dict(f.terms)
    return Poly(f.nvars, tuple((lam, angular_component(coeffs[lam].leading_coefficient()))
                               for lam in report.attainment))


class MonomialCheckReport(NamedTuple):
    """Monomial-freeness verdict for the derived family of a generating set."""

    order: int
    monomial_free: bool
    witnesses: tuple[tuple[int, int], ...]  # (generator index, derivative order)
    initials: tuple[tuple[tuple[int, int], Poly], ...]

    @property
    def verdict(self) -> str:
        return (f"MONOMIAL_FREE_UP_TO_{self.order}" if self.monomial_free
                else "MONOMIAL_FOUND")


def initial_system_monomial_check(families: Sequence[Sequence[Union[DiffPoly, Poly]]],
                                  solution: SolutionReport) -> MonomialCheckReport:
    """Compute in_S(d^k f_l) over derived families and look for monomial initial forms.

    `families[l]` is the derived family f_l, d f_l, ..., d^m f_l of generator
    l (see `derived_system`); the report's order is m, or -1 without
    generators.  `solution` is the tropical-solution table of all families
    at S, one report per equation in the same order (`is_tropical_solution`
    on their tropicalizations), so a monomial initial form is exactly an
    equation that does not vanish there.
    """
    equations = [((l, k), g) for l, family in enumerate(families)
                 for k, g in enumerate(family)]
    initials = tuple((lk, initial_form(g, report))
                     for (lk, g), report in zip(equations, solution.reports, strict=True))
    witnesses = tuple(lk for lk, form in initials if is_monomial(form))
    m = len(families[0]) - 1 if families else -1
    return MonomialCheckReport(m, not witnesses, witnesses, initials)
