"""Seeded random generators and independent oracles shared by the test suite."""

from fractions import Fraction
import functools
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from tropdiff.diffpoly import (
    CONSTANT_MONOMIAL,
    DiffPoly,
    EvalReport,
    ExponentMatrix,
    Poly,
    eval_tropical,
    is_tropical_solution,
    tropicalize_poly,
)
from tropdiff.fields import FieldBackend, FieldElem, ResidueElem, power, residue
from tropdiff.initial import initial_form, initial_system_monomial_check, is_monomial
from tropdiff.semiring import NatValuation, T_INF, TropNum, Trop2, is_prime
from tropdiff.series import LeadingTerm, PowerSeries, TropSeries

SEED = 20260810

TRIVIAL = FieldBackend("trivial")
PADIC3 = FieldBackend("padic", 3)
EISEN2 = FieldBackend("eisenstein", 2)
EISEN3 = FieldBackend("eisenstein", 3)
EISEN5 = FieldBackend("eisenstein", 5)


def rng_for(name: str) -> random.Random:
    """Per-test deterministic stream so tests stay order-independent."""
    return random.Random(f"{SEED}:{name}")


def rand_fraction(rng, lo=-9, hi=9, max_den=6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_nonzero_fraction(rng, lo=-9, hi=9, max_den=6) -> Fraction:
    while True:
        q = rand_fraction(rng, lo, hi, max_den)
        if q:
            return q


def rand_trop_num(rng, inf_prob=0.2) -> TropNum:
    if rng.random() < inf_prob:
        return T_INF
    return TropNum(rand_fraction(rng))


def rand_trop2(rng, inf_prob=0.2) -> Trop2:
    if rng.random() < inf_prob:
        return T_INF
    return Trop2((rand_fraction(rng), rand_fraction(rng)))


def rand_elem(rng, backend: FieldBackend, sparse=True) -> FieldElem:
    coeffs = []
    for _ in range(backend.degree):
        if sparse and rng.random() < 0.3:
            coeffs.append(Fraction(0))
        else:
            coeffs.append(rand_fraction(rng))
    return backend.from_coeffs(coeffs)


def rand_nonzero_elem(rng, backend: FieldBackend) -> FieldElem:
    while True:
        x = rand_elem(rng, backend)
        if not x.is_zero:
            return x


def rand_power_series(rng, backend: FieldBackend, truncation: int,
                      zero_prob=0.3) -> PowerSeries:
    coeffs = [backend.zero() if rng.random() < zero_prob else rand_elem(rng, backend)
              for _ in range(truncation + 1)]
    return PowerSeries.from_coeffs(backend, truncation, coeffs)


def rand_trop_series(rng, nat_val: NatValuation, truncation: int,
                     inf_prob=0.25, half_integers=False) -> TropSeries:
    coeffs = []
    for _ in range(truncation + 1):
        if rng.random() < inf_prob:
            coeffs.append(T_INF)
        elif half_integers:
            coeffs.append(TropNum(Fraction(rng.randint(-8, 8), 2)))
        else:
            coeffs.append(TropNum(rand_fraction(rng)))
    return TropSeries.from_coeffs(nat_val, truncation, tuple(coeffs))


def rand_full_trop_series(rng, nat_val, truncation, half_integers=False) -> TropSeries:
    """All-finite coefficients: every leading term is exact, no truncation flags."""
    return rand_trop_series(rng, nat_val, truncation, inf_prob=0.0,
                            half_integers=half_integers)


def rand_exponent_matrix(rng, nvars, max_order, max_degree) -> ExponentMatrix:
    degree = rng.randint(0, max_degree)
    entries = {}
    for _ in range(degree):
        ij = (rng.randrange(nvars), rng.randint(0, max_order))
        entries[ij] = entries.get(ij, 0) + 1
    return ExponentMatrix.make(entries)


def rand_diffpoly(rng, backend, nvars, truncation, max_terms=3,
                  max_order=2, max_degree=2, zero_prob=0.2) -> DiffPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        lam = rand_exponent_matrix(rng, nvars, max_order, max_degree)
        terms[lam] = rand_power_series(rng, backend, truncation, zero_prob)
    return DiffPoly.make(backend, nvars, truncation, terms.items())


def rand_nonzero_diffpoly(rng, backend, nvars, truncation, **kw) -> DiffPoly:
    while True:
        f = rand_diffpoly(rng, backend, nvars, truncation, **kw)
        if not f.is_zero:
            return f


def iterated_derived_system(f: DiffPoly, m: int) -> list:
    """The derived family f, df, ..., d^m f by m one-step derivatives
    (`DiffPoly.diff`), the oracle of the Leibniz-rule `derived_system`."""
    out = [f]
    for _ in range(m):
        out.append(out[-1].diff())
    return out


def assert_jets_match(family: list, oracle: list):
    """The derived family (f, then `Poly`s of jets) agrees with the classical
    family of `iterated_derived_system`: the same monomials in the same
    order, each jet's value the rank-2 valuation of the oracle's
    coefficient, its leading coefficient the lowest nonzero term there, and
    its constant term the oracle's."""
    assert len(family) == len(oracle) and family[0] is oracle[0]
    for k, (g, h) in enumerate(zip(family[1:], oracle[1:]), 1):
        assert [lam for lam, _ in g.terms] == [lam for lam, _ in h.terms], k
        for (lam, jet), (_, c) in zip(g.terms, h.terms):
            lead_degree, lead = c.terms[0]
            assert jet.value == (lead_degree, lead.valuation().value), (k, lam)
            assert jet.leading_coefficient() == lead, (k, lam)
            assert jet.constant_term() == c.constant_term(), (k, lam)


def count_evaluations(monkeypatch) -> list:
    """Patch `diffpoly.evaluate`, also where `verify` imported it; the returned
    list gets one entry per call."""
    from tropdiff import diffpoly, verify

    calls = []
    original = diffpoly.evaluate

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(diffpoly, "evaluate", counted)
    monkeypatch.setattr(verify, "evaluate", counted)
    return calls


# ---------------------------------------------------------------------------
# independent oracles

def trop_sum(addends) -> TropNum:
    """Tropical sum of a finite sequence, by TropNum addition; the empty sum is infinity."""
    total: Optional[TropNum] = None
    for a in addends:
        total = a if total is None else total + a
    return T_INF if total is None else total


@dataclass(frozen=True, slots=True)
class VanishReport:
    """Outcome of a tropical-vanishing test on a finite sequence of addends."""

    vanishes: bool
    total: TropNum
    attainment: tuple[int, ...]


def tropically_vanishes(addends: Sequence[TropNum]) -> VanishReport:
    """The sum vanishes iff it is infinity, or the minimum is attained by at
    least two addends (every addend attains an infinite sum)."""
    total = trop_sum(addends)
    attainment = tuple(k for k, a in enumerate(addends) if a == total)
    return VanishReport(total.is_inf or len(attainment) >= 2, total, attainment)


def reference_evaluate(g: Poly, leading) -> EvalReport:
    """`diffpoly.evaluate` on TropNum arithmetic: coefficients are TropNums
    and `leading(i, j)` gives a LeadingTerm, read once per factor.

    A weight with a flagged factor reads as infinite; a bound is the first
    coordinate of its known part plus e times `beyond` per flagged factor,
    and a known part that is infinite gives none.
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
        if flagged and not w.is_inf:
            bounds.append(first_coordinate(w) + beyond)
        weights.append(T_INF if flagged else w)
    vr = tropically_vanishes(weights)
    attainment = tuple(g.terms[k][0] for k in vr.attainment)
    ambiguous = not vr.total.is_inf and any(b <= first_coordinate(vr.total) for b in bounds)
    return EvalReport(vr.total, attainment, vr.vanishes, bool(bounds), ambiguous)


def first_coordinate(w: TropNum):
    """First coordinate of a finite tropical value."""
    return w.value[0] if w.value.__class__ is tuple else w.value


def vanishes_by_removal(addends) -> bool:
    """Literal removal-stability definition of tropical vanishing."""
    total = trop_sum(addends)
    for k in range(len(addends)):
        rest = trop_sum(addends[:k] + addends[k + 1:])
        if rest != total:
            return False
    return True


def v_p_factorial_iter(m: int, p: int) -> int:
    """v_p(m!) as the iterative sum of floor(m / p^k)."""
    total = 0
    q = p
    while q <= m:
        total += m // q
        q *= p
    return total


def diff_n(s: TropSeries, j: int) -> TropSeries:
    """d_v^j S by differentiating the dense reference of S j times
    (independent of `TropSeries.diff`)."""
    ref = ref_from_trop_terms(s)
    for _ in range(j):
        ref = ref_trop_diff(ref, s.nat_val.p, s.nat_val.e)
    return trop_from_ref(s.nat_val, ref)


def leading(s: TropSeries) -> LeadingTerm:
    """Phi: (first finite exponent, its coefficient) in T_2; flagged if none."""
    for k, c in enumerate(s.coeffs):
        if not c.is_inf:
            return LeadingTerm(Trop2((Fraction(k), c.value)))
    return LeadingTerm(T_INF, True, s.truncation + 1)


def vp_factorial_bruteforce(m: int, p: int) -> int:
    """Valuation of m! by factoring the literal product."""
    count = 0
    for k in range(2, m + 1):
        while k % p == 0:
            k //= p
            count += 1
    return count


def exp_series_direct(backend: FieldBackend, u: PowerSeries, truncation: int) -> PowerSeries:
    """exp(u) for u with zero constant term, by summing u^k / k! directly."""
    assert u.constant_term().is_zero
    total = PowerSeries.one(backend, truncation)
    term = PowerSeries.one(backend, truncation)
    fact = 1
    for k in range(1, truncation + 1):
        term = term * u.truncate(truncation)
        fact *= k
        total = total + term.scale(backend.elem(Fraction(1, fact)))
    return total


def poly_mul(f: Poly, g: Poly) -> Poly:
    """Product of two polynomials over one coefficient ring, term by term."""
    out = {}
    for lam, a in f.terms:
        for mu, b in g.terms:
            key = lam * mu
            out[key] = out[key] + a * b if key in out else a * b
    return Poly.make(f.nvars, out)


def kpoly_evaluate(f, values) -> FieldElem:
    """Evaluate a Poly over K at constant values b[i][j] for x_i^(j)."""
    total = values[0][0].backend.zero()
    for lam, c in f.terms:
        prod = c
        for (i, j), e in lam.entries:
            prod = prod * values[i][j] ** e
        total = total + prod
    return total


class Laurent:
    """Finite Laurent series over a field backend (literal h_S oracle only)."""

    def __init__(self, backend, coeffs=None):
        self.backend = backend
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if not v.is_zero}

    @staticmethod
    def from_power_series(s: PowerSeries) -> "Laurent":
        return Laurent(s.backend, dict(s.terms))

    def shift_scale(self, shift: int, scalar: FieldElem) -> "Laurent":
        return Laurent(self.backend,
                       {k + shift: scalar * v for k, v in self.coeffs.items()})

    def rank2_valuation(self):
        """(order, v_K(leading coefficient)) or None for zero."""
        if not self.coeffs:
            return None
        k = min(self.coeffs)
        return (Fraction(k), self.coeffs[k].valuation().value)

    def residue_class(self) -> ResidueElem:
        """Image in R/m for an element of valuation >= (0, 0)."""
        v = self.rank2_valuation()
        p = self.backend.p
        if v is None:
            return ResidueElem(p, 0)
        assert v >= (0, 0), "literal h_S coefficient left the valuation ring"
        if v[0] > 0 or (v[0] == 0 and v[1] > 0):
            return ResidueElem(p, 0)
        return residue(self.coeffs[0])


def initial_at(f: DiffPoly, s) -> Poly:
    """in_S(f), read off a fresh evaluation of trop(f) at s."""
    return initial_form(f, eval_tropical(tropicalize_poly(f), s))


def checked_monomial_check(families, s):
    """(solution table, monomial check) of derived families at s.

    Asserts that the monomial verdict agrees with the solution table: the
    families are monomial-free iff every equation vanishes, and each initial
    form is a monomial iff its equation does not vanish.
    """
    solution = is_tropical_solution([tropicalize_poly(g) for family in families
                                     for g in family], s)
    report = initial_system_monomial_check(families, solution)
    assert report.monomial_free == solution.all_vanish
    for (_, form), rep in zip(report.initials, solution.reports, strict=True):
        assert is_monomial(form) == (not rep.vanishes)
    return solution, report


def initial_form_literal(f: DiffPoly, s) -> "Poly":
    """Literal h_S expansion of the initial form: multiply every coefficient by
    the section values, divide out the minimum, and reduce mod the maximal ideal."""
    from tropdiff.fields import section_phi

    backend = f.backend
    report = eval_tropical(tropicalize_poly(f), s)
    assert not report.truncation_limited
    if report.value.is_inf:
        return Poly.make(f.nvars, {})
    neg_total = Trop2((-report.value.value[0], -report.value.value[1]))
    shift0, scalar0 = section_phi(neg_total, backend)
    out = {}
    for lam, coeff in f.terms:
        shift, scalar = shift0, scalar0
        for (i, j), e in lam.entries:
            w = leading(diff_n(s[i], j))
            assert not w.truncation_limited
            sh, sc = section_phi(w.value, backend)
            shift += sh * e
            scalar = scalar * sc ** e
        c = Laurent.from_power_series(coeff).shift_scale(shift, scalar)
        r = c.residue_class()
        if not r.is_zero:
            out[lam] = r
    return Poly.make(f.nvars, out)


# ---------------------------------------------------------------------------
# reference field arithmetic: plain tuples of Fractions, zeta^(p-1) = -p folded

def ref_vp(n: int, p: int) -> int:
    """Exponent of p in the nonzero integer n, by repeated division."""
    n, k = abs(n), 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def rand_ref_coeffs(rng, backend: FieldBackend, bits: int, zero_prob=0.3) -> tuple:
    """Random Fraction coefficients of about `bits` bits, shifted by powers of p."""
    out = []
    for _ in range(backend.degree):
        if rng.random() < zero_prob:
            out.append(Fraction(0))
            continue
        q = Fraction(rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1), rng.getrandbits(bits) | 1)
        if backend.p is not None:
            q *= Fraction(backend.p) ** rng.randint(-3, 3)
        out.append(q)
    return tuple(out)


def ref_add(a, b) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def ref_sub(a, b) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def ref_mul(a, b, backend: FieldBackend) -> tuple:
    d = backend.degree
    if d == 1:
        return (a[0] * b[0],)
    out = [Fraction(0)] * d
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < d:
                out[i + j] += x * y
            else:
                out[i + j - d] += -backend.p * x * y
    return tuple(out)


def ref_one(backend: FieldBackend) -> tuple:
    return (Fraction(1),) + (Fraction(0),) * (backend.degree - 1)


def ref_pow(a, n: int, backend: FieldBackend) -> tuple:
    """a^n for n >= 0 by repeated multiplication."""
    out = ref_one(backend)
    for _ in range(n):
        out = ref_mul(out, a, backend)
    return out


def ref_valuation(a, backend: FieldBackend):
    """min over nonzero c_i of v_p(c_i) + i/e; 0 on the trivial backend; None for zero."""
    if not any(a):
        return None
    if backend.kind == "trivial":
        return Fraction(0)
    e = backend.ramification
    return min(ref_vp(c.numerator, backend.p) - ref_vp(c.denominator, backend.p) + Fraction(i, e)
               for i, c in enumerate(a) if c)


def ref_uniformizer_pow(k: int, backend: FieldBackend) -> tuple:
    """pi^k: p^k over Q_p; zeta^k = (-p)^q zeta^r with k = q*(p-1) + r over Q(zeta)."""
    if backend.kind == "padic":
        return (Fraction(backend.p) ** k,)
    q, r = divmod(k, backend.p - 1)
    out = [Fraction(0)] * backend.degree
    out[r] = Fraction(-backend.p) ** q
    return tuple(out)


def ref_residue(a, backend: FieldBackend) -> ResidueElem:
    """Constant coefficient mod p (the zeta^i terms, i >= 1, lie in the maximal ideal)."""
    if backend.kind == "trivial":
        return ResidueElem(None, a[0].numerator, a[0].denominator)
    p, c = backend.p, a[0]
    return ResidueElem(p, c.numerator * pow(c.denominator, -1, p) % p)


def ref_angular_component(a, backend: FieldBackend) -> ResidueElem:
    if backend.kind == "trivial":
        return ResidueElem(None, a[0].numerator, a[0].denominator)
    k = ref_valuation(a, backend) * backend.ramification
    return ref_residue(ref_mul(a, ref_uniformizer_pow(-int(k), backend), backend), backend)


def ref_str(a, backend: FieldBackend) -> str:
    if backend.degree == 1:
        return str(a[0])
    parts = []
    for i, c in enumerate(a):
        if not c:
            continue
        power = "" if i == 0 else "zeta" if i == 1 else f"zeta^{i}"
        if not power:
            parts.append(str(c))
        elif abs(c) == 1:
            parts.append(power if c == 1 else f"-{power}")
        else:
            parts.append(f"{c}*{power}")
    return " + ".join(parts) or "0"


# ---------------------------------------------------------------------------
# reference series arithmetic: dense tuples of reference field elements, one
# per coefficient of t^0 .. t^N, on the plain-tuple field arithmetic above

def ref_zero(backend: FieldBackend) -> tuple:
    return (Fraction(0),) * backend.degree


def rand_ref_series(rng, backend: FieldBackend, truncation: int, density: str) -> tuple:
    """Coefficients t^0 .. t^N: all zero ("zero"), about one in three nonzero
    ("sparse"), or all nonzero ("full")."""
    out = []
    for _ in range(truncation + 1):
        if density == "zero" or (density == "sparse" and rng.random() < 0.7):
            out.append(ref_zero(backend))
            continue
        c = rand_ref_coeffs(rng, backend, rng.choice((1, 4, 12)))
        while not any(c):
            c = rand_ref_coeffs(rng, backend, 4)
        out.append(c)
    return tuple(out)


def series_from_ref(backend: FieldBackend, ref: tuple) -> PowerSeries:
    return PowerSeries.from_coeffs(backend, len(ref) - 1, [backend.from_coeffs(c) for c in ref])


def ref_from_terms(s: PowerSeries) -> tuple:
    """The dense reference of `s`, read from its terms after checking that they
    are sorted, inside the window and nonzero."""
    degrees = [k for k, _ in s.terms]
    assert degrees == sorted(set(degrees)), f"unsorted support {degrees}"
    assert all(0 <= k <= s.truncation for k in degrees)
    assert all(not c.is_zero for _, c in s.terms), "zero coefficient kept as a term"
    out = [ref_zero(s.backend)] * (s.truncation + 1)
    for k, c in s.terms:
        out[k] = c.coeffs
    return tuple(out)


def ref_series_add(a: tuple, b: tuple) -> tuple:
    return tuple(ref_add(x, y) for x, y in zip(a, b))


def ref_series_neg(a: tuple) -> tuple:
    return tuple(tuple(-q for q in c) for c in a)


def ref_series_mul(a: tuple, b: tuple, backend: FieldBackend) -> tuple:
    """Cauchy product in the smaller window, every pair of coefficients multiplied."""
    n = min(len(a), len(b))
    out = [ref_zero(backend)] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] = ref_add(out[i + j], ref_mul(a[i], b[j], backend))
    return tuple(out)


def ref_series_pow(a: tuple, e: int, backend: FieldBackend) -> tuple:
    out = (ref_one(backend),) + (ref_zero(backend),) * (len(a) - 1)
    for _ in range(e):
        out = ref_series_mul(out, a, backend)
    return out


def ref_series_scale(a: tuple, c: tuple, backend: FieldBackend) -> tuple:
    return tuple(ref_mul(x, c, backend) for x in a)


def ref_series_derivative(a: tuple) -> tuple:
    return tuple(tuple(k * q for q in a[k]) for k in range(1, len(a)))


# ---------------------------------------------------------------------------
# reference tropical series: dense tuples with one entry per coefficient of
# t^0 .. t^N, a Fraction or None for infinity; window -1 is the empty tuple

def rand_ref_trop(rng, truncation: int, density: str) -> tuple:
    """Coefficients t^0 .. t^N: all infinite ("inf"), about one in three
    finite ("sparse"), or all finite ("full")."""
    return tuple(None if density == "inf" or (density == "sparse" and rng.random() < 0.7)
                 else rand_fraction(rng) for _ in range(truncation + 1))


def trop_from_ref(nat_val: NatValuation, ref: tuple) -> TropSeries:
    """The series of `ref`, built from its finite terms directly."""
    terms = tuple((k, TropNum(a)) for k, a in enumerate(ref) if a is not None)
    return TropSeries(nat_val, len(ref) - 1, terms)


def ref_from_trop_terms(s: TropSeries) -> tuple:
    """The dense reference of `s`, read from its terms after checking that they
    are strictly increasing, inside the window and finite."""
    degrees = [k for k, _ in s.terms]
    assert degrees == sorted(set(degrees)), f"unsorted or repeated support {degrees}"
    assert all(0 <= k <= s.truncation for k in degrees)
    assert all(not c.is_inf for _, c in s.terms), "infinite coefficient kept as a term"
    out = [None] * (s.truncation + 1)
    for k, c in s.terms:
        out[k] = c.value
    return tuple(out)


def ref_trop_plus(x, y):
    """min, with None as infinity."""
    if x is None:
        return y
    return x if y is None else min(x, y)


def ref_trop_times(x, y):
    """+, with None as infinity."""
    return None if x is None or y is None else x + y


def ref_trop_add(a: tuple, b: tuple) -> tuple:
    return tuple(ref_trop_plus(x, y) for x, y in zip(a, b))


def ref_trop_mul(a: tuple, b: tuple) -> tuple:
    """Min-plus convolution in the smaller window, over every pair of indices."""
    n = min(len(a), len(b))
    out = [None] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] = ref_trop_plus(out[i + j], ref_trop_times(a[i], b[j]))
    return tuple(out)


def ref_trop_scale(a: tuple, c) -> tuple:
    return tuple(ref_trop_times(c, x) for x in a)


def ref_trop_diff(a: tuple, p, e: int = 1) -> tuple:
    """d_v: coefficient k-1 becomes v(k) + a_k, with v(k) = v_p(k) in units of
    1/e, e * v_p(k), or 0 when p is None."""
    return tuple(ref_trop_times(0 if p is None else e * ref_vp(k, p), a[k])
                 for k in range(1, len(a)))


# ---------------------------------------------------------------------------
# rational oracle of the valuation unit: the program holds valuations as
# counts of 1/e; these compute the same quantities on the rationals they
# stand for, with d_v adding the unscaled v_p(k)

def rational_leading(ref: tuple, p, j: int):
    """((t-exponent, rational value), 0) of the first finite coefficient of
    d_v^j of the dense rational reference `ref`, or (None, first exponent past
    the window) when that window holds none."""
    for _ in range(j):
        ref = ref_trop_diff(ref, p)
    for k, a in enumerate(ref):
        if a is not None:
            return (k, a), 0
    return None, len(ref)


def rational_evaluate(f: DiffPoly, refs, p) -> dict:
    """The evaluation report of trop(f) at dense rational references, on the
    rationals: value (a pair, or None for infinity), attainment, vanishes,
    ambiguous and truncation_limited, by the definitions in `diffpoly.evaluate`.
    A weight with a factor from an exhausted window reads as infinite (None),
    so an infinite value is attained by every monomial."""
    weights, bounds = {}, []
    for lam, coeff in f.terms:
        k, c = coeff.terms[0]
        first, second = Fraction(k), ref_valuation(c.coeffs, f.backend)
        beyond, flagged = 0, False
        for (i, j), e in lam.entries:
            lt, past = rational_leading(refs[i], p, j)
            if lt is None:
                beyond, flagged = beyond + e * past, True
            else:
                first, second = first + e * lt[0], second + e * lt[1]
        if flagged:
            bounds.append(first + beyond)
        weights[lam] = None if flagged else (first, second)
    value = min((w for w in weights.values() if w is not None), default=None)
    attainment = tuple(sorted((lam for lam, w in weights.items() if w == value),
                              key=graded_key))
    return {"value": value, "attainment": attainment,
            "vanishes": value is None or len(attainment) >= 2,
            "ambiguous": value is not None and any(b <= value[0] for b in bounds),
            "truncation_limited": bool(bounds)}


# ---------------------------------------------------------------------------
# reference monomial arithmetic and DiffPoly construction: exponents edited in
# a dict and re-sorted, coefficients summed on the dense reference series

def graded_key(lam: ExponentMatrix) -> tuple:
    """The graded order of monomials, read off the entries alone: the sum of
    the exponents, then the entries lexicographically."""
    return sum(e for _, e in lam.entries), lam.entries


def bump_by_dict(lam: ExponentMatrix, i: int, j: int) -> ExponentMatrix:
    """The Leibniz step x_i^(j) -> x_i^(j+1) by editing a dict of exponents and
    rebuilding through `ExponentMatrix.make`, which sorts and validates."""
    merged = dict(lam.entries)
    merged[(i, j)] = merged.get((i, j), 0) - 1
    merged[(i, j + 1)] = merged.get((i, j + 1), 0) + 1
    return ExponentMatrix.make(merged)


def ref_rewindow(ref: tuple, truncation: int, backend: FieldBackend) -> tuple:
    """The dense reference in window `truncation`: cut, or padded with zeros."""
    ref = ref[:truncation + 1]
    return ref + (ref_zero(backend),) * (truncation + 1 - len(ref))


def ref_diffpoly_make(backend: FieldBackend, truncation: int, terms) -> list:
    """(entries, dense coefficient) pairs of the sum of (monomial, series) pairs:
    equal monomials summed on the dense references in the window, zero sums
    dropped, sorted by degree and then entries."""
    sums = {}
    for lam, coeff in terms:
        ref = ref_rewindow(ref_from_terms(coeff), truncation, backend)
        sums[lam.entries] = ref_series_add(sums[lam.entries], ref) if lam.entries in sums else ref
    kept = [(entries, ref) for entries, ref in sums.items()
            if any(any(c) for c in ref)]
    return sorted(kept, key=lambda kv: (sum(e for _, e in kv[0]), kv[0]))


# ---------------------------------------------------------------------------
# DiffPoly ring arithmetic, one DiffPoly.make per operation: the reference the
# parser's accumulator is checked against

def dp_zero(backend: FieldBackend, nvars: int, truncation: int) -> DiffPoly:
    return DiffPoly(backend, nvars, truncation, ())


def dp_var(backend: FieldBackend, nvars: int, truncation: int, i: int, j: int) -> DiffPoly:
    """x_{i+1}^(j) with coefficient 1."""
    return DiffPoly(backend, nvars, truncation,
                    ((ExponentMatrix.var(i, j), PowerSeries.one(backend, truncation)),))


def dp_constant(backend: FieldBackend, nvars: int, series: PowerSeries) -> DiffPoly:
    terms = () if series.is_zero else ((CONSTANT_MONOMIAL, series),)
    return DiffPoly(backend, nvars, series.truncation, terms)


def _dp_window(f: DiffPoly, g: DiffPoly) -> int:
    if f.backend != g.backend or f.nvars != g.nvars:
        raise ValueError("mixed polynomial rings")
    return min(f.truncation, g.truncation)


def dp_add(f: DiffPoly, g: DiffPoly) -> DiffPoly:
    return DiffPoly.make(f.backend, f.nvars, _dp_window(f, g), f.terms + g.terms)


def dp_neg(f: DiffPoly) -> DiffPoly:
    return DiffPoly(f.backend, f.nvars, f.truncation, tuple((lam, -c) for lam, c in f.terms))


def dp_sub(f: DiffPoly, g: DiffPoly) -> DiffPoly:
    return dp_add(f, dp_neg(g))


def dp_mul(f: DiffPoly, g: DiffPoly) -> DiffPoly:
    """Product; each coefficient product lies in the smaller window already."""
    return DiffPoly.make(f.backend, f.nvars, _dp_window(f, g), (
        (lam * mu, a * b) for lam, a in f.terms for mu, b in g.terms))


def dp_pow(f: DiffPoly, n: int) -> DiffPoly:
    """f^n by repeated squaring; f^1 is f itself."""
    if n < 0:
        raise ValueError("polynomial powers need n >= 0")
    one = dp_constant(f.backend, f.nvars, PowerSeries.one(f.backend, f.truncation))
    return power(f, n, one, dp_mul)


# ---------------------------------------------------------------------------
# random expression trees of the polynomial grammar: printed as text for the
# parser, and evaluated by DiffPoly arithmetic as its oracle

def rand_expr_tree(rng, backend: FieldBackend, nvars: int, depth: int = 3) -> tuple:
    """A random expression tree: leaves ("num", n, d), ("zeta",), ("t",),
    ("var", i, j); nodes ("+" | "-" | "*", a, b), ("^", a, n) and ("neg", a).
    It draws parentheses, powers of sums and of t, a leading minus and
    differences of equal subtrees, which cancel."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.choice(("num", "num", "t", "var", "var")
                          + (("zeta",) if backend.kind == "eisenstein" else ()))
        if kind == "num":
            return ("num", rng.randint(0, 12), rng.choice((1, 1, 2, 3, 4, 9)))
        if kind == "var":
            return ("var", rng.randrange(nvars), rng.randint(0, 5))
        return (kind,)
    kind = rng.choice(("+", "-", "*", "*", "^", "neg", "cancel"))
    a = rand_expr_tree(rng, backend, nvars, depth - 1)
    if kind == "^":
        return ("^", a, rng.randint(0, 3 if depth > 1 else 5))
    if kind == "neg":
        return ("neg", a)
    if kind == "cancel":
        return ("-", a, a)
    return (kind, a, rand_expr_tree(rng, backend, nvars, depth - 1))


def expr_text(tree: tuple, nvars: int, first: bool = True) -> str:
    """The tree in the polynomial grammar; `first`: the tree starts an
    expression, where a leading minus needs no parentheses."""
    kind = tree[0]
    if kind == "num":
        return str(tree[1]) if tree[2] == 1 else f"{tree[1]}/{tree[2]}"
    if kind in ("zeta", "t"):
        return kind
    if kind == "var":
        _, i, j = tree
        name = "x" if nvars == 1 and i == 0 and j % 2 else f"x{i + 1}"
        return name + ("'" * j if j <= 3 else f"^({j})")
    if kind == "neg":
        text = "-" + _operand_text(tree[1], nvars, ("+", "-", "neg"))
        return text if first else f"({text})"
    if kind == "^":
        base = expr_text(tree[1], nvars, False)
        if tree[1][0] in ("+", "-", "*", "^", "neg", "num"):
            base = f"({expr_text(tree[1], nvars)})"
        return f"{base}^{tree[2]}"
    _, a, b = tree
    if kind == "*":
        return (_operand_text(a, nvars, ("+", "-", "neg")) + "*"
                + _operand_text(b, nvars, ("+", "-", "neg")))
    left = expr_text(a, nvars, first)
    return f"{left} {kind} " + _operand_text(b, nvars, ("+", "-", "neg"))


def _operand_text(tree: tuple, nvars: int, grouped: tuple) -> str:
    """An operand's text, in parentheses when its kind is in `grouped`."""
    if tree[0] in grouped:
        return f"({expr_text(tree, nvars)})"
    return expr_text(tree, nvars, False)


def expr_diffpoly(tree: tuple, backend: FieldBackend, nvars: int, truncation: int) -> DiffPoly:
    """The tree's value by DiffPoly arithmetic in window `truncation`: each
    leaf a one-term DiffPoly cut at the window, then + - * ** and negation."""
    kind = tree[0]
    if kind in ("num", "zeta", "t"):
        elem = (backend.elem(tree[1], tree[2]) if kind == "num"
                else backend.zeta() if kind == "zeta" else backend.one())
        series = PowerSeries.monomial(backend, truncation, elem, int(kind == "t"))
        return dp_constant(backend, nvars, series)
    if kind == "var":
        return dp_var(backend, nvars, truncation, tree[1], tree[2])
    a = expr_diffpoly(tree[1], backend, nvars, truncation)
    if kind == "neg":
        return dp_neg(a)
    if kind == "^":
        return dp_pow(a, tree[2])
    b = expr_diffpoly(tree[2], backend, nvars, truncation)
    return (dp_add if kind == "+" else dp_sub if kind == "-" else dp_mul)(a, b)


# ---------------------------------------------------------------------------
# integer roots by bisection, and exact base change by integer roots

def integer_root_bisect(n: int, k: int):
    """The integer r with r^k = n when there is one, else None, for n >= 1:
    the largest r with r^k <= n, found by bisection on the integers."""
    lo, hi = 1, 1 << (n.bit_length() // k + 1)  # lo^k <= n < hi^k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid
    return lo if lo ** k == n else None


def integer_root_newton(n: int, k: int) -> Optional[int]:
    """The integer r with r^k = n, for n >= 1, when n is an exact k-th power
    (the root finder of the reference `exact_log_ratio_by_roots`).

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


@functools.cache
def root_by_roots(c: Fraction) -> tuple[Fraction, int]:
    """(r, k) with c = r^k and k largest: numerator and denominator are exact
    integer k-th powers (a prime factor q of k needs 2^q <= numerator)."""
    num, den = c.numerator, c.denominator
    k, q = 1, 2
    while 1 << q <= num:
        rn = integer_root_newton(num, q) if is_prime(q) else None
        rd = None if rn is None else integer_root_newton(den, q)
        if rd is None:
            q += 1
        else:
            num, den, k = rn, rd, k * q
    return Fraction(num, den), k


def exact_log_ratio_by_roots(c: Fraction, cprime: Fraction) -> Optional[Fraction]:
    """Rational x = log_{c'}(c), i.e. c'^x = c, when one exists; the
    reference for `radius._exact_log_ratio`.

    Each base is written r^k with k largest (`root_by_roots`, cached per
    base).  The log ratio is rational iff the two roots r agree, and it is k/k'.
    """
    (r, k), (rprime, kprime) = root_by_roots(c), root_by_roots(cprime)
    return Fraction(k, kprime) if r == rprime else None
