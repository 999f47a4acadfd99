import gc
import math
from fractions import Fraction

import pytest

from tropdiff.diffpoly import (
    CONSTANT_MONOMIAL,
    DiffPoly,
    ExponentMatrix,
    Poly,
    at_vector,
    derived_system,
    derived_tropical_system,
    eval_classical,
    eval_tropical,
    evaluate,
    f_lr,
    is_tropical_solution,
    tropicalize_poly,
)
from tropdiff.errors import MissingVariable, TruncationExhausted
from tropdiff.fields import FieldElem
from tropdiff.parser import parse_poly
from tropdiff.semiring import T_INF, TropNum, Trop2, v_p
from tropdiff.series import (
    PowerSeries,
    TropSeries,
    psi,
    psi_trop_inverse,
    rank2_val,
    sigma0,
)
from tropdiff.verify import exp_equation, exp_tropical_closed_form, solve_linear

from helpers import (
    EISEN3,
    PADIC3,
    bump_by_dict,
    kpoly_evaluate,
    rand_elem,
    rand_diffpoly,
    rand_exponent_matrix,
    rand_power_series,
    ref_diffpoly_make,
    ref_from_terms,
    ref_series_add,
    ref_series_derivative,
    ref_series_mul,
    ref_series_pow,
    rng_for,
)

X = ExponentMatrix.var(0, 0)
X1 = ExponentMatrix.var(0, 1)
X2 = ExponentMatrix.var(0, 2)
X3 = ExponentMatrix.var(0, 3)


def mono(backend, n, c, k):
    return PowerSeries.monomial(backend, n, c, k)


def test_exponent_matrix():
    m = ExponentMatrix.make({(0, 0): 1, (0, 3): 1})
    assert m.degree() == 2 and m.order() == 3
    assert (X * X1).exponent(0, 0) == 1
    assert X.bump(0, 0) == X1
    assert ExponentMatrix.make({(0, 0): 2}).bump(0, 0) == X * X1
    assert CONSTANT_MONOMIAL.order() == -1


def test_diff_examples():
    n = 12
    _, f = exp_equation(3, n)
    df = f.diff()
    z = EISEN3.zeta()
    expected = DiffPoly.make(EISEN3, 1, n - 1, {
        X2: PowerSeries.one(EISEN3, n - 1),
        X: mono(EISEN3, n - 1, EISEN3.elem(-6) * z, 1),
        X1: mono(EISEN3, n - 1, EISEN3.elem(-3) * z, 2),
    }.items())
    assert df == expected

    const = DiffPoly.constant(PADIC3, 1, mono(PADIC3, 5, PADIC3.elem(7), 0))
    assert const.diff().is_zero

    x = DiffPoly.var(PADIC3, 1, 5, 0, 0)
    assert x.diff() == DiffPoly.var(PADIC3, 1, 4, 0, 1)

    with pytest.raises(TruncationExhausted):
        DiffPoly.var(PADIC3, 1, 0, 0, 0).diff()


def test_tropicalize_poly_examples():
    _, f = exp_equation(3, 12)
    trop = tropicalize_poly(f)
    assert trop == Poly.make(1, {
        X1: Trop2.of(0, 0),
        X: Trop2.of(2, Fraction(3, 2)),
    })

    trop_df = tropicalize_poly(f.diff())
    assert trop_df == Poly.make(1, {
        X2: Trop2.of(0, 0),
        X: Trop2.of(1, Fraction(3, 2)),
        X1: Trop2.of(2, Fraction(3, 2)),
    })

    assert tropicalize_poly(DiffPoly.zero(PADIC3, 1, 5)).is_zero


def test_make_sums_repeated_and_cancelling_monomials():
    """`make` takes (monomial, coefficient) pairs: equal monomials are summed,
    coefficients are re-windowed, and monomials whose sum is zero are dropped."""
    a = mono(PADIC3, 6, PADIC3.elem(2), 1)
    wide = mono(PADIC3, 9, PADIC3.elem(3), 1)  # re-windowed from 9 to 6
    beyond = mono(PADIC3, 9, PADIC3.elem(5), 8)  # zero once re-windowed
    f = DiffPoly.make(PADIC3, 1, 6, [(X, a), (X1, a), (X, wide), (X1, -a),
                                     (X * X1, beyond), (X, a)])
    assert f.terms == ((X, mono(PADIC3, 6, PADIC3.elem(7), 1)),)
    assert f == DiffPoly.make(PADIC3, 1, 6, iter([(X, mono(PADIC3, 6, PADIC3.elem(7), 1))]))
    assert DiffPoly.make(PADIC3, 1, 6, [(X, a), (X, -a), (X1, -a), (X1, a)]).is_zero


def test_bump_matches_dict_oracle():
    """The in-place Leibniz step equals the dict edit re-sorted by `make`, for
    every factor of random monomials; a missing factor raises in both."""
    rng = rng_for("bump-oracle")
    for _ in range(300):
        lam = rand_exponent_matrix(rng, rng.randint(1, 3), 3, 5)
        for (i, j), _ in lam.entries:
            got = lam.bump(i, j)
            want = bump_by_dict(lam, i, j)
            assert got == want and got.entries == want.entries
            assert hash(got) == hash(want) and got.sort_key() == want.sort_key()
            assert got.degree() == lam.degree()
        i, j = rng.randrange(3), rng.randint(0, 4)
        if lam.exponent(i, j) == 0:
            with pytest.raises(ValueError):
                bump_by_dict(lam, i, j)
            with pytest.raises(ValueError):
                lam.bump(i, j)


def test_make_matches_dense_reference():
    """`make` on random (monomial, series) lists with repeated monomials,
    mixed windows and cancellations equals the dense reference sum."""
    rng = rng_for("make-oracle")
    for backend in (PADIC3, EISEN3):
        for _ in range(60):
            n = rng.randint(0, 6)
            monomials = [rand_exponent_matrix(rng, 2, 2, 2) for _ in range(3)]
            terms = []
            for _ in range(rng.randint(0, 8)):
                lam = rng.choice(monomials)
                coeff = rand_power_series(rng, backend, rng.randint(0, 8), zero_prob=0.5)
                terms.append((lam, coeff))
                if rng.random() < 0.3:  # cancel it again, maybe in another window
                    terms.append((lam, -coeff.with_window(rng.randint(0, 8))))
            f = DiffPoly.make(backend, 2, n, terms)
            assert [(lam.entries, ref_from_terms(c)) for lam, c in f.terms] == \
                ref_diffpoly_make(backend, n, terms)
            assert all(c.truncation == n for _, c in f.terms)


def test_powers_match_repeated_products():
    g = parse_poly("x' + 2*t - zeta*x^2", EISEN3, 1, 5)
    product = DiffPoly.constant(EISEN3, 1, PowerSeries.one(EISEN3, 5))
    for k in range(9):
        assert g ** k == product, k
        product = product * g
    assert g ** 1 is g
    with pytest.raises(ValueError):
        g ** -1


def test_huge_exponent_parses_by_repeated_squaring(monkeypatch):
    """x^3000000 takes at most 2 log2(3000000) < 44 products, not 2,999,999."""
    calls = []
    mul = DiffPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(DiffPoly, "__mul__", counted)
    f = parse_poly("x^3000000 - x", PADIC3, 1, 6)
    assert len(calls) <= 44
    one = PowerSeries.one(PADIC3, 6)
    assert f.terms == ((X, -one), (ExponentMatrix.make({(0, 0): 3000000}), one))


def test_diffpoly_coefficients_nonzero_in_window():
    """Every DiffPoly coefficient is nonzero inside its window, so its rank-2
    value is never truncation-limited and tropicalize_poly keeps every term."""
    d = parse_poly("t*x", PADIC3, 1, 1).diff()
    # d(t*x) = x + t*x'; at truncation 0 the coefficient t of x' is zero
    assert d == DiffPoly.var(PADIC3, 1, 0, 0, 0)
    assert X1 not in [lam for lam, _ in d.terms]

    rng = rng_for("window-invariant")
    polys = [d]
    for _ in range(20):
        f = rand_diffpoly(rng, PADIC3, 2, 4, zero_prob=0.7)
        g = rand_diffpoly(rng, PADIC3, 2, 3, zero_prob=0.7)
        polys += [f + g, f - g, f * g, -f, f ** 2, f.scale(PADIC3.elem(3))]
        polys += derived_system(f, 4)
    for h in polys:
        assert all(not c.is_zero and not rank2_val(c).truncation_limited
                   for _, c in h.terms)
        assert len(tropicalize_poly(h).terms) == len(h.terms)


def test_eval_classical_leaves_no_cyclic_garbage():
    ode, f = exp_equation(3, 12)
    sol = solve_linear(ode)
    gc.collect()
    gc.disable()
    try:
        eval_classical(f, (sol,))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_eval_classical_examples():
    n = 12
    ode, f = exp_equation(3, n)
    sol = solve_linear(ode)
    residual = eval_classical(f, (sol,))
    assert residual.truncation >= 9 and residual.is_zero

    rng = rng_for("eval-classical")
    a = PowerSeries.from_coeffs(PADIC3, 6, [rand_elem(rng, PADIC3) for _ in range(7)])
    x = DiffPoly.var(PADIC3, 1, 6, 0, 0)
    assert eval_classical(x, (a,)) == a

    one_poly = DiffPoly.constant(PADIC3, 1, PowerSeries.one(PADIC3, 6))
    assert eval_classical(one_poly, (a,)) == PowerSeries.one(PADIC3, 6)


def ref_eval_classical(f: DiffPoly, a) -> tuple:
    """The dense sum over the terms of coeff * prod (d^j a_i)^e, every product
    taken by `ref_series_mul` with the coefficient as its first factor."""
    total = None
    for lam, coeff in f.terms:
        prod = ref_from_terms(coeff)
        for (i, j), e in lam.entries:
            d = ref_from_terms(a[i])
            for _ in range(j):
                d = ref_series_derivative(d)
            prod = ref_series_mul(prod, ref_series_pow(d, e, f.backend), f.backend)
        total = prod if total is None else ref_series_add(total, prod)
    return total


def test_eval_classical_unit_coefficients_match_dense_reference():
    """Unit coefficients in windows below, at and above their factors'
    windows, alone or mixed with other terms, give the dense reference
    sum of coeff * prod."""
    rng = rng_for("eval-classical-unit")
    monomials = [ExponentMatrix.make(m) for m in (
        {(0, 0): 1}, {(0, 1): 1}, {(1, 2): 1}, {(0, 0): 1, (1, 1): 1},
        {(0, 1): 2}, {(1, 0): 3}, {})]
    seen = set()
    for backend in (PADIC3, EISEN3):
        for _ in range(60):
            a = tuple(rand_power_series(rng, backend, rng.randint(2, 8), zero_prob=0.4)
                      for _ in range(2))
            n = rng.randint(0, 10)
            picked = rng.sample(monomials, rng.randint(1, 4))
            units = rng.randint(1, len(picked))
            terms = [(lam, PowerSeries.one(backend, n)) for lam in picked[:units]]
            terms += [(lam, rand_power_series(rng, backend, n, zero_prob=0.5))
                      for lam in picked[units:]]
            f = DiffPoly.make(backend, 2, n, terms)
            for lam, coeff in f.terms:
                if lam.entries and coeff == PowerSeries.one(backend, n):
                    w = min(a[i].truncation - j for (i, j), _ in lam.entries)
                    seen.add((n > w) - (n < w))
            assert ref_from_terms(eval_classical(f, a)) == ref_eval_classical(f, a)
    assert seen == {-1, 0, 1}


def test_eval_classical_mixed_backends_raise():
    x1 = DiffPoly.var(PADIC3, 1, 6, 0, 1)
    a = PowerSeries.one(EISEN3, 6)
    with pytest.raises(ValueError, match="mixed field backends"):
        eval_classical(x1, (a,))


def test_eval_tropical_micro_example():
    # M = x * x''' at S = 0t + 1t^3 over the 3-adic tropical differential
    nv = PADIC3.nat_val
    m_poly = Poly.make(1, {X * X3: Trop2.of(0, 0)})
    s = TropSeries.from_coeffs(nv, 8, [T_INF, TropNum.of(0), T_INF, TropNum.of(1)])
    report = eval_tropical(m_poly, (s,))
    assert report.value == Trop2.of(1, 2)
    assert not report.vanishes
    assert report.attainment == (X * X3,)


def test_eval_tropical_memo_is_outside_the_value():
    """`eval_tropical` keeps nothing on the polynomial: after evaluating,
    it equals, hashes and prints like a fresh copy, and equal candidates,
    whether the same objects or not, get equal reports."""
    _, f = exp_equation(3, 12)
    g = tropicalize_poly(f)
    fresh = Poly.make(g.nvars, dict(g.terms))
    s = exp_tropical_closed_form(3, 12)
    twin = exp_tropical_closed_form(3, 12)
    other = TropSeries.from_coeffs(EISEN3.nat_val, 12, [TropNum.of(0)])
    report = eval_tropical(g, (s,))
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    assert eval_tropical(g, (twin,)) == report
    assert eval_tropical(g, (other,)) != report
    assert eval_tropical(g, (s,)) == report
    with pytest.raises(MissingVariable):
        eval_tropical(g, (s, s))


def test_eval_tropical_exp_solution():
    for p in (2, 3, 5):
        _, f = exp_equation(p, 6 * p)
        s = exp_tropical_closed_form(p, 6 * p)
        report = eval_tropical(tropicalize_poly(f), (s,))
        assert report.value == Trop2.of(p - 1, Fraction(p, p - 1))
        assert len(report.attainment) == 2 and report.vanishes
        assert not report.truncation_limited


def test_eval_tropical_constant_zero_candidate():
    _, f = exp_equation(3, 8)
    nv = EISEN3.nat_val
    s = TropSeries.from_coeffs(nv, 8, [TropNum.of(0)])
    report = eval_tropical(tropicalize_poly(f), (s,))
    assert not report.vanishes
    assert report.truncation_limited  # x' sees an exhausted window
    assert report.value == Trop2.of(2, Fraction(3, 2))


def test_eval_trop1_examples():
    m_poly = Poly.make(1, {X * X3: Trop2.of(0, 0)}).map(sigma0)
    assert m_poly == Poly.make(1, {X * X3: TropNum.of(0)})
    b = ((T_INF, TropNum.of(0), T_INF, TropNum.of(2)),)
    report = evaluate(m_poly, at_vector(b))
    assert report.value.is_inf and report.vanishes

    _, f = exp_equation(3, 12)
    s = exp_tropical_closed_form(3, 12)
    b = (psi_trop_inverse(s),)
    trop_f2 = f_lr(f, 2).map(FieldElem.valuation)
    report = evaluate(trop_f2, at_vector(b))
    assert report.value == TropNum.of(Fraction(3, 2))
    assert report.vanishes and len(report.attainment) == 2

    empty = Poly.make(1, {})
    assert evaluate(empty, at_vector(b)).vanishes

    with pytest.raises(MissingVariable):
        evaluate(trop_f2, at_vector(((TropNum.of(0),),)))


def test_f_lr_examples():
    n = 12
    _, f = exp_equation(3, n)
    z = EISEN3.zeta()
    assert f_lr(f, 0) == Poly.make(1, {X1: EISEN3.one()})
    assert f_lr(f, 1) == Poly.make(1, {X2: EISEN3.one()})
    assert f_lr(f, 2) == Poly.make(1, {
        X3: EISEN3.one(), X: EISEN3.elem(-6) * z})

    x = DiffPoly.var(PADIC3, 1, 6, 0, 0)
    for r in range(4):
        assert f_lr(x, r) == Poly.make(1, {ExponentMatrix.var(0, r): PADIC3.one()})

    trop_f2 = f_lr(f, 2).map(FieldElem.valuation)
    assert trop_f2 == Poly.make(1, {X3: TropNum.of(0), X: TropNum.of(Fraction(3, 2))})


def test_family_constant_terms_match_f_lr():
    _, f = exp_equation(3, 12)
    x = DiffPoly.var(PADIC3, 1, 6, 0, 0)
    for g, m in ((f, 9), (x, 3)):
        family = derived_system(g, m)
        assert [h.constant_terms() for h in family] == [f_lr(g, r) for r in range(m + 1)]


def closed_form_derived_trop(p: int, n: int) -> Poly:
    """Closed form of the tropicalized n-th derivative of the exponential
    equation, in its two regimes n < p and n >= p (test oracle, built
    independently of diff())."""
    beta = Fraction(p, p - 1)
    terms = {ExponentMatrix.var(0, n + 1): Trop2.of(0, 0)}
    if n < p:
        for i in range(n + 1):
            terms[ExponentMatrix.var(0, i)] = Trop2.of(
                p - 1 - n + i, v_p(math.comb(n, i), p) + beta)
    else:
        for i in range(p):
            terms[ExponentMatrix.var(0, i + n - p + 1)] = Trop2.of(
                i, v_p(math.comb(n, p - 1 - i), p) + beta)
    return Poly.make(1, terms)


def test_derived_system_matches_closed_forms():
    for p in (2, 3, 5):
        n_max = 2 * p + 2
        _, f = exp_equation(p, 3 * p + 4)
        system = derived_tropical_system(f, n_max)
        for n, g in enumerate(system):
            assert g == closed_form_derived_trop(p, n), (p, n)

    _, f = exp_equation(3, 10)
    assert derived_system(f, 0) == [f]


def test_is_tropical_solution_and_perturbation():
    p = 3
    _, f = exp_equation(p, 18)
    system = derived_tropical_system(f, 9)
    s = exp_tropical_closed_form(p, 18)
    report = is_tropical_solution(system, (s,))
    assert report.all_vanish and not report.truncation_limited

    cs = list(s.coeffs)
    cs[3] = TropNum(cs[3].value + 1)
    perturbed = TropSeries.from_coeffs(s.nat_val, 18, tuple(cs))
    bad = is_tropical_solution(system, (perturbed,))
    assert not bad.all_vanish
    assert bad.failing and min(bad.failing) <= 3

    # tropical scalar multiples of a solution still solve the linear system
    scaled = s.scale(TropNum.of(Fraction(7, 2)))
    assert is_tropical_solution(system, (scaled,)).all_vanish


def check_taylor_identity(count=100):
    """f(psi(a)) = sum_r (1/r!) F_r(a) t^r, coefficient by coefficient."""
    rng = rng_for("taylor")
    backends = (PADIC3, EISEN3)
    for k in range(count):
        backend = backends[k % 2]
        nvars = rng.randint(1, 2)
        f = rand_diffpoly(rng, backend, nvars, 8, max_terms=3, max_order=2,
                          max_degree=2)
        vecs = tuple(tuple(rand_elem(rng, backend) for _ in range(9))
                     for _ in range(nvars))
        lhs = eval_classical(f, psi(vecs, backend))
        for r in range(lhs.truncation + 1):
            fr = f_lr(f, r)
            expected = kpoly_evaluate(fr, vecs) * backend.elem(
                Fraction(1, math.factorial(r)))
            assert lhs.coeffs[r] == expected, (k, r)


def test_taylor_identity():
    check_taylor_identity()


def test_poly_ring_ops():
    rng = rng_for("poly-ops")
    f = rand_diffpoly(rng, EISEN3, 2, 6)
    g = rand_diffpoly(rng, EISEN3, 2, 6)
    h = rand_diffpoly(rng, EISEN3, 2, 6)
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert (f - f).is_zero
    one = DiffPoly.constant(EISEN3, 2, PowerSeries.one(EISEN3, 6))
    assert f ** 0 == one and f ** 1 == f
    assert f ** 3 == one * f * f * f
    # Leibniz at the polynomial level
    assert (f * g).diff() == f.diff() * g + f * g.diff()
