import gc
import math
from fractions import Fraction
from pathlib import Path

import pytest

from tropdiff import files, parser
from tropdiff.diffpoly import (
    CONSTANT_MONOMIAL,
    DiffPoly,
    ExponentMatrix,
    Poly,
    _bump_at,
    _leibniz_tables,
    at_vector,
    constant_terms,
    derived_system,
    eval_classical,
    eval_tropical,
    evaluate,
    f_lr,
    is_tropical_solution,
    tropicalize_poly,
)
from tropdiff.errors import MissingVariable, TruncationExhausted
from tropdiff.fields import FieldBackend, FieldElem
from tropdiff.parser import parse_poly
from tropdiff.semiring import T_INF, TropNum, Trop2, v_p
from tropdiff.series import (
    Beyond,
    PowerSeries,
    TropSeries,
    psi_one,
    psi_trop_inverse,
    rank2_val,
    sigma0,
)
from tropdiff.verify import exp_equation, exp_tropical_closed_form, solve_linear, t0_face

from helpers import (
    EISEN3,
    EISEN5,
    PADIC3,
    TRIVIAL,
    assert_jets_match,
    bump_by_dict,
    dp_add,
    dp_constant,
    dp_mul,
    dp_neg,
    dp_pow,
    dp_sub,
    dp_var,
    dp_zero,
    graded_key,
    iterated_derived_system,
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
    assert m.degree == 2 and max(j for (_, j), _ in m.entries) == 3
    assert dict((X * X1).entries).get((0, 0), 0) == 1
    assert _bump_at(X.entries, 0) == X1.entries
    assert _bump_at(ExponentMatrix.make({(0, 0): 2}).entries, 0) == (X * X1).entries
    assert CONSTANT_MONOMIAL.is_constant and CONSTANT_MONOMIAL == (0, ())


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

    const = dp_constant(PADIC3, 1, mono(PADIC3, 5, PADIC3.elem(7), 0))
    assert const.diff().is_zero

    x = dp_var(PADIC3, 1, 5, 0, 0)
    assert x.diff() == dp_var(PADIC3, 1, 4, 0, 1)

    with pytest.raises(TruncationExhausted):
        dp_var(PADIC3, 1, 0, 0, 0).diff()


def test_tropicalize_poly_examples():
    _, f = exp_equation(3, 12)
    units = EISEN3.nat_val.to_units
    trop = tropicalize_poly(f).map(TropNum)
    assert trop == Poly.make(1, {
        X1: Trop2.of(0, 0),
        X: units(Trop2.of(2, Fraction(3, 2))),
    })

    trop_df = tropicalize_poly(f.diff()).map(TropNum)
    assert trop_df == Poly.make(1, {
        X2: Trop2.of(0, 0),
        X: units(Trop2.of(1, Fraction(3, 2))),
        X1: units(Trop2.of(2, Fraction(3, 2))),
    })

    assert tropicalize_poly(dp_zero(PADIC3, 1, 5)).is_zero


def test_tropicalize_poly_matches_make():
    """Terms kept as they stand equal the re-sorted and filtered Poly.make."""
    rng = rng_for("tropicalize-make")
    for backend in (TRIVIAL, PADIC3, EISEN5):
        for _ in range(30):
            f = rand_diffpoly(rng, backend, 2, rng.randint(0, 6), max_terms=5,
                              max_order=3, max_degree=3, zero_prob=0.5)
            m = min(f.truncation, 2)
            for g in iterated_derived_system(f, m):
                assert tropicalize_poly(g) == Poly.make(
                    g.nvars, {lam: rank2_val(a) for lam, a in g.terms})
            for g in derived_system(f, m)[1:]:
                assert tropicalize_poly(g) == Poly.make(
                    g.nvars, {lam: jet.value for lam, jet in g.terms})


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
    """The in-place Leibniz step `_bump_at` equals the dict edit re-sorted by
    `make`, for every factor of random monomials."""
    rng = rng_for("bump-oracle")
    for _ in range(300):
        lam = rand_exponent_matrix(rng, rng.randint(1, 3), 3, 5)
        for k, ((i, j), _) in enumerate(lam.entries):
            got = ExponentMatrix(lam.degree, _bump_at(lam.entries, k))
            want = bump_by_dict(lam, i, j)
            assert got == want and got.entries == want.entries
            assert hash(got) == hash(want) and not got < want and not want < got
            assert got.degree == want.degree == lam.degree


def test_monomial_degree_order_and_equality_follow_the_entries():
    """On random monomials: `degree` is the sum of the exponents for every
    monomial that `make`, `var`, `*`, `_bump_at` and the Leibniz tables build;
    monomials sort in the graded order (sum of exponents, entries); and two
    are equal, with equal hashes, exactly when their entries are."""
    rng = rng_for("monomial-invariant")
    built = [CONSTANT_MONOMIAL]
    for _ in range(200):
        nvars = rng.randint(1, 3)
        lam = rand_exponent_matrix(rng, nvars, 3, 5)
        mu = rand_exponent_matrix(rng, nvars, 3, 5)
        built += [lam, lam * mu, ExponentMatrix.var(rng.randrange(nvars), rng.randint(0, 4))]
        built += [ExponentMatrix(lam.degree, _bump_at(lam.entries, k))
                  for k in range(len(lam.entries))]
        for table in _leibniz_tables(lam, rng.randint(0, 4)):
            built += table
    for lam in built:
        assert lam.degree == sum(e for _, e in lam.entries)
        twin = ExponentMatrix.make(dict(lam.entries))
        assert twin == lam and hash(twin) == hash(lam)
    assert sorted(built) == sorted(built, key=graded_key)
    for lam, mu in zip(built, rng.sample(built, len(built))):
        assert (lam == mu) == (lam.entries == mu.entries)
        assert lam != mu or hash(lam) == hash(mu)


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
    src = "x' + 2*t - zeta*x^2"
    g = parse_poly(src, EISEN3, 1, 5)
    product = dp_constant(EISEN3, 1, PowerSeries.one(EISEN3, 5))
    for k in range(9):
        assert dp_pow(g, k) == product, k
        assert parse_poly(f"({src})^{k}", EISEN3, 1, 5) == product, k
        product = dp_mul(product, g)
    assert dp_pow(g, 1) is g
    with pytest.raises(ValueError):
        dp_pow(g, -1)


def test_huge_exponent_parses_by_repeated_squaring(monkeypatch):
    """x^3000000 takes at most 2 log2(3000000) < 44 products, not 2,999,999."""
    calls = []
    product = parser._Parser.product

    def counted(self, a, b, op):
        calls.append(1)
        return product(self, a, b, op)

    monkeypatch.setattr(parser._Parser, "product", counted)
    f = parse_poly("x^3000000 - x", PADIC3, 1, 6)
    assert 0 < len(calls) <= 44
    one = PowerSeries.one(PADIC3, 6)
    assert f.terms == ((X, -one), (ExponentMatrix.make({(0, 0): 3000000}), one))


def test_parse_makes_one_polynomial_per_operation(monkeypatch):
    """Parsing tests/golden/sys-p5.json runs `DiffPoly.make` once per
    polynomial (3): sums, products and powers work on one sparse accumulator,
    and only the whole expression becomes a `DiffPoly`."""
    calls = []
    make = DiffPoly.make

    def counted(*args):
        calls.append(1)
        return make(*args)

    monkeypatch.setattr(DiffPoly, "make", staticmethod(counted))
    golden = Path(__file__).parent / "golden" / "sys-p5.json"
    files.system_from_dict(files.load_json(str(golden)))
    assert len(calls) == 3


def test_diffpoly_coefficients_nonzero_in_window():
    """Every DiffPoly coefficient is nonzero inside its window, so its rank-2
    value is never truncation-limited and tropicalize_poly keeps every term."""
    d = parse_poly("t*x", PADIC3, 1, 1).diff()
    # d(t*x) = x + t*x'; at truncation 0 the coefficient t of x' is zero
    assert d == dp_var(PADIC3, 1, 0, 0, 0)
    assert X1 not in [lam for lam, _ in d.terms]

    rng = rng_for("window-invariant")
    polys = [d]
    for _ in range(20):
        f = rand_diffpoly(rng, PADIC3, 2, 4, zero_prob=0.7)
        g = rand_diffpoly(rng, PADIC3, 2, 3, zero_prob=0.7)
        polys += [dp_add(f, g), dp_sub(f, g), dp_mul(f, g), dp_neg(f), dp_pow(f, 2)]
        polys += iterated_derived_system(f, 4)
    for h in polys:
        assert all(not c.is_zero and rank2_val(c).__class__ is not Beyond
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
    x = dp_var(PADIC3, 1, 6, 0, 0)
    assert eval_classical(x, (a,)) == a

    one_poly = dp_constant(PADIC3, 1, PowerSeries.one(PADIC3, 6))
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
    x1 = dp_var(PADIC3, 1, 6, 0, 1)
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
        assert report.value == s.nat_val.to_units(Trop2.of(p - 1, Fraction(p, p - 1)))
        assert len(report.attainment) == 2 and report.vanishes
        assert not report.truncation_limited


def test_eval_tropical_constant_zero_candidate():
    _, f = exp_equation(3, 8)
    nv = EISEN3.nat_val
    s = TropSeries.from_coeffs(nv, 8, [TropNum.of(0)])
    report = eval_tropical(tropicalize_poly(f), (s,))
    assert not report.vanishes
    assert report.truncation_limited  # x' sees an exhausted window
    assert report.value == nv.to_units(Trop2.of(2, Fraction(3, 2)))


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
    assert report.value == s.nat_val.to_units(TropNum.of(Fraction(3, 2)))
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

    x = dp_var(PADIC3, 1, 6, 0, 0)
    for r in range(4):
        assert f_lr(x, r) == Poly.make(1, {ExponentMatrix.var(0, r): PADIC3.one()})

    trop_f2 = f_lr(f, 2).map(FieldElem.valuation)
    assert trop_f2 == Poly.make(1, {X3: TropNum.of(0), X: TropNum.of(Fraction(3, 2))}).map(
        EISEN3.nat_val.to_units)


def test_family_constant_terms_match_f_lr():
    _, f = exp_equation(3, 12)
    x = dp_var(PADIC3, 1, 6, 0, 0)
    for g, m in ((f, 9), (x, 3)):
        family = derived_system(g, m)
        assert [constant_terms(h) for h in family] == [f_lr(g, r) for r in range(m + 1)]
        assert [constant_terms(h) for h in iterated_derived_system(g, m)] == \
            [f_lr(g, r) for r in range(m + 1)]


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
        system = [tropicalize_poly(g).map(TropNum) for g in derived_system(f, n_max)]
        for n, g in enumerate(system):
            units = FieldBackend("eisenstein", p).nat_val.to_units
            assert g == closed_form_derived_trop(p, n).map(units), (p, n)

    _, f = exp_equation(3, 10)
    assert derived_system(f, 0) == [f]


def rand_leibniz_poly(rng, backend, nvars, n) -> DiffPoly:
    """Up to four terms of degree <= 3 and order <= 3, each coefficient dense,
    linear in t (its derivative chain ends at once), of high t-order, or
    zero inside window n."""
    terms = []
    for _ in range(rng.randint(0, 4)):
        lam = rand_exponent_matrix(rng, nvars, 3, 3)
        kind = rng.choice(("dense", "linear", "high", "outside"))
        if kind == "dense":
            c = rand_power_series(rng, backend, n)
        elif kind == "linear":
            c = PowerSeries.from_coeffs(backend, n, (rand_elem(rng, backend) for _ in range(2)))
        else:
            low = max(n - 1, 0) if kind == "high" else n + 1
            c = PowerSeries.from_coeffs(backend, n + 2, [backend.zero()] * low + [
                rand_elem(rng, backend) for _ in range(n + 3 - low)])
        terms.append((lam, c))
    return DiffPoly.make(backend, nvars, n, terms)


def test_derived_system_matches_iterated_derivatives():
    """The Leibniz-rule family's jets agree with m one-step derivatives
    (values, leading coefficients, constant terms; `assert_jets_match`) for
    every m <= N; m = N + 1 raises as the N + 1-th step does."""
    rng = rng_for("leibniz-family")
    backends = (TRIVIAL, FieldBackend("padic", 2), PADIC3, EISEN3, EISEN5)
    for backend in backends:
        for n in range(9):
            polys = [rand_leibniz_poly(rng, backend, rng.randint(1, 2), n) for _ in range(3)]
            polys.append(dp_zero(backend, 2, n))
            for f in polys:
                oracle = iterated_derived_system(f, n)
                for m in range(n + 1):
                    assert_jets_match(derived_system(f, m), oracle[:m + 1])
                with pytest.raises(TruncationExhausted) as want:
                    oracle[-1].diff()
                with pytest.raises(TruncationExhausted) as got:
                    derived_system(f, n + 1)
                assert str(got.value) == str(want.value)
    f = parse_poly("x^3000000 - x", PADIC3, 1, 6)
    assert_jets_match(derived_system(f, 2), iterated_derived_system(f, 2))


def test_jet_collision_walks_past_a_cancelling_degree():
    """Over Q_3 in window 6, the x' coefficient of d f has two sources that
    start at t^1: -t (from d x = x') and c' (from c x'), c = 1/2*t^2 + t^3.
    Their t^1 terms -1 and +1 cancel, and the walk moves up to 3*t^2, of
    value (2, 1)."""
    f = parse_poly("0 - t*x + (1/2*t^2 + t^3)*x'", PADIC3, 1, 6)
    d = derived_system(f, 1)[1]
    jet = dict(d.terms)[X1]
    assert len(jet.sources) == 2
    assert jet.value == (2, 1)
    assert jet.leading_coefficient() == PADIC3.elem(3)
    assert jet.coefficient(1).is_zero
    assert tropicalize_poly(d) == tropicalize_poly(f.diff())


def test_jet_collision_that_cancels_through_the_window_drops_the_monomial():
    """With c = 1/2*t^2, the x' coefficient -t + t of d f cancels in full:
    d f has no x' term, as `DiffPoly.make` drops a zero series."""
    f = parse_poly("0 - t*x + 1/2*t^2*x'", PADIC3, 1, 6)
    d = derived_system(f, 1)[1]
    assert X1 not in dict(d.terms)
    assert [lam for lam, _ in d.terms] == [X, X2]
    assert tropicalize_poly(d) == tropicalize_poly(f.diff())


def test_jets_match_iterated_derivatives_on_golden_systems():
    """The jets of every golden system's polynomials, derived through their
    whole window, agree with the one-step oracle (`assert_jets_match`)."""
    golden = sorted((Path(__file__).parent / "golden").glob("sys*.json"))
    assert len(golden) == 5
    for path in golden:
        _, _, n, polys = files.system_from_dict(files.load_json(str(path)))
        for f in polys:
            assert_jets_match(derived_system(f, n), iterated_derived_system(f, n))


def test_t0_face_of_the_tropical_family_is_trop_of_its_constant_terms():
    """For every r <= N, the t^0 face of trop(d^r f) is trop((d^r f)|_(t=0)),
    the tropicalized constant terms: a rank-2 value is (t-order, valuation of
    the lowest term), so a coefficient is nonzero at t = 0 iff its value is
    (0, b), and then b is the valuation of its constant term.  Checked on
    random Leibniz polynomials (trivial, padic 2/3, eisenstein 3/5) and the
    golden systems; the F_r check of `verify` reads trop(F_r) this way."""
    rng = rng_for("t0-face")
    polys = [rand_leibniz_poly(rng, backend, rng.randint(1, 2), n)
             for backend in (TRIVIAL, FieldBackend("padic", 2), PADIC3, EISEN3, EISEN5)
             for n in range(9) for _ in range(3)]
    for path in sorted((Path(__file__).parent / "golden").glob("sys*.json")):
        polys += files.system_from_dict(files.load_json(str(path)))[3]
    kept = dropped = 0
    for f in polys:
        for g in derived_system(f, f.truncation):
            trop, face = tropicalize_poly(g), t0_face(tropicalize_poly(g))
            assert face == constant_terms(g).map(lambda c: c.valuation().value)
            kept += len(face.terms)
            dropped += len(trop.terms) - len(face.terms)
    assert kept > 500 and dropped > 500


def test_derived_system_builds_no_series(monkeypatch):
    """d^k f for k >= 1 is read off the terms of f: deriving the exponential
    equation and the golden systems scales, differentiates and sums no
    series and makes no DiffPoly."""
    polys = [exp_equation(p, 6 * p)[1] for p in (2, 3, 5, 7)]
    for path in sorted((Path(__file__).parent / "golden").glob("sys*.json")):
        polys += files.system_from_dict(files.load_json(str(path)))[3]
    calls = []

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)
        monkeypatch.setattr(owner, name, staticmethod(wrapper) if name in ("make", "sum")
                            else wrapper)

    for owner, name in ((PowerSeries, "scale"), (PowerSeries, "derivative"),
                        (PowerSeries, "sum"), (DiffPoly, "make")):
        counted(owner, name)
    families = [derived_system(f, min(f.truncation, 9)) for f in polys]
    assert calls == []
    assert sum(len(g.terms) for family in families for g in family[1:]) > 500


def test_is_tropical_solution_and_perturbation():
    p = 3
    _, f = exp_equation(p, 18)
    system = [tropicalize_poly(g) for g in derived_system(f, 9)]
    s = exp_tropical_closed_form(p, 18)
    report = is_tropical_solution(system, (s,))
    assert report.all_vanish and not report.truncation_limited

    cs = list(s.coeffs)
    cs[3] = cs[3] * s.nat_val.to_units(TropNum.of(1))
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
        lhs = eval_classical(f, tuple(psi_one(v, backend) for v in vecs))
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
    assert dp_mul(dp_add(f, g), h) == dp_add(dp_mul(f, h), dp_mul(g, h))
    assert dp_mul(f, g) == dp_mul(g, f)
    assert dp_sub(f, f).is_zero
    one = dp_constant(EISEN3, 2, PowerSeries.one(EISEN3, 6))
    assert dp_pow(f, 0) == one and dp_pow(f, 1) == f
    assert dp_pow(f, 3) == dp_mul(dp_mul(dp_mul(one, f), f), f)
    # Leibniz at the polynomial level
    assert dp_mul(f, g).diff() == dp_add(dp_mul(f.diff(), g), dp_mul(f, g.diff()))
