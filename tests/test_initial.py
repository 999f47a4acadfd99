from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropdiff.diffpoly import (
    DiffPoly,
    ExponentMatrix,
    Poly,
    derived_system,
    eval_tropical,
    tropicalize_poly,
)
from tropdiff.errors import TruncationAmbiguous
from tropdiff.fields import ResidueElem
from tropdiff.initial import is_monomial
from tropdiff.semiring import TropNum
from tropdiff.series import PowerSeries, TropSeries, tropicalize_series
from tropdiff.verify import exp_equation, exp_tropical_closed_form, solve_linear

from helpers import (
    EISEN2,
    EISEN3,
    EISEN5,
    PADIC3,
    checked_monomial_check,
    count_evaluations,
    dp_mul,
    dp_var,
    initial_at,
    initial_form_literal,
    iterated_derived_system,
    poly_mul,
    rand_full_trop_series,
    rand_nonzero_diffpoly,
    rand_trop_series,
    rational_evaluate,
    ref_from_trop_terms,
    rng_for,
)

X = ExponentMatrix.var(0, 0)
X1 = ExponentMatrix.var(0, 1)


def x_prime_plus_x(p):
    return Poly.make(1, {X1: ResidueElem(p, 1), X: ResidueElem(p, 1)})


def test_initial_form_worked_example():
    for p in (2, 3, 5):
        _, f = exp_equation(p, 6 * p)
        s = exp_tropical_closed_form(p, 6 * p)
        assert initial_at(f, (s,)) == x_prime_plus_x(p)


def test_initial_form_zero_and_monomial():
    backend = EISEN3
    nv = backend.nat_val
    # all windows infinite: the evaluation is infinite, the initial form zero
    f = DiffPoly.make(backend, 1, 6, {X * X1: PowerSeries.one(backend, 6)}.items())
    s = TropSeries.inf(nv, 6)
    assert initial_at(f, (s,)).is_zero
    assert eval_tropical(tropicalize_poly(f), (s,)).value.is_inf

    x_poly = dp_var(backend, 1, 6, 0, 0)
    s = rand_full_trop_series(rng_for("monomial-x"), nv, 6)
    form = initial_at(x_poly, (s,))
    assert form == Poly.make(1, {X: ResidueElem(3, 1)})
    assert is_monomial(form)


def test_is_monomial():
    assert not is_monomial(x_prime_plus_x(3))
    assert is_monomial(Poly.make(1, {ExponentMatrix.var(0, 3): ResidueElem(3, 2)}))
    assert not is_monomial(Poly.make(1, {}))


def test_truncation_ambiguity():
    backend = EISEN3
    nv = backend.nat_val
    one = PowerSeries.one(backend, 6)
    f = DiffPoly.make(backend, 1, 6, {X1: one, X: -one}.items())

    # S known only at degree 0: the derivative window is empty, so the x'
    # term could still tie or beat the x term at first coordinate 0
    s0 = TropSeries.monomial(nv, 0, TropNum.of(0), 0)
    with pytest.raises(TruncationAmbiguous):
        initial_at(f, (s0,))

    # S known to degree 6 pins the derivative weight above 6: the all-INF
    # window is data, and the x term is an exact monomial minimum
    s6 = TropSeries.monomial(nv, 6, TropNum.of(0), 0)
    form = initial_at(f, (s6,))
    assert is_monomial(form) and form.terms[0][0] == X


COEFF_WINDOW = 4
# {(variable, derivative order): exponent} of one monomial in two variables
monomials = st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 3)),
                            st.integers(1, 2), max_size=3)
# (t-degree, valuation) of a coefficient 3^v t^k
coefficients = st.tuples(st.integers(0, COEFF_WINDOW), st.integers(-2, 2))
# (N, {index: value}) of a candidate series with a short window, so that
# derivatives of order up to 3 run past it
candidates = st.integers(-1, 3).flatmap(lambda n: st.tuples(
    st.just(n), st.dictionaries(st.integers(0, max(n, 0)), st.integers(-2, 2),
                                max_size=n + 1)))


@settings(derandomize=True, deadline=None)
@given(terms=st.lists(st.tuples(monomials, coefficients), min_size=1, max_size=4),
       windows=st.lists(candidates, min_size=2, max_size=2))
def test_ambiguity_matches_per_term_bounds(terms, windows):
    """`evaluate` flags, and `initial_form` refuses, exactly the evaluations
    where a flagged weight's bound could still reach the minimum."""
    f = DiffPoly.make(PADIC3, 2, COEFF_WINDOW, [
        (ExponentMatrix.make(lam), PowerSeries.monomial(
            PADIC3, COEFF_WINDOW, PADIC3.elem(Fraction(3) ** v), k))
        for lam, (k, v) in terms])
    s = tuple(TropSeries(PADIC3.nat_val, n, tuple(
        (k, TropNum(v)) for k, v in sorted(values.items()))) for n, values in windows)
    expected = rational_evaluate(f, [ref_from_trop_terms(si) for si in s], 3)["ambiguous"]
    assert eval_tropical(tropicalize_poly(f), s).ambiguous == expected
    try:
        initial_at(f, s)
        raised = False
    except TruncationAmbiguous:
        raised = True
    assert raised == expected


def test_monomial_check_worked_example():
    for p in (2, 3, 5):
        _, f = exp_equation(p, 6 * p)
        s = exp_tropical_closed_form(p, 6 * p)
        family = derived_system(f, 3 * p)
        oracle = iterated_derived_system(f, 3 * p)
        solution, report = checked_monomial_check([family], (s,))
        assert report.monomial_free
        assert report.verdict == f"MONOMIAL_FREE_UP_TO_{3 * p}"
        assert solution.all_vanish
        for (_, k), form in report.initials:
            assert form == initial_form_literal(oracle[k], (s,))


def test_monomial_check_evaluates_each_equation_once(monkeypatch):
    """The caller's solution check evaluates each derived equation once and
    the monomial check reads those reports: 10 for d^0 .. d^9."""
    ode, f = exp_equation(3, 18)
    s = tropicalize_series(solve_linear(ode))
    calls = count_evaluations(monkeypatch)
    _, report = checked_monomial_check([derived_system(f, 9)], (s,))
    assert report.monomial_free
    assert len(calls) == 10


def test_monomial_check_perturbed_witness():
    p = 3
    _, f = exp_equation(p, 18)
    s = exp_tropical_closed_form(p, 18)
    cs = list(s.coeffs)
    cs[3] = cs[3] * s.nat_val.to_units(TropNum.of(1))
    perturbed = TropSeries.from_coeffs(s.nat_val, 18, tuple(cs))
    family = derived_system(f, 9)
    oracle = iterated_derived_system(f, 9)
    _, report = checked_monomial_check([family], (perturbed,))
    assert not report.monomial_free
    assert report.witnesses
    l, k = report.witnesses[0]
    assert l == 0 and k <= 3
    assert report.verdict == "MONOMIAL_FOUND"
    for (_, k), form in report.initials:
        assert form == initial_form_literal(oracle[k], (perturbed,))


def test_monomial_check_empty_generators():
    s = rand_full_trop_series(rng_for("empty-gens"), EISEN3.nat_val, 6)
    _, report = checked_monomial_check([], (s,))
    assert report.monomial_free and not report.witnesses


def check_initial_biconditionals(count=1000):
    """zero <=> infinite evaluation; monomial <=> unique finite attainment."""
    rng = rng_for("initial-biconditionals")
    backend = EISEN3
    nv = backend.nat_val
    completed = 0
    for k in range(count):
        f = rand_nonzero_diffpoly(rng, backend, 1, 6, max_terms=3, max_order=2,
                                  max_degree=2)
        if k % 3 == 0:
            s = rand_trop_series(rng, nv, 6, inf_prob=0.4)
        else:
            s = rand_full_trop_series(rng, nv, 6)
        report = eval_tropical(tropicalize_poly(f), (s,))
        try:
            form = initial_at(f, (s,))
        except TruncationAmbiguous:
            assert report.truncation_limited
            continue
        completed += 1
        assert form.is_zero == report.value.is_inf
        assert is_monomial(form) == (not report.value.is_inf
                                     and len(report.attainment) == 1)
        if not form.is_zero:
            assert tuple(lam for lam, _ in form.terms) == report.attainment
    assert completed >= count // 2


def check_initial_multiplicativity(count=50):
    """in_S(fg) equals in_S(f) * in_S(g) over the residue field."""
    rng = rng_for("initial-mult")
    backend = EISEN3
    nv = backend.nat_val
    for _ in range(count):
        f = rand_nonzero_diffpoly(rng, backend, 1, 8, max_terms=2, max_order=1,
                                  max_degree=1)
        g = rand_nonzero_diffpoly(rng, backend, 1, 8, max_terms=2, max_order=1,
                                  max_degree=1)
        s = rand_full_trop_series(rng, nv, 8)
        assert initial_at(dp_mul(f, g), (s,)) == poly_mul(initial_at(f, (s,)), initial_at(g, (s,)))


def check_initial_literal_oracle(count=50):
    """The angular-component shortcut agrees with the literal h_S expansion."""
    rng = rng_for("initial-literal")
    for k in range(count):
        backend = (EISEN3, EISEN2, EISEN5)[k % 3]
        nv = backend.nat_val
        e = backend.ramification
        f = rand_nonzero_diffpoly(rng, backend, 1, 8, max_terms=3, max_order=2,
                                  max_degree=2)
        # coefficients inside the value group (1/e)Z so the section applies
        coeffs = tuple(nv.to_units(TropNum.of(Fraction(rng.randint(-6, 6), e)))
                       for _ in range(9))
        s = TropSeries.from_coeffs(nv, 8, coeffs)
        assert initial_at(f, (s,)) == initial_form_literal(f, (s,))


def test_initial_biconditionals():
    check_initial_biconditionals()


def test_initial_multiplicativity():
    check_initial_multiplicativity()


def test_initial_literal_oracle():
    check_initial_literal_oracle()
