"""The tropical kernel on raw values against its TropNum reference.

`diffpoly.evaluate` adds and multiplies raw values (None, a rational, or a
(t-exponent, units) pair); `helpers.reference_evaluate` is the same
evaluation written with TropNum arithmetic (`trop_sum`,
`tropically_vanishes`).  Both must give equal reports on every input.
"""

import random
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from tropdiff import cli, diffpoly
from tropdiff.diffpoly import (
    ExponentMatrix,
    Poly,
    at_vector,
    derived_system,
    eval_tropical,
    evaluate,
    tropicalize_poly,
)
from tropdiff.semiring import T_INF, TropNum
from tropdiff.series import Beyond, psi_trop_inverse
from tropdiff.verify import check_truncation_vectors, t0_face

from helpers import (
    EISEN3,
    EISEN5,
    PADIC3,
    TRIVIAL,
    diff_n,
    leading,
    rand_nonzero_diffpoly,
    rand_trop_series,
    reference_evaluate,
)

GOLDEN = Path(__file__).parent / "golden"

# rank-1 values: ints, Fractions equal to ints, and Fractions of small denominator
RATIONALS = st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(Fraction),
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)))


def finite(rank: int):
    return RATIONALS if rank == 1 else st.tuples(st.integers(0, 3), RATIONALS)


@st.composite
def kernel_cases(draw):
    """(nvars, x_i^(j) values, terms) of one rank: each value finite, an
    infinity (None) or a `Beyond`; exponents up to 3."""
    rank, nvars = draw(st.sampled_from((1, 2))), draw(st.integers(1, 2))
    variables = [(i, j) for i in range(nvars) for j in range(3)]
    values = {}
    for ij in variables:
        kind = draw(st.sampled_from(("finite", "finite", "inf", "flagged")))
        values[ij] = (draw(finite(rank)) if kind == "finite" else None if kind == "inf"
                      else Beyond(draw(st.integers(0, 5))))
    monomials = st.dictionaries(st.sampled_from(variables), st.integers(1, 3),
                                max_size=3).map(ExponentMatrix.make)
    return nvars, values, draw(st.dictionaries(monomials, finite(rank), max_size=5))


X00, X01, X10 = ExponentMatrix.var(0, 0), ExponentMatrix.var(0, 1), ExponentMatrix.var(1, 0)
ALL_INFINITE = (2, {(0, 0): None, (0, 1): Beyond(2), (0, 2): None,
                    (1, 0): Beyond(0), (1, 1): None, (1, 2): None},
                {X00: (0, 1), X01 * X10: (1, Fraction(1, 2)), X00 * X10: (0, 0)})


@settings(derandomize=True, deadline=None, max_examples=400)
@given(kernel_cases())
@example(ALL_INFINITE)
def test_raw_kernel_matches_the_tropnum_reference(case):
    """Equal reports whether the coefficients are raw or TropNums, on sums
    with ties, infinities, `Beyond` factors and all-infinite sums."""
    nvars, values, terms = case
    g = Poly.make(nvars, terms)
    want = reference_evaluate(g.map(TropNum), lambda i, j: values[(i, j)])
    assert evaluate(g, lambda i, j: values[(i, j)]) == want
    assert evaluate(g.map(TropNum), lambda i, j: values[(i, j)]) == want


def test_all_infinite_sum_is_attained_by_every_monomial():
    """With every weight infinite, each monomial attains the sum, which vanishes."""
    nvars, values, terms = ALL_INFINITE
    g = Poly.make(nvars, terms)
    report = evaluate(g, lambda i, j: values[(i, j)])
    assert report.value == T_INF and report.vanishes and not report.ambiguous
    assert report.attainment == tuple(lam for lam, _ in g.terms)
    assert report.truncation_limited  # x_1' and x_2 are `Beyond`s with finite known parts


def test_infinite_factor_beside_a_flagged_one_bounds_nothing():
    """A term with an unflagged infinite factor and a flagged one is infinite,
    and its window bound, which could never reach a finite minimum, is not
    taken (the sum of an infinite known part and `beyond` used to raise
    TypeError)."""
    g = Poly.make(2, {X00 * X10: (0, 0), X01: (2, 1)})
    values = {(0, 0): None, (1, 0): Beyond(0), (0, 1): (0, 0)}
    for coeffs in (g, g.map(TropNum)):
        report = evaluate(coeffs, lambda i, j: values[(i, j)])
        assert report.value == TropNum((2, 1)) and report.attainment == (X01,)
        assert not report.vanishes and not report.ambiguous
        assert not report.truncation_limited
    assert reference_evaluate(g.map(TropNum), lambda i, j: values[(i, j)]) == report


BACKENDS = (TRIVIAL, PADIC3, EISEN3, EISEN5)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(backend=st.sampled_from(BACKENDS), seed=st.integers(0, 2**32 - 1),
       truncation=st.integers(1, 6), nvars=st.integers(1, 2))
def test_derived_families_match_the_reference(backend, seed, truncation, nvars):
    """At random candidates with values outside (1/e)Z: rank 2 through
    `eval_tropical` (flags from exhausted windows) against the leading terms
    of the dense reference `diff_n`; rank 1 through `at_vector` at the
    vector B of `psi_trop_inverse`, which `check_truncation_vectors` reads
    off the leading tables instead."""
    rng = random.Random(seed)
    nv = backend.nat_val
    f = rand_nonzero_diffpoly(rng, backend, nvars, truncation, max_terms=4, max_order=3)
    s = tuple(rand_trop_series(rng, nv, rng.randint(0, truncation + 3)) for _ in range(nvars))
    system = [tropicalize_poly(g) for g in derived_system(f, rng.randint(0, truncation))]
    b = tuple(psi_trop_inverse(si) for si in s)
    faces = []
    for g in system:
        want = reference_evaluate(g.map(TropNum), lambda i, j: leading(diff_n(s[i], j)))
        assert eval_tropical(g, s) == want
        face = t0_face(g)
        if all(j < len(b[i]) for lam, _ in face.terms for (i, j), _ in lam.entries):
            faces.append(reference_evaluate(face.map(TropNum), lambda i, j: b[i][j].value))
            assert evaluate(face, at_vector(b)) == faces[-1]
    if len(faces) == len(system):
        assert check_truncation_vectors(system, s).reports == tuple(faces)


def test_check_does_no_tropnum_arithmetic(monkeypatch, capsys):
    """`check` and `initial` of the golden p = 5 system read every value raw:
    no TropNum.__add__, __mul__ or __pow__, and one `eval_tropical` per
    equation (3 generators, orders 0 to 4)."""
    calls = {"__add__": 0, "__mul__": 0, "__pow__": 0, "eval_tropical": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("__add__", "__mul__", "__pow__"):
        monkeypatch.setattr(TropNum, name, counted(name, TropNum.__dict__[name]))
    monkeypatch.setattr(diffpoly, "eval_tropical", counted("eval_tropical", diffpoly.eval_tropical))
    argv = ["--system", str(GOLDEN / "sys-p5.json"), "--candidate", str(GOLDEN / "cand-p5.json"),
            "--order", "4"]
    assert cli.main(["check", *argv]) == 1
    assert calls == {"__add__": 0, "__mul__": 0, "__pow__": 0, "eval_tropical": 15}
    assert cli.main(["initial", *argv]) == 1
    assert calls == {"__add__": 0, "__mul__": 0, "__pow__": 0, "eval_tropical": 30}
    capsys.readouterr()
