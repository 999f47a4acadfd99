"""Tropical series against a dense reference of Fractions and None (infinity).

A tropical series stores only its finite terms; every operation must give
the value of the dense reference, with the terms strictly increasing, inside
the window and finite, so that `==` and `hash` compare values.
"""

import pytest

from tropdiff.semiring import NatValuation, T_INF, TropNum
from tropdiff.series import TropSeries

from helpers import (
    rand_fraction,
    rand_ref_trop,
    ref_from_trop_terms,
    ref_trop_add,
    ref_trop_diff,
    ref_trop_mul,
    ref_trop_scale,
    rng_for,
    trop_from_ref,
)

# p-adic 5 twice: on Q (unit 1) and on Q(zeta) (unit 1/4)
NAT_VALS = (*(NatValuation(p) for p in (None, 2, 3, 5)), NatValuation(5, 4))
DENSITIES = ("inf", "sparse", "full")
WINDOWS = ((-1, 3), (0, 0), (5, 5), (6, 3), (2, 7))


def assert_trop(s: TropSeries, ref: tuple):
    """s holds the dense reference `ref` in canonical sparse form."""
    assert s.truncation == len(ref) - 1
    assert ref_from_trop_terms(s) == ref
    assert s.coeffs == tuple(T_INF if a is None else TropNum(a) for a in ref)
    canonical = trop_from_ref(s.nat_val, ref)
    assert s == canonical and hash(s) == hash(canonical)
    assert s.is_inf == all(a is None for a in ref)


def trop_cases(name: str, per_window: int = 2):
    """(rng, nat_val, a, ra, b, rb) over every valuation, density pair and window pair."""
    rng = rng_for(name)
    for nv in NAT_VALS:
        for da in DENSITIES:
            for db in DENSITIES:
                for na, nb in WINDOWS:
                    for _ in range(per_window):
                        ra, rb = rand_ref_trop(rng, na, da), rand_ref_trop(rng, nb, db)
                        yield rng, nv, trop_from_ref(nv, ra), ra, trop_from_ref(nv, rb), rb


def test_semiring_operations_match_reference():
    for rng, nv, a, ra, b, rb in trop_cases("trop-ring"):
        assert_trop(a, ra)
        assert_trop(a + b, ref_trop_add(ra, rb))
        assert_trop(b + a, ref_trop_add(rb, ra))
        assert_trop(a + a, ra)
        assert_trop(a * b, ref_trop_mul(ra, rb))
        assert_trop(b * a, ref_trop_mul(rb, ra))
        c = rand_fraction(rng)
        assert_trop(a.scale(TropNum(c)), ref_trop_scale(ra, c))
        assert_trop(a.scale(T_INF), ref_trop_scale(ra, None))


def test_diff_and_truncate_match_reference():
    for _, nv, a, ra, _, _ in trop_cases("trop-unary", per_window=1):
        s, ref = a, ra
        while s.truncation >= 0:  # differentiate the window away, then once more
            s, ref = s.diff(), ref_trop_diff(ref, nv.p, nv.e)
            assert_trop(s, ref)
        assert_trop(s.diff(), ())
        n = a.truncation
        for m in {-1, 0, n}:
            if m <= n:
                assert_trop(a.truncate(m), ra[: m + 1])
        assert a.truncate(n) is a and a.truncate(n + 3) is a


def test_constructors_keep_the_sparse_form():
    for _, nv, a, ra, _, _ in trop_cases("trop-build", per_window=1):
        n = a.truncation
        assert_trop(TropSeries.from_coeffs(nv, n, a.coeffs), ra)
        assert_trop(TropSeries.from_coeffs(nv, n, a.coeffs + (TropNum.of(1),) * 2), ra)
        assert_trop(TropSeries.from_coeffs(nv, n + 2, a.coeffs), ra + (None, None))
        assert_trop(TropSeries.inf(nv, n), (None,) * (n + 1))
    nv, one = NatValuation(3), TropNum.of(1)
    assert_trop(TropSeries.monomial(nv, 3, one, 2), (None, None, 1, None))
    assert_trop(TropSeries.monomial(nv, 3, one, 4), (None,) * 4)
    assert_trop(TropSeries.monomial(nv, 3, T_INF, 2), (None,) * 4)
    assert_trop(TropSeries.monomial(nv, -1, one, 0), ())
    assert TropSeries.monomial(nv, 3, one, 2) != TropSeries.monomial(nv, 3, one, 1)
    assert TropSeries.inf(nv, 3) != TropSeries.inf(nv, 2)
    assert TropSeries.inf(nv, 3) != TropSeries.inf(NatValuation(5), 3)
    with pytest.raises(ValueError):
        TropSeries(nv, 2, ((3, one),))
    with pytest.raises(ValueError):
        TropSeries(nv, -2, ())
