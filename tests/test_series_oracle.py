"""Classical series against a dense Fraction-tuple reference.

A series stores only its nonzero terms; every operation must give the value
of the dense reference, with the terms sorted, inside the window and nonzero,
so that `==` and `hash` compare values.
"""

import math

import pytest

from tropdiff.errors import TruncationExhausted
from tropdiff import series as series_module
from tropdiff.series import PowerSeries

from helpers import (
    EISEN3,
    EISEN5,
    PADIC3,
    TRIVIAL,
    rand_nonzero_elem,
    rand_ref_series,
    ref_from_terms,
    ref_series_add,
    ref_series_derivative,
    ref_series_mul,
    ref_series_neg,
    ref_series_pow,
    ref_series_scale,
    ref_zero,
    rng_for,
    series_from_ref,
)

BACKENDS = (TRIVIAL, PADIC3, EISEN3, EISEN5)
DENSITIES = ("zero", "sparse", "full")
WINDOWS = ((0, 0), (5, 5), (6, 3), (2, 7))


def assert_series(s: PowerSeries, ref: tuple):
    """s holds the dense reference `ref` in canonical sparse form."""
    assert s.truncation == len(ref) - 1
    assert ref_from_terms(s) == ref
    assert tuple(c.coeffs for c in s.coeffs) == ref
    canonical = series_from_ref(s.backend, ref)
    assert s == canonical and hash(s) == hash(canonical)
    nonzero = [k for k, c in enumerate(ref) if any(c)]
    assert s.is_zero == (not nonzero)
    assert s.order() == (nonzero[0] if nonzero else None)
    assert s.constant_term().coeffs == ref[0]


def series_cases(name: str, per_window: int = 2):
    """(backend, a, ra, b, rb) over every backend, density pair and window pair."""
    rng = rng_for(name)
    for backend in BACKENDS:
        for da in DENSITIES:
            for db in DENSITIES:
                for na, nb in WINDOWS:
                    for _ in range(per_window):
                        ra = rand_ref_series(rng, backend, na, da)
                        rb = rand_ref_series(rng, backend, nb, db)
                        yield (rng, backend, series_from_ref(backend, ra), ra,
                               series_from_ref(backend, rb), rb)


def test_ring_operations_match_reference():
    for rng, backend, a, ra, b, rb in series_cases("sparse-ring"):
        assert_series(a, ra)
        assert_series(a + b, ref_series_add(ra, rb))
        assert_series(a - b, ref_series_add(ra, ref_series_neg(rb)))
        assert_series(-a, ref_series_neg(ra))
        assert_series(a * b, ref_series_mul(ra, rb, backend))
        assert_series(b * a, ref_series_mul(rb, ra, backend))


def test_powers_scaling_and_derivative_match_reference():
    for rng, backend, a, ra, _, _ in series_cases("sparse-unary", per_window=1):
        for e in (0, 1, 3):
            assert_series(a ** e, ref_series_pow(ra, e, backend))
        for n in (0, 1, -3, 7):
            assert_series(a.scale(n), tuple(tuple(n * q for q in c) for c in ra))
        c = rand_nonzero_elem(rng, backend)
        assert_series(a.scale(c), ref_series_scale(ra, c.coeffs, backend))
        assert_series(a.scale(backend.zero()), (ref_zero(backend),) * len(ra))
        if a.truncation == 0:
            with pytest.raises(TruncationExhausted):
                a.derivative()
        else:
            assert_series(a.derivative(), ref_series_derivative(ra))


def test_huge_power_by_repeated_squaring(monkeypatch):
    """(1 + t)^3000000 takes at most 44 series products, and its coefficients
    are the binomials C(3000000, k)."""
    calls = []
    mul = PowerSeries.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(PowerSeries, "__mul__", counted)
    one = PADIC3.one()
    s = PowerSeries.from_coeffs(PADIC3, 4, [one, one]) ** 3000000
    assert len(calls) <= 44
    assert s.coeffs == tuple(PADIC3.elem(math.comb(3000000, k)) for k in range(5))
    assert (PowerSeries.monomial(PADIC3, 4, one, 1) ** 3000000).is_zero


def test_sparse_product_visits_only_reached_degrees(monkeypatch):
    """A product makes one `dot` per degree i + j <= N that a pair of terms
    reaches, not one per degree of the window."""
    calls = []
    dot = series_module.dot

    def counted(backend, pairs):
        calls.append(1)
        return dot(backend, pairs)

    monkeypatch.setattr(series_module, "dot", counted)
    one, two = PADIC3.one(), PADIC3.elem(2)
    a = PowerSeries(PADIC3, 10**5, ((0, one), (50000, one)))
    assert (a * a).terms == ((0, one), (50000, two), (100000, one))
    assert len(calls) == 3
    b = PowerSeries(PADIC3, 10**5, ((0, one), (60000, one)))
    calls.clear()
    assert (a * b).terms == ((0, one), (50000, one), (60000, one))
    assert len(calls) == 3  # 110000 lies past the window
    calls.clear()
    assert (b * b).terms == ((0, one), (60000, two))
    assert len(calls) == 2


def test_truncation_and_rewindowing_match_reference():
    for _, backend, a, ra, _, _ in series_cases("sparse-window", per_window=1):
        n = a.truncation
        for m in {0, n // 2, n}:
            assert_series(a.truncate(m), ra[: m + 1])
        assert a.truncate(n) is a and a.truncate(n + 3) is a
        assert_series(a.with_window(n + 3), ra + (ref_zero(backend),) * 3)


def test_cancellation_drops_terms():
    """Exact cancellation leaves no zero term, fully or on a random subset of degrees."""
    for rng, backend, a, ra, _, _ in series_cases("sparse-cancel", per_window=1):
        empty = (ref_zero(backend),) * len(ra)
        for s in (a + (-a), a - a, (-a) + a, a.scale(-1) + a):
            assert_series(s, empty)
            assert s.terms == () and s == PowerSeries.zero(backend, a.truncation)
        # c cancels a on some degrees and adds new terms elsewhere
        rc = tuple(tuple(-q for q in x) if rng.random() < 0.5 else y
                   for x, y in zip(ra, rand_ref_series(rng, backend, a.truncation, "sparse")))
        assert_series(a + series_from_ref(backend, rc), ref_series_add(ra, rc))


def test_constructors_keep_the_sparse_form():
    backend = EISEN3
    z, one = backend.zero(), backend.one()
    assert PowerSeries.from_coeffs(backend, 4, [z, one, z]).terms == ((1, one),)
    assert PowerSeries.from_coeffs(backend, 1, [one, z, one]).terms == ((0, one),)
    assert PowerSeries.monomial(backend, 3, z, 2).terms == ()
    assert PowerSeries.monomial(backend, 3, one, 5).terms == ()
    assert PowerSeries.monomial(backend, 3, one, 2).terms == ((2, one),)
    with pytest.raises(ValueError):
        PowerSeries(backend, 2, ((3, one),))
    with pytest.raises(ValueError):
        PowerSeries(backend, -1, ())
    with pytest.raises(ValueError, match="mixed field backends"):
        PowerSeries.one(PADIC3, 2) + PowerSeries.zero(EISEN3, 2)
