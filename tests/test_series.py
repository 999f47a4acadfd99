from fractions import Fraction

import pytest

from tropdiff.errors import TruncationExhausted
from tropdiff.semiring import (
    NatValuation,
    T_INF,
    TRIVIAL_NAT_VAL,
    TropNum,
    Trop2,
    v_p_factorial,
)
from tropdiff.series import (
    LeadingTerm,
    PowerSeries,
    TropSeries,
    psi_one,
    psi_one_inverse,
    psi_trop,
    psi_trop_inverse,
    rank2_val,
    sigma0,
    sigma_to_grigoriev,
    tropicalize_series,
)
from tropdiff.verify import exp_equation, solve_linear

from helpers import (
    EISEN3,
    PADIC3,
    TRIVIAL,
    diff_n,
    exp_series_direct,
    leading,
    rand_elem,
    rand_power_series,
    rand_trop_series,
    rng_for,
)

V3 = NatValuation(3)


def tser(nat_val, truncation, entries):
    cs = [T_INF] * (truncation + 1)
    for k, v in entries.items():
        cs[k] = TropNum.of(v)
    return TropSeries.from_coeffs(nat_val, truncation, tuple(cs))


def test_phi_leading_examples():
    s = tser(V3, 8, {1: 0, 3: 1})
    assert leading(s).value == Trop2.of(1, 0)
    assert not leading(s).truncation_limited

    empty = TropSeries.inf(V3, 5)
    lt = leading(empty)
    assert lt.value.is_inf and lt.truncation_limited

    assert leading(tser(V3, 4, {0: 5, 2: 1})).value == Trop2.of(0, 5)


def test_trop_diff_examples():
    s = tser(V3, 8, {1: 0, 3: 1})
    d = s.diff()
    assert d.truncation == 7
    assert d == tser(V3, 7, {0: 0, 2: 2})  # v_3(3) = 1 lifts the t^3 slot
    d3 = diff_n(s, 3)
    assert leading(d3).value == Trop2.of(0, 2)

    only_const = tser(TRIVIAL_NAT_VAL, 4, {0: 7})
    assert only_const.diff().is_inf

    # differentiating past the window leaves an empty, flagged series
    exhausted = tser(V3, 0, {0: 1}).diff()
    assert exhausted.truncation == -1
    assert leading(exhausted).truncation_limited


def test_tropicalize_series_examples():
    ode, _ = exp_equation(3, 12)
    sol = solve_linear(ode)
    trop = tropicalize_series(sol)
    for m in range(0, 5):
        expected = trop.nat_val.to_units(TropNum.of(Fraction(m, 2) - (1 if m >= 3 else 0)))
        assert trop.coeffs[3 * m] == expected
    assert all(trop.coeffs[k].is_inf for k in range(13) if k % 3)

    assert tropicalize_series(PowerSeries.zero(PADIC3, 6)).is_inf

    a = PowerSeries.from_coeffs(TRIVIAL, 4, [TRIVIAL.one(), TRIVIAL.zero(),
                                             TRIVIAL.elem(7)])
    trop = tropicalize_series(a)
    assert trop.nat_val == TRIVIAL_NAT_VAL
    assert [not c.is_inf for c in trop.coeffs] == [True, False, True, False, False]
    assert all(c.is_inf or c == TropNum.of(0) for c in trop.coeffs)


def test_rank2_val_examples():
    a = PowerSeries.monomial(EISEN3, 6, EISEN3.elem(-3) * EISEN3.zeta(), 2)
    assert rank2_val(a).value == EISEN3.nat_val.to_units(Trop2.of(2, Fraction(3, 2)))
    assert rank2_val(PowerSeries.one(PADIC3, 4)).value == Trop2.of(0, 0)
    lt = rank2_val(PowerSeries.zero(PADIC3, 4))
    assert lt.value.is_inf and lt.truncation_limited


def test_psi_examples():
    a = [PADIC3.elem(1), PADIC3.zero(), PADIC3.zero(), PADIC3.zero()]
    assert psi_one(a, PADIC3) == PowerSeries.one(PADIC3, 3)

    a = [PADIC3.zero(), PADIC3.elem(1), PADIC3.zero(), PADIC3.elem(2)]
    s = psi_one(a, PADIC3)
    assert s.coeffs[1] == PADIC3.elem(1)
    assert s.coeffs[3] == PADIC3.elem(Fraction(1, 3))  # 2 / 3!

    rng = rng_for("psi-roundtrip-example")
    vec = tuple(rand_elem(rng, EISEN3) for _ in range(7))
    assert psi_one_inverse(psi_one(vec, EISEN3)) == vec


def test_psi_trop_examples():
    s = tser(V3, 8, {1: 0, 3: 1})
    b = psi_trop_inverse(s)
    expected = [T_INF, TropNum.of(0), T_INF, TropNum.of(2)] + [T_INF] * 5
    assert list(b) == expected
    assert psi_trop(b, V3) == s

    # the inverse is also the constant term of the iterated differential
    for j in range(9):
        assert b[j] == diff_n(s, j).coeffs[0]

    all_inf = TropSeries.inf(V3, 4)
    assert all(x.is_inf for x in psi_trop_inverse(all_inf))
    assert psi_trop(psi_trop_inverse(all_inf), V3) == all_inf


def test_sigma_examples():
    s = tser(V3, 5, {1: 0, 3: 1})
    assert sigma_to_grigoriev(s) == tser(TRIVIAL_NAT_VAL, 5, {1: 0, 3: 0})
    assert sigma0(Trop2.of(2, Fraction(3, 2))) == TropNum.of(2)
    assert sigma0(Trop2(None)) == T_INF


def test_bool_series():
    # Grigoriev series: trivial-valuation series with coefficients in {0, inf}
    b = tser(TRIVIAL_NAT_VAL, 5, {0: 0, 3: 0})
    assert sigma0(leading(b).value) == TropNum.of(0)
    assert b.diff() == tser(TRIVIAL_NAT_VAL, 4, {2: 0})
    assert b.diff().diff().diff() == tser(TRIVIAL_NAT_VAL, 2, {0: 0})
    assert b.coeffs[0] == TropNum.of(0)
    assert leading(TropSeries.inf(TRIVIAL_NAT_VAL, 3)).truncation_limited


def test_series_arithmetic():
    rng = rng_for("series-arith")
    x = rand_power_series(rng, EISEN3, 8)
    y = rand_power_series(rng, EISEN3, 8)
    z = rand_power_series(rng, EISEN3, 8)
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x * y).truncation == 8
    one = PowerSeries.one(EISEN3, 8)
    assert x ** 0 == one and x ** 1 == x
    assert x ** 3 == one * x * x * x
    with pytest.raises(TruncationExhausted):
        PowerSeries.one(PADIC3, 0).derivative()


def test_exp_direct_matches_recurrence():
    for p in (2, 3, 5):
        ode, _ = exp_equation(p, 4 * p)
        sol = solve_linear(ode)
        backend = sol.backend
        u = PowerSeries.monomial(backend, 4 * p, backend.zeta(), p)
        assert exp_series_direct(backend, u, 4 * p) == sol


def check_enhancement_commutation(count=500):
    """Tropicalization intertwines d/dt with the tropical differential, exactly."""
    rng = rng_for("enhancement")
    backends = (PADIC3, EISEN3, TRIVIAL)
    for k in range(count):
        backend = backends[k % len(backends)]
        a = rand_power_series(rng, backend, rng.randint(1, 9))
        assert tropicalize_series(a.derivative()) == tropicalize_series(a).diff()


def check_phi_diagram(count=1000):
    """Leading term after tropicalizing equals the rank-2 valuation, flags included."""
    rng = rng_for("phi-diagram")
    backends = (PADIC3, EISEN3, TRIVIAL)
    for k in range(count):
        backend = backends[k % len(backends)]
        a = rand_power_series(rng, backend, rng.randint(0, 9), zero_prob=0.5)
        assert leading(tropicalize_series(a)) == rank2_val(a)


def check_tropical_leibniz(count=500):
    rng = rng_for("leibniz")
    nat_vals = (V3, NatValuation(2), TRIVIAL_NAT_VAL)
    for k in range(count):
        nv = nat_vals[k % len(nat_vals)]
        n = rng.randint(1, 8)
        x = rand_trop_series(rng, nv, n, inf_prob=0.3)
        y = rand_trop_series(rng, nv, n, inf_prob=0.3)
        lhs = (x * y).diff()
        mid = x * y.diff()
        rhs = y * x.diff()
        for j in range(n):
            addends = [lhs.coeffs[j], mid.coeffs[j], rhs.coeffs[j]]
            total = addends[0] + addends[1] + addends[2]
            assert total.is_inf or sum(1 for a in addends if a == total) >= 2


def check_sigma_compatibility(count=500):
    """Support projection of the p-adic tropicalization is the trivial one."""
    rng = rng_for("sigma-compat")
    for _ in range(count):
        n = rng.randint(0, 9)
        rationals = [rand_elem(rng, PADIC3).coeffs[0] if rng.random() > 0.4 else Fraction(0)
                     for _ in range(n + 1)]
        a_padic = PowerSeries.from_coeffs(PADIC3, n, [PADIC3.elem(q) for q in rationals])
        a_triv = PowerSeries.from_coeffs(TRIVIAL, n, [TRIVIAL.elem(q) for q in rationals])
        lhs = sigma_to_grigoriev(tropicalize_series(a_padic))
        rhs = sigma_to_grigoriev(tropicalize_series(a_triv))
        assert lhs == rhs
        assert tropicalize_series(a_triv) == lhs


def check_psi_square(count=500):
    """Tropicalizing the Taylor packing equals the tropical packing of valuations."""
    rng = rng_for("psi-square")
    backends = (PADIC3, EISEN3)
    for k in range(count):
        backend = backends[k % len(backends)]
        vec = tuple(rand_elem(rng, backend) for _ in range(rng.randint(1, 9)))
        lhs = tropicalize_series(psi_one(vec, backend))
        rhs = psi_trop(tuple(c.valuation() for c in vec), backend.nat_val)
        assert lhs == rhs


def check_psi_roundtrips(count=1000):
    rng = rng_for("psi-roundtrips")
    for k in range(count):
        backend = (PADIC3, EISEN3)[k % 2]
        vecs = tuple(tuple(rand_elem(rng, backend) for _ in range(rng.randint(1, 7)))
                     for _ in range(rng.randint(1, 2)))
        if len({len(v) for v in vecs}) == 1:
            assert tuple(psi_one_inverse(psi_one(v, backend)) for v in vecs) == vecs
        nv = backend.nat_val
        s = rand_trop_series(rng, nv, rng.randint(0, 8))
        assert psi_trop(psi_trop_inverse(s), nv) == s
        b = tuple(rand_trop_series(rng, nv, 6).coeffs)
        assert psi_trop_inverse(psi_trop(b, nv)) == b


def check_diff_leading_closed_form(count=20):
    """Phi(d_v^j S) read in closed form equals differentiating j times, flag included.

    Windows run from truncation -1 up; series are dense, sparse or all
    infinite, over NatValuation None, 2, 3 and 5.  The per-series table is
    built by whichever call comes first, so each series is read past its
    window first (j = N + 3), then at every j up to N + 3 in a shuffled
    order, twice.  Building the table changes neither equality, nor the
    hash, nor the repr of the series.
    """
    rng = rng_for("diff-leading")
    for truncation in range(-1, 11):
        for case in range(count):
            nv = NatValuation((None, 2, 3, 5)[case % 4])
            inf_prob = (0.0, 0.3, 0.8, 1.0)[case // 4 % 4]
            s = rand_trop_series(rng, nv, truncation, inf_prob=inf_prob)
            fresh = TropSeries.from_coeffs(s.nat_val, s.truncation, s.coeffs)
            support = [k for k in range(truncation + 1) if rng.random() >= inf_prob]
            b = tser(TRIVIAL_NAT_VAL, truncation, {k: 0 for k in support})
            js = list(range(truncation + 4))
            rng.shuffle(js)
            for j in [truncation + 3] + js + js:
                assert s.diff_leading(j) == leading(diff_n(fresh, j))
                assert b.diff_leading(j) == leading(diff_n(b, j))
                # Grigoriev reading: the first support index past j, shifted
                shifted = [k - j for k in support if k >= j]
                expected = TropNum.of(min(shifted)) if shifted else T_INF
                assert sigma0(b.diff_leading(j).value) == expected
            assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)
            assert {fresh: True}[s]


def test_diff_leading_closed_form():
    check_diff_leading_closed_form()


def test_leading_table_stops_at_last_finite_index(monkeypatch):
    """A sparse series reads its factorial valuations only up to its last finite index."""
    import tropdiff.semiring as semiring_module

    calls = []

    def counting(m, p):
        calls.append(m)
        return v_p_factorial(m, p)

    monkeypatch.setattr(semiring_module, "v_p_factorial", counting)
    s = TropSeries.monomial(V3, 100000, TropNum.of(0), 5)
    # d_v^2 t^5 = 20 t^3, and v_3(20) = 0
    assert s.diff_leading(2) == LeadingTerm(Trop2((3, 0)))
    assert sorted(calls) == list(range(6))
    assert s.diff_leading(5) == LeadingTerm(Trop2((0, 1)))  # v_3(5!) = 1
    assert s.diff_leading(6) == LeadingTerm(T_INF, True, 100000 - 6 + 1)
    assert s.diff_leading(100001) == LeadingTerm(T_INF, True, 0)
    assert s.diff_leading(200000) == LeadingTerm(T_INF, True, 0)
    assert len(calls) == 6


def test_enhancement_commutation():
    check_enhancement_commutation()


def test_phi_diagram():
    check_phi_diagram()


def test_tropical_leibniz():
    check_tropical_leibniz()


def test_sigma_compatibility():
    check_sigma_compatibility()


def test_psi_square():
    check_psi_square()


def test_psi_roundtrips():
    check_psi_roundtrips()
