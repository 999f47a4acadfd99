import copy
import math
import pickle
from fractions import Fraction

import pytest

from tropdiff.errors import NegativeValuation, NonIntegralExponent, ZeroInput
from tropdiff.fields import (
    PACK_STEP,
    FieldBackend,
    ResidueElem,
    angular_component,
    dot,
    residue,
    section_phi,
)
from tropdiff.semiring import T_INF, TropNum, Trop2

from helpers import (
    EISEN2,
    EISEN3,
    EISEN5,
    PADIC3,
    TRIVIAL,
    rand_nonzero_elem,
    rand_ref_coeffs,
    ref_add,
    ref_angular_component,
    ref_mul,
    ref_one,
    ref_pow,
    ref_residue,
    ref_str,
    ref_sub,
    ref_valuation,
    rng_for,
)

KERNEL_BACKENDS = (TRIVIAL, FieldBackend("padic", 2), PADIC3, EISEN2, EISEN3, EISEN5,
                   FieldBackend("eisenstein", 7))
DOT_BACKENDS = (TRIVIAL, PADIC3, EISEN2, EISEN3, EISEN5, FieldBackend("eisenstein", 7),
                FieldBackend("eisenstein", 11))


def test_backend_validation():
    with pytest.raises(ValueError):
        FieldBackend("padic")
    with pytest.raises(ValueError):
        FieldBackend("eisenstein", 4)
    with pytest.raises(ValueError):
        FieldBackend("trivial", 3)
    with pytest.raises(ValueError):
        FieldBackend("complex", 3)


def test_eisenstein_zeta_relation():
    # zeta^(p-1) = -p for every backend, including the degenerate p = 2
    for backend in (EISEN2, EISEN3, EISEN5):
        z = backend.zeta()
        assert z ** (backend.p - 1) == backend.elem(-backend.p)


def test_field_val_examples():
    assert EISEN3.zeta().valuation() == EISEN3.nat_val.to_units(TropNum.of(Fraction(1, 2)))
    assert PADIC3.elem(6).valuation() == TropNum.of(1)
    assert PADIC3.zero().valuation() == T_INF
    assert TRIVIAL.elem(Fraction(-7, 3)).valuation() == TropNum.of(0)
    assert EISEN2.zeta().valuation() == TropNum.of(1)
    # valuation of a mixed Eisenstein element: min over components
    x = EISEN3.from_coeffs([Fraction(9), Fraction(1, 3)])  # v = min(2, -1 + 1/2)
    assert x.valuation() == EISEN3.nat_val.to_units(TropNum.of(Fraction(-1, 2)))


def test_section_phi_examples():
    units = EISEN3.nat_val.to_units
    t_exp, scalar = section_phi(units(Trop2.of(0, Fraction(1, 2))), EISEN3)
    assert (t_exp, scalar) == (0, EISEN3.zeta())

    t_exp, scalar = section_phi(units(Trop2.of(2, Fraction(3, 2))), EISEN3)
    assert t_exp == 2
    assert scalar == EISEN3.zeta() ** 3
    assert scalar == EISEN3.elem(-3) * EISEN3.zeta()  # zeta^3 = -3*zeta

    assert section_phi(Trop2.of(0, 0), PADIC3) == (0, PADIC3.one())
    assert section_phi(Trop2.of(3, -2), PADIC3) == (3, PADIC3.elem(Fraction(1, 9)))
    assert section_phi(Trop2.of(-1, 0), TRIVIAL) == (-1, TRIVIAL.one())


def test_section_phi_errors():
    with pytest.raises(NonIntegralExponent):
        section_phi(EISEN3.nat_val.to_units(Trop2.of(0, Fraction(1, 3))), EISEN3)
    with pytest.raises(NonIntegralExponent):
        section_phi(Trop2.of(Fraction(1, 2), 0), PADIC3)
    with pytest.raises(NonIntegralExponent):
        section_phi(Trop2.of(0, 1), TRIVIAL)
    with pytest.raises(NonIntegralExponent):
        section_phi(Trop2(None), PADIC3)


def test_angular_component_examples():
    assert angular_component(EISEN3.one()) == ResidueElem(3, 1)
    # ac(6*zeta): unit part 6*zeta^(-2) = -2, and -2 = 1 mod 3
    assert angular_component(EISEN3.elem(6) * EISEN3.zeta()) == ResidueElem(3, 1)
    # the leading coefficient -p*zeta of the worked example has ac = 1
    assert angular_component(EISEN3.elem(-3) * EISEN3.zeta()) == ResidueElem(3, 1)
    assert angular_component(TRIVIAL.elem(Fraction(-2, 7))) == ResidueElem(None, -2, 7)
    with pytest.raises(ZeroInput):
        angular_component(PADIC3.zero())


def test_residue_examples():
    assert residue(PADIC3.elem(Fraction(7, 2))) == ResidueElem(3, 2)
    assert residue(EISEN3.zeta()) == ResidueElem(3, 0)
    assert residue(EISEN3.one()) == ResidueElem(3, 1)
    assert residue(PADIC3.zero()) == ResidueElem(3, 0)
    with pytest.raises(NegativeValuation):
        residue(PADIC3.elem(Fraction(1, 3)))


def test_eisenstein_inverse():
    rng = rng_for("eisenstein-inverse")
    for backend in (EISEN2, EISEN3, EISEN5):
        for _ in range(50):
            x = rand_nonzero_elem(rng, backend)
            assert x * x.inverse() == backend.one()
    x = EISEN3.one() + EISEN3.zeta()
    assert (EISEN3.one() / x) * x == EISEN3.one()


def check_valuation_multiplicative(count=1000):
    rng = rng_for("val-mult")
    backends = (TRIVIAL, PADIC3, EISEN3, EISEN5)
    for k in range(count):
        backend = backends[k % len(backends)]
        x, y = rand_nonzero_elem(rng, backend), rand_nonzero_elem(rng, backend)
        assert (x * y).valuation() == x.valuation() * y.valuation()


def check_valuation_subadditive(count=1000):
    rng = rng_for("val-subadd")
    backends = (TRIVIAL, PADIC3, EISEN3)
    for k in range(count):
        backend = backends[k % len(backends)]
        x, y = rand_nonzero_elem(rng, backend), rand_nonzero_elem(rng, backend)
        vx, vy, vs = x.valuation(), y.valuation(), (x + y).valuation()
        # v(x+y) >= min(v(x), v(y)) in the usual order, i.e. the sum of the
        # three valuations tropically vanishes
        assert vs.precedes(vx + vy)
        if vx != vy:
            assert vs == vx + vy


def check_section_monoid_hom(count=1000):
    rng = rng_for("phi-hom")
    backends = (PADIC3, EISEN3, EISEN5)
    for k in range(count):
        backend = backends[k % len(backends)]
        e = backend.ramification
        units = backend.nat_val.to_units
        w1 = units(Trop2.of(rng.randint(-4, 4), Fraction(rng.randint(-6, 6), e)))
        w2 = units(Trop2.of(rng.randint(-4, 4), Fraction(rng.randint(-6, 6), e)))
        t1, s1 = section_phi(w1, backend)
        t2, s2 = section_phi(w2, backend)
        t12, s12 = section_phi(w1 * w2, backend)
        assert t12 == t1 + t2 and s12 == s1 * s2


def check_angular_multiplicative(count=1000):
    rng = rng_for("ac-mult")
    backends = (TRIVIAL, PADIC3, EISEN3, EISEN5)
    for k in range(count):
        backend = backends[k % len(backends)]
        x, y = rand_nonzero_elem(rng, backend), rand_nonzero_elem(rng, backend)
        assert angular_component(x * y) == angular_component(x) * angular_component(y)
        if backend.kind != "trivial":
            v = x.valuation()  # in units of 1/e: the exponent of the uniformizer
            unit = x * backend.uniformizer_pow(-v.value)
            assert residue(unit) == angular_component(x)


def check_eisenstein_reduction(count=1000):
    rng = rng_for("eisen-reduction")
    for k in range(count):
        backend = (EISEN2, EISEN3, EISEN5)[k % 3]
        x = rand_nonzero_elem(rng, backend)
        assert x * backend.zeta() ** (backend.p - 1) == x * backend.elem(-backend.p)


def test_valuation_multiplicative():
    check_valuation_multiplicative()


def test_valuation_subadditive():
    check_valuation_subadditive()


def test_section_monoid_hom():
    check_section_monoid_hom()


def test_angular_multiplicative():
    check_angular_multiplicative()


def test_eisenstein_reduction():
    check_eisenstein_reduction()


def assert_canonical(x, ref):
    """x holds the value `ref` as integer numerators over one reduced positive denominator."""
    assert x.coeffs == tuple(ref)
    assert len(x.num) == x.backend.degree and all(type(a) is int for a in x.num)
    assert type(x.den) is int and x.den > 0
    assert math.gcd(x.den, *x.num) == 1
    if not any(ref):
        assert x.num == (0,) * x.backend.degree and x.den == 1


def assert_same(x, y):
    assert x == y and hash(x) == hash(y)
    assert (x.num, x.den) == (y.num, y.den)


def test_kernel_matches_fraction_reference():
    rng = rng_for("kernel-oracle")
    for backend in KERNEL_BACKENDS:
        for case in range(24):
            bits = 1024 if case % 12 == 0 else rng.choice((1, 4, 12))
            ra, rb = (rand_ref_coeffs(rng, backend, bits) for _ in range(2))
            p = backend.p or 3
            if case == 1:
                ra = (Fraction(0),) * backend.degree
            elif case in (2, 3, 4):
                # num[i] = p^k u over den = p^b d' at the index i that sets the
                # valuation, with k - b odd, so ac(a) carries the sign (-1)^(k-b)
                # over Q(zeta): den divisible by p (at i = 0, and at i = 1 where
                # there is a zeta), or a numerator with an odd power of p
                pad = (Fraction(0),) * backend.degree
                ra = {2: (Fraction(5, 7 * p),),
                      3: (Fraction(4, 7 * p**2), Fraction(-1, p**3))
                      if backend.degree > 1 else (Fraction(-3, 7 * p**3),),
                      4: (Fraction(5 * p**3, 7),)}[case]
                ra = (ra + pad)[:backend.degree]
            a, b = backend.from_coeffs(ra), backend.from_coeffs(rb)
            assert_canonical(a, ra)
            assert_canonical(b, rb)
            assert_canonical(a + b, ref_add(ra, rb))
            assert_canonical(a - b, ref_sub(ra, rb))
            assert_canonical(-a, tuple(-c for c in ra))
            assert_canonical(a * b, ref_mul(ra, rb, backend))
            n = rng.choice((0, 1, -1, 3, -12, 2**70))
            assert_canonical(a * n, tuple(c * n for c in ra))
            # x * k divides out gcd(den, k) alone, x / k gcd(k, *num) and the sign of k
            for k in (1, -1, 2, -2, p, -p, 7 * p**3, -7 * p**3, 2**100 + 1):
                for got, ref in ((a * k, tuple(c * k for c in ra)),
                                 (a / k, tuple(c / k for c in ra))):
                    assert_canonical(got, ref)
                    assert_same(got, backend.from_coeffs(ref))
            with pytest.raises(ZeroDivisionError):
                a / 0
            for k in range(4):
                assert_canonical(a ** k, ref_pow(ra, k, backend))
            # zero operands take the short-circuit paths of + - and int *
            rz = (Fraction(0),) * backend.degree
            z = backend.from_coeffs(rz)
            for got, ref in ((z + a, ref_add(rz, ra)), (a + z, ref_add(ra, rz)),
                             (z + z, rz), (a - z, ref_sub(ra, rz)),
                             (z - a, ref_sub(rz, ra)), (z * n, rz), (a * 0, rz)):
                assert_canonical(got, ref)
                assert_same(got, backend.from_coeffs(ref))

            val = ref_valuation(ra, backend)
            assert a.valuation() == (T_INF if val is None
                                     else backend.nat_val.to_units(TropNum(val)))
            assert str(a) == ref_str(ra, backend)
            if val is None or val >= 0:
                assert residue(a) == ref_residue(ra, backend)
            else:
                with pytest.raises(NegativeValuation):
                    residue(a)
            if val is None:
                with pytest.raises(ZeroInput):
                    a.inverse()
                continue
            assert angular_component(a) == ref_angular_component(ra, backend)
            inv = a.inverse()
            assert_canonical(inv, inv.coeffs)
            assert ref_mul(ra, inv.coeffs, backend) == ref_one(backend)
            for k in (1, 2):
                assert_canonical(a ** -k, ref_pow(inv.coeffs, k, backend))


def test_kernel_equal_values_share_form_and_hash():
    rng = rng_for("kernel-eq-hash")
    for backend in KERNEL_BACKENDS:
        for case in range(8):
            bits = 1024 if case % 4 == 0 else 6
            ra, rb = (rand_ref_coeffs(rng, backend, bits) for _ in range(2))
            a, b = backend.from_coeffs(ra), backend.from_coeffs(rb)
            assert_same(a + b, b + a)
            assert_same(a + b, backend.from_coeffs(ref_add(ra, rb)))
            assert_same((a + b) - b, a)
            assert_same(a * b, b * a)
            assert_same(a * 6, a * backend.elem(6))
            assert_same(a - a, backend.zero())
            assert_same(a * 0, backend.zero())
            padded = (ra[0],) + (0,) * (backend.degree - 1)
            assert_same(backend.elem(ra[0]), backend.from_coeffs(padded))
            if not a.is_zero:
                assert_same(a * a.inverse(), backend.one())
                assert_same(a ** -1, a.inverse())
            assert len({a + b, b + a, backend.from_coeffs(ref_add(ra, rb))}) == 1


def test_mixed_backends_raise_with_zero_operands():
    """The zero short-circuits run after the backend check, so mixing still raises."""
    for left in KERNEL_BACKENDS:
        for right in KERNEL_BACKENDS:
            if left == right:
                continue
            for x, y in ((left.zero(), right.zero()), (left.zero(), right.one()),
                         (left.one(), right.zero())):
                for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
                    with pytest.raises(ValueError, match="mixed field backends"):
                        op(x, y)


def test_dot_matches_fraction_reference():
    """`dot` equals the reference sum of products, in canonical form, with one
    normalization over mixed denominators, 1024-bit operands and cancellation,
    and at the edges of the packing bound for p in {2, 3, 5, 7, 11}."""
    rng = rng_for("dot-oracle")
    for backend in KERNEL_BACKENDS:
        rz = (Fraction(0),) * backend.degree
        assert_canonical(dot(backend, []), rz)
        assert_canonical(dot(backend, iter(())), rz)
        for case in range(16):
            bits = 1024 if case % 4 == 0 else rng.choice((1, 4, 12))
            refs = [tuple(rand_ref_coeffs(rng, backend, bits) for _ in range(2))
                    for _ in range(rng.randint(1, 6))]
            pairs = [(backend.from_coeffs(ra), backend.from_coeffs(rb)) for ra, rb in refs]
            total = rz
            for ra, rb in refs:
                total = ref_add(total, ref_mul(ra, rb, backend))
            assert_canonical(dot(backend, pairs), total)
            assert_canonical(dot(backend, iter(pairs)), total)
            # the same products with negated left factors cancel to zero
            both = pairs + [(-a, b) for a, b in pairs]
            rng.shuffle(both)
            assert_canonical(dot(backend, both), rz)
            # an exact cancellation between different denominators
            a, b = pairs[0]
            if not a.is_zero and not b.is_zero:
                three = backend.elem(3)
                cancel = [(a * three, b), (-a, b * three)]
                assert_canonical(dot(backend, cancel), rz)

    def check(backend, refs):
        pairs = [(backend.from_coeffs(ra), backend.from_coeffs(rb)) for ra, rb in refs]
        total = (Fraction(0),) * backend.degree
        for ra, rb in refs:
            total = ref_add(total, ref_mul(ra, rb, backend))
        assert_canonical(dot(backend, pairs), total)

    # the packing bound: every coefficient at +-(2^k - 1), all of one sign or
    # mixed, where the unfolded sums are largest against their width
    for backend in DOT_BACKENDS:
        d = backend.degree
        for k in (1, 2, 31, 64, 257):
            top = 2**k - 1
            for sa, sb in ((1, 1), (1, -1), (-1, -1)):
                for n in (1, 2, 9):
                    check(backend, [((Fraction(sa * top),) * d, (Fraction(sb * top),) * d)] * n)
                alternating = tuple(Fraction((-1) ** i * sa * top) for i in range(d))
                check(backend, [(alternating, (Fraction(sb * top),) * d)] * 3)
                # numerators at the top over denominators just above a power of two,
                # so pden is just above 2^(bits(pden) - 1), the bound's lower limit
                check(backend, [((Fraction(sa * top, 2**k + 1),) * d,
                                 (Fraction(sb * top, 2**j + 1),) * d) for j in range(1, 5)])
                if k > 1:
                    # product denominators 2^k, whose cofactor in D is 2^(k-1) - 1:
                    # D // pden is at its bound 2^(bits(D) - bits(pden) + 1) - 1
                    tight = ((Fraction(sa * top, 2**k),) * d, (Fraction(sb * top),) * d)
                    wide = ((Fraction(sa * top, 2**k * (2**(k - 1) - 1)),) * d,
                            (Fraction(sb * top),) * d)
                    check(backend, [tight] * 7 + [wide])

    # 66 pairs over pairwise-coprime denominators, so that D // pden is the
    # product of the other 65 pairs' denominators
    primes = [q for q in range(2, 1000) if all(q % r for r in range(2, math.isqrt(q) + 1))]
    rng = rng_for("dot-packing")
    for backend in DOT_BACKENDS:
        d = backend.degree
        refs = []
        for i in range(66):
            qa, qb = primes[2 * i], primes[2 * i + 1]
            refs.append((tuple(Fraction(rng.choice((-1, 1)) * (rng.getrandbits(40) | 1), qa)
                               for _ in range(d)),
                         tuple(Fraction(rng.choice((-1, 1)) * (2**40 - 1), qb)
                               for _ in range(d))))
        check(backend, refs)
        # one-pair sums, also over 1024-bit operands
        for bits in (1, 12, 1024):
            for _ in range(4):
                check(backend, [tuple(rand_ref_coeffs(rng, backend, bits) for _ in range(2))])


def test_dot_reuses_packings_only_at_their_width():
    """The same elements meet small and 1024-bit partners in turn, at widths
    on both sides of a PACK_STEP step, and on both sides of one pair: every
    sum equals the Fraction reference, though each element keeps its last
    packing between calls.  A packed element compares, hashes, prints,
    copies and pickles as a fresh one."""
    rng = rng_for("dot-memo")
    for backend in (EISEN3, EISEN5, FieldBackend("eisenstein", 7)):
        d = backend.degree

        def ints(bits):  # nonzero integers of exactly `bits` bits
            top = 2**(bits - 1)
            return tuple(Fraction(rng.choice((-1, 1)) * (top + rng.getrandbits(bits - 1)))
                         for _ in range(d))

        refs = {"x": ints(30), "small": rand_ref_coeffs(rng, backend, 4),
                "big": rand_ref_coeffs(rng, backend, 1024),
                **{bits: ints(bits) for bits in range(22, 34)}}
        elems = {name: backend.from_coeffs(ref) for name, ref in refs.items()}
        fresh = {name: (hash(y), repr(y)) for name, y in elems.items()}
        widths = []
        # partner sizes up and down again, each pass crossing the step at
        # 64 bits, with small and 1024-bit partners in between
        for name in ["small", *range(22, 34), "big", *range(33, 21, -1), "small", "big", 27]:
            for pairs in ((("x", name), (name, "x")), (("x", "x"), ("x", name)),
                          ((name, name), ("x", "big"))):
                total = (Fraction(0),) * d
                for a, b in pairs:
                    total = ref_add(total, ref_mul(refs[a], refs[b], backend))
                assert_canonical(dot(backend, [(elems[a], elems[b]) for a, b in pairs]), total)
                widths.append(elems["x"]._pack[1])
        assert {PACK_STEP, 2 * PACK_STEP} <= set(widths)
        assert sum(w != v for w, v in zip(widths, widths[1:])) > 10
        for name, y in elems.items():
            again = backend.from_coeffs(refs[name])
            assert hasattr(y, "_pack") and not hasattr(again, "_pack")
            assert y == again and again == y and (hash(y), repr(y)) == fresh[name]
            assert hash(again) == fresh[name][0] and repr(again) == fresh[name][1]
            for copied in (copy.copy(y), copy.deepcopy(y), pickle.loads(pickle.dumps(y))):
                assert_same(copied, y)
                assert not hasattr(copied, "_pack")


def test_dot_mixed_backends_raise():
    x, y = PADIC3.one(), EISEN3.one()
    for pairs in ([(x, y)], [(y, y)], [(PADIC3.zero(), x), (x, TRIVIAL.one())]):
        with pytest.raises(ValueError, match="mixed field backends"):
            dot(PADIC3, pairs)
