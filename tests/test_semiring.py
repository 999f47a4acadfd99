import math
from fractions import Fraction

import pytest

from tropdiff.errors import ZeroInput
from tropdiff.semiring import (
    NatValuation,
    T_INF,
    TropNum,
    Trop2,
    digit_sum,
    is_prime,
    tropically_vanishes,
    trop_sum,
    v_p,
    v_p_factorial,
)

from helpers import (
    rng_for,
    rand_trop_num,
    rand_trop2,
    v_p_factorial_iter,
    vanishes_by_removal,
    vp_factorial_bruteforce,
)


def T(x):
    return TropNum.of(Fraction(x))


def T2(a, b):
    return Trop2.of(Fraction(a), Fraction(b))


def test_trop_add_examples():
    assert T2(2, Fraction(3, 2)) + T2(1, Fraction(3, 2)) == T2(1, Fraction(3, 2))
    assert T_INF + T2(4, 7) == T2(4, 7)
    assert T_INF + T(5) == T(5)
    assert T2(0, 5) + T2(0, 2) == T2(0, 2)


def test_trop_mul_examples():
    assert T2(1, 0) * T2(0, 2) == T2(1, 2)
    assert T_INF * T(2) == T_INF
    assert T_INF * T2(0, 2) == T_INF
    assert T(0) * T(7) == T(7)
    assert T2(0, 0) * T2(5, -1) == T2(5, -1)


def test_trop_pow():
    assert T(3) ** 2 == T(6)
    assert T2(1, 2) ** 3 == T2(3, 6)
    assert T_INF ** 0 == T(0)
    assert T_INF ** 2 == T_INF
    assert T2(1, 2) ** 0 == T2(0, 0)


def test_ranks_never_mix():
    for a, b in ((T(1), T2(0, 1)), (T2(0, 1), T(1))):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a * b


def test_vanishing_examples():
    p = 3
    a = Fraction(3, 2)
    rep = tropically_vanishes([T2(p - 1, a), T2(p - 1, a)])
    assert rep.vanishes and rep.attainment == (0, 1)

    rep = tropically_vanishes([T2(2, Fraction(3, 2))])
    assert not rep.vanishes and rep.attainment == (0,)

    rep = tropically_vanishes([T_INF, T_INF])
    assert rep.vanishes and rep.total == T_INF

    rep = tropically_vanishes([T2(0, 1), T2(0, 1), T2(1, 5)])
    assert rep.vanishes and rep.attainment == (0, 1)

    assert tropically_vanishes([]).vanishes
    assert trop_sum([]) == T_INF
    assert tropically_vanishes([T_INF]).vanishes


def is_prime_by_trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime():
    """Miller-Rabin agrees with trial division, rejects Carmichael numbers
    (56052361 = 211 * 421 * 631 has no factor among the bases) and a strong
    pseudoprime to bases 2, 3, 5 and 7, and decides 2^61 - 1."""
    assert all(is_prime(n) == is_prime_by_trial_division(n) for n in range(-2, 10**5))
    assert not any(is_prime(n) for n in (561, 41041, 56052361, 3215031751))
    assert is_prime(2**61 - 1)
    with pytest.raises(ValueError):
        is_prime(2**89 - 1)


def test_v_p_examples():
    assert v_p(6, 3) == 1
    assert v_p(8, 2) == 3
    assert v_p(7, 5) == 0
    assert v_p(-12, 2) == 2
    with pytest.raises(ZeroInput):
        v_p(0, 3)


def test_v_p_factorial_examples():
    # expected values frozen from the brute-force product valuation
    assert vp_factorial_bruteforce(3, 3) == 1
    assert v_p_factorial(3, 3) == 1
    assert v_p_factorial(0, 3) == 0
    assert vp_factorial_bruteforce(4, 2) == 3
    assert v_p_factorial(4, 2) == 3


def test_legendre_matches_iterative_and_bruteforce():
    for p in (2, 3, 5, 7):
        for m in range(0, 10_001):
            assert v_p_factorial(m, p) == v_p_factorial_iter(m, p)
        for m in range(0, 200):
            assert v_p_factorial(m, p) == vp_factorial_bruteforce(m, p)


def test_digit_sum():
    assert digit_sum(0, 3) == 0
    assert digit_sum(26, 3) == 2 + 2 + 2
    assert digit_sum(8, 2) == 1


def test_nat_valuation():
    triv = NatValuation(None)
    v3 = NatValuation(3)
    assert triv(5) == T(0) and triv(0) == T_INF
    assert v3(9) == T(2) and v3(2) == T(0) and v3(0) == T_INF
    assert v3.factorial(6) == T(2)
    assert triv.factorial(6) == T(0)
    with pytest.raises(ValueError):
        NatValuation(4)


def test_is_boolean():
    assert T(0).is_boolean and T_INF.is_boolean
    assert not T(1).is_boolean


def check_semiring_axioms(count=1000):
    rng = rng_for("semiring-axioms")
    zero1, one1 = T_INF, T(0)
    zero2, one2 = T_INF, T2(0, 0)
    for _ in range(count):
        for rand, zero, one in ((rand_trop_num, zero1, one1), (rand_trop2, zero2, one2)):
            a, b, c = rand(rng), rand(rng), rand(rng)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + a == a
            assert a + zero == a
            assert a * one == a
            assert a * zero == zero


def check_partial_order(count=1000):
    """a precedes b iff a + b == b; on finite elements this reverses lex-<=."""
    rng = rng_for("partial-order")
    for _ in range(count):
        a, b = rand_trop2(rng), rand_trop2(rng)
        assert a.precedes(b) == (a + b == b)
        if not a.is_inf and not b.is_inf:
            assert a.precedes(b) == (b.value <= a.value)
        assert T_INF.precedes(a)


def check_vanishing_definitions_agree(count=1000):
    rng = rng_for("vanishing-agree")
    for _ in range(count):
        n = rng.randint(0, 6)
        kind = rng.random()
        if kind < 0.45:
            addends = [rand_trop_num(rng, inf_prob=0.35) for _ in range(n)]
        else:
            addends = [rand_trop2(rng, inf_prob=0.35) for _ in range(n)]
        # force ties in a third of the cases so both outcomes are exercised
        if n >= 2 and kind > 0.66:
            addends[rng.randrange(n)] = addends[rng.randrange(n)]
        rep = tropically_vanishes(addends)
        assert rep.vanishes == vanishes_by_removal(addends)


def test_semiring_axioms():
    check_semiring_axioms()


def test_partial_order():
    check_partial_order()


def test_vanishing_definitions_agree():
    check_vanishing_definitions_agree()
