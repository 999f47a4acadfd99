"""Min-plus semirings over exact rationals.

One carrier type, TropNum, holds both semirings: T (rank 1, Q u {inf},
plus = min, times = +), whose values are rationals, and T_2 (rank 2,
Q^2 u {inf}, plus = lexicographic min, times = componentwise +), whose
values are pairs.  Infinity, the value None, is the one zero of both: it is
absorbing for times and neutral for plus.  `Trop2` is the rank-2 name of the
same class.  The Boolean sub-semiring {0, inf} is TropNum restricted by
`is_boolean`.  A finite rational is exact: an `int` where the program builds
or parses an integral value (t-exponents, valuations on Z, factorial
corrections, integers in candidate files), a `Fraction` otherwise, never a
float.  The two compare and hash equal, so a value's type never changes an
answer.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import ZeroInput

Rat = Union[int, Fraction]

# Characters of one number in an input.  solve-linear passes the interpreter's
# 4300-digit int/str limit within a few thousand steps; this bounds the work of
# reading one number instead (about 1 s for 10^6 digits on CPython 3.11).
MAX_DIGITS = 10**6


_RATIO = re.compile(r"\s*([-+]?\d+)(?:/(\d+))?\s*")
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")  # as Fraction reads it


def parse_ratio(text: str) -> tuple[int, int]:
    """(num, den), den > 0 and not necessarily in lowest terms, of a rational.

    The spellings the files use, "n" and "n/d" (n signed, surrounding
    blanks allowed), are read on the integers, at any length.  Every other
    spelling that `Fraction` accepts ("1_000", "0.5", "1e3") has Fraction's
    value; "1/0", a decimal exponent above MAX_DIGITS in magnitude and what
    Fraction refuses raise ValueError.
    """
    m = _RATIO.fullmatch(text)
    if m is None:
        e = _EXPONENT.search(text)
        if e and abs(int(e[1])) > MAX_DIGITS:
            raise ValueError(f"the exponent of {text!r} exceeds the limit of {MAX_DIGITS}")
        try:
            q = Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
        return q.numerator, q.denominator
    den = _digits_int(m[2]) if m[2] else 1
    if not den:
        raise ValueError(f"zero denominator in {text!r}")
    return _digits_int(m[1]), den


def parse_rational(text: str) -> Fraction:
    """The rational spelled by `text`, read by `parse_ratio`."""
    return Fraction(*parse_ratio(text))


def format_ratio(num: int, den: int) -> str:
    """num/den (den > 0) in lowest terms, as "n" or "n/d", with one gcd; any size."""
    g = math.gcd(num, den)
    if g != 1:
        num, den = num // g, den // g
    return _int_str(num) if den == 1 else f"{_int_str(num)}/{_int_str(den)}"


def format_rational(q: Rat) -> str:
    q = Fraction(q)
    return format_ratio(q.numerator, q.denominator)


# The interpreter's int/str digit limit (0: none), never set below
# _FREE_DIGITS; interpreters before 3.10.7 and 3.11 have no limit.
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
_FREE_DIGITS = getattr(sys.int_info, "str_digits_check_threshold", 0)


def _digits_int(s: str) -> int:
    """int(s) for a signed decimal digit string of any length.

    Past the interpreter's int/str digit limit, the string is split in
    halves, converted separately and joined by one product.
    """
    if len(s) <= _FREE_DIGITS:
        return int(s)
    limit = _max_str_digits()
    if not limit or len(s) < limit:
        return int(s)
    if s[0] in "+-":
        n = _digits_int(s[1:])
        return -n if s[0] == "-" else n
    k = len(s) // 2
    return _digits_int(s[:-k]) * 10**k + _digits_int(s[-k:])


def _int_str(n: int) -> str:
    """str(n) at any size.

    A number of b bits has at most b*log10(2) + 1 < 0.302*b + 1 digits, so
    one of at most 3 * limit bits is within the interpreter's int/str digit
    limit.  Past that, |n| is split at 10^k with k = 3/20 of its bits, about
    half its digits.
    """
    bits = n.bit_length()
    if bits <= 3 * _FREE_DIGITS:
        return str(n)
    limit = _max_str_digits()
    if not limit or bits <= 3 * limit:
        return str(n)
    k = bits * 3 // 20
    hi, lo = divmod(abs(n), 10**k)
    return ("-" if n < 0 else "") + _int_str(hi) + _int_str(lo).rjust(k, "0")


@dataclass(frozen=True, slots=True)
class TropNum:
    """Element of T or T_2: a rational (rank 1), a pair of rationals (rank 2),
    or infinity (None), which belongs to both.

    Pairs compare lexicographically, as tuples do.  Ranks never mix: `+` or
    `*` of a rank-1 and a rank-2 value raises TypeError.
    """

    value: Union[None, Rat, tuple[Rat, Rat]]

    @staticmethod
    def of(a: Rat, b: Optional[Rat] = None) -> "TropNum":
        """The rank-1 value a, or the rank-2 value (a, b)."""
        return TropNum(Fraction(a) if b is None else (Fraction(a), Fraction(b)))

    @staticmethod
    def parse(text: str) -> "TropNum":
        text = text.strip()
        if text in ("inf", "+inf", "infinity"):
            return T_INF
        q = parse_rational(text)
        return TropNum(q.numerator if q.denominator == 1 else q)

    @property
    def is_inf(self) -> bool:
        return self.value is None

    @property
    def is_boolean(self) -> bool:
        return self.value is None or self.value == 0

    def __add__(self, other: "TropNum") -> "TropNum":
        if self.value is None:
            return other
        if other.value is None:
            return self
        return self if self.value <= other.value else other

    def __mul__(self, other: "TropNum") -> "TropNum":
        a, b = self.value, other.value
        if a is None or b is None:
            return T_INF
        if a.__class__ is tuple:
            return TropNum((a[0] + b[0], a[1] + b[1]))
        return TropNum(a + b)

    def __pow__(self, n: int) -> "TropNum":
        """The n-fold product; infinity has no rank, so inf ** 0 is the rank-1 T_ZERO."""
        if n < 0:
            raise ValueError("tropical powers need n >= 0")
        v = self.value
        if n == 1 or (v is None and n):
            return self
        if v.__class__ is tuple:
            return TropNum((n * v[0], n * v[1]))
        return T_ZERO if v is None else TropNum(n * v)

    def precedes(self, other: "TropNum") -> bool:
        """Canonical partial order: a precedes b iff a + b == b (so inf is least)."""
        return self + other == other

    def __str__(self) -> str:
        v = self.value
        if v is None:
            return "inf"
        if v.__class__ is tuple:
            return f"({format_rational(v[0])}, {format_rational(v[1])})"
        return format_rational(v)

    def __repr__(self) -> str:
        return f"TropNum({self})"


# The rank-2 name, bound to the one class: the benchmark's tracer patches
# methods by (class name, method) and still names Trop2.
Trop2 = TropNum

T_INF = TropNum(None)
T_ZERO = TropNum(0)  # multiplicative identity of T
T2_ZERO = TropNum((0, 0))  # multiplicative identity of T_2


def trop_sum(addends: Iterable[TropNum]) -> TropNum:
    """Tropical sum of a finite sequence; the empty sum is infinity."""
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
    """Check whether a finite tropical sum vanishes.

    The sum vanishes iff it is infinity, or the minimum is attained by at
    least two addends; this is equivalent to removal-stability (dropping any
    one addend leaves the sum unchanged).
    """
    total = trop_sum(addends)
    attainment = tuple(k for k, a in enumerate(addends) if a == total)
    vanishes = total.is_inf or len(attainment) >= 2
    return VanishReport(vanishes, total, attainment)


def v_p(n: int, p: int) -> int:
    """Exact exponent of the prime p in the nonzero integer n."""
    if n == 0:
        raise ZeroInput("v_p(0) is infinite; handle zero at the call site")
    n = abs(n)
    count = 0
    while n % p == 0:
        n //= p
        count += 1
    return count


def digit_sum(m: int, p: int) -> int:
    total = 0
    while m:
        m, r = divmod(m, p)
        total += r
    return total


def v_p_factorial(m: int, p: int) -> int:
    """v_p(m!) by Legendre's closed form (m - digit_sum_p(m)) / (p - 1)."""
    if m < 0:
        raise ValueError("factorial valuation needs m >= 0")
    return (m - digit_sum(m, p)) // (p - 1)


# Every odd composite below _MR_LIMIT is a Miller-Rabin witness to one of
# the 13 primes 2..41 (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below _MR_LIMIT (about 3.3 * 10^24)."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality is decided below {_MR_LIMIT} only, not for {n}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


@dataclass(frozen=True, slots=True)
class NatValuation:
    """Valuation on the naturals selecting a tropical differential d_v.

    p = None is the trivial mode (every positive natural maps to 0); a prime
    p gives the p-adic mode n -> v_p(n). Zero maps to infinity.
    """

    p: Optional[int] = None

    def __post_init__(self):
        if self.p is not None and not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def __call__(self, n: int) -> TropNum:
        if n == 0:
            return T_INF
        if self.p is None:
            return T_ZERO
        return TropNum(v_p(n, self.p))

    def factorial(self, m: int) -> TropNum:
        """Valuation of m! (zero in trivial mode)."""
        if self.p is None:
            return T_ZERO
        return TropNum(v_p_factorial(m, self.p))


TRIVIAL_NAT_VAL = NatValuation(None)
