"""Min-plus semirings over exact rationals.

Two carrier types: TropNum (rank 1, Q u {inf}, plus = min, times = +) and
Trop2 (rank 2, Q^2 u {inf}, plus = lexicographic min, times = componentwise +).
The Boolean sub-semiring {0, inf} is TropNum restricted by `is_boolean`.
Infinity is encoded as value None and is absorbing for times, neutral for plus.
A finite value is an exact rational: an `int` where the program builds or
parses an integral value (t-exponents, valuations on Z, factorial
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


_RATIO = re.compile(r"\s*([-+]?\d+)(?:/(\d+))?\s*")


def parse_ratio(text: str) -> tuple[int, int]:
    """(num, den), den > 0 and not necessarily in lowest terms, of a rational.

    The spellings the files use, "n" and "n/d" (n signed, surrounding
    blanks allowed), are read on the integers, at any length.  Every other
    spelling that `Fraction` accepts ("1_000", "0.5", "1e3") has Fraction's
    value; "1/0" and what Fraction refuses raise ValueError.
    """
    m = _RATIO.fullmatch(text)
    if m is None:
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
    """Element of the tropical numbers: a rational, or infinity (None)."""

    value: Optional[Rat]

    @staticmethod
    def of(x: Rat) -> "TropNum":
        return TropNum(Fraction(x))

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
        if self.value is None or other.value is None:
            return T_INF
        return TropNum(self.value + other.value)

    def __pow__(self, n: int) -> "TropNum":
        if n < 0:
            raise ValueError("tropical powers need n >= 0")
        if n == 0:
            return T_ZERO
        if n == 1:
            return self
        if self.value is None:
            return T_INF
        return TropNum(n * self.value)

    def precedes(self, other: "TropNum") -> bool:
        """Canonical partial order: a precedes b iff a + b == b (so inf is least)."""
        return self + other == other

    def __str__(self) -> str:
        return "inf" if self.value is None else format_rational(self.value)

    def __repr__(self) -> str:
        return f"TropNum({self})"


@dataclass(frozen=True, slots=True)
class Trop2:
    """Element of the rank-2 tropical numbers: a pair of rationals, or infinity."""

    value: Optional[tuple[Rat, Rat]]

    @staticmethod
    def of(a: Rat, b: Rat) -> "Trop2":
        return Trop2((Fraction(a), Fraction(b)))

    @property
    def is_inf(self) -> bool:
        return self.value is None

    def __add__(self, other: "Trop2") -> "Trop2":
        if self.value is None:
            return other
        if other.value is None:
            return self
        return self if self.value <= other.value else other

    def __mul__(self, other: "Trop2") -> "Trop2":
        if self.value is None or other.value is None:
            return T2_INF
        return Trop2((self.value[0] + other.value[0], self.value[1] + other.value[1]))

    def __pow__(self, n: int) -> "Trop2":
        if n < 0:
            raise ValueError("tropical powers need n >= 0")
        if n == 0:
            return T2_ZERO
        if n == 1:
            return self
        if self.value is None:
            return T2_INF
        return Trop2((n * self.value[0], n * self.value[1]))

    def precedes(self, other: "Trop2") -> bool:
        return self + other == other

    def __str__(self) -> str:
        if self.value is None:
            return "inf"
        return f"({format_rational(self.value[0])}, {format_rational(self.value[1])})"

    def __repr__(self) -> str:
        return f"Trop2({self})"


T_INF = TropNum(None)
T_ZERO = TropNum(0)  # multiplicative identity of T
T2_INF = Trop2(None)
T2_ZERO = Trop2((0, 0))

TropElem = Union[TropNum, Trop2]


def trop_sum(addends: Iterable[TropElem], inf: TropElem | None = None) -> TropElem:
    """Tropical sum of a finite sequence; the empty sum is infinity.

    `inf` picks the semiring when the sequence may be empty; it defaults to
    the rank-2 infinity.
    """
    total: TropElem | None = None
    for a in addends:
        total = a if total is None else total + a
    if total is None:
        return inf if inf is not None else T2_INF
    return total


@dataclass(frozen=True, slots=True)
class VanishReport:
    """Outcome of a tropical-vanishing test on a finite sequence of addends."""

    vanishes: bool
    total: TropElem
    attainment: tuple[int, ...]


def tropically_vanishes(addends: Sequence[TropElem], inf: TropElem | None = None) -> VanishReport:
    """Check whether a finite tropical sum vanishes.

    The sum vanishes iff it is infinity, or the minimum is attained by at
    least two addends; this is equivalent to removal-stability (dropping any
    one addend leaves the sum unchanged).
    """
    total = trop_sum(addends, inf=inf)
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


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
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
