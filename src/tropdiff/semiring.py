"""Min-plus semirings over exact rationals, and the valuation unit 1/e.

One carrier type, TropNum, holds both semirings: T (rank 1, Q u {inf},
plus = min, times = +), whose values are rationals, and T_2 (rank 2,
Q^2 u {inf}, plus = lexicographic min, times = componentwise +), whose
values are pairs.  Infinity, the value None, is the one zero of both: it is
absorbing for times and neutral for plus.  `Trop2` is the rank-2 name of the
same class.  The Boolean sub-semiring {0, inf} is TropNum restricted by
`is_boolean`.  A finite rational is exact: an `int` where the program builds
or parses an integral value, a `Fraction` otherwise, never a float.  The two
compare and hash equal, so a value's type never changes an answer.  The
kernel (`diffpoly`, `TropSeries.leading`) computes on these raw values;
a TropNum is built for reports, series, files and printing.

TropNum itself has no unit.  Every valuation the program computes is held
as a count of the field's unit 1/e, where (1/e)Z is the value group: e = 1
on Q (trivial or p-adic), e = p - 1 on Q(zeta).  Valuations of field
elements, tropical series coefficients and the second coordinate of rank-2
values are therefore plain ints; a value outside (1/e)Z, which only an
input file can give, stays a `Fraction` in the same unit.  t-exponents
(the first coordinate of rank-2 values) are not scaled.  The unit rides on
`NatValuation`, and its methods are the one boundary: `from_text` reads
the text of a rational straight into units, `to_text` writes a value in
units as that text, and `to_units` scales a value held as rationals (a
radius rule's).  `TropNum.parse` and `str` are the unit-1 reader and writer.
"""

from __future__ import annotations

import decimal
import functools
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

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
    return format_ratio(q.numerator, q.denominator)


# The interpreter's int/str digit limit (0: none), never set below
# _FREE_DIGITS; interpreters before 3.10.7 and 3.11 have no limit.
max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
_FREE_DIGITS = getattr(sys.int_info, "str_digits_check_threshold", 0)


def _digits_int(s: str) -> int:
    """int(s) for a signed decimal digit string of any length.

    Past the interpreter's int/str digit limit, the string is split in
    halves, converted separately and joined by one product.
    """
    if len(s) <= _FREE_DIGITS:
        return int(s)
    limit = max_str_digits()
    if not limit or len(s) < limit:
        return int(s)
    if s[0] in "+-":
        n = _digits_int(s[1:])
        return -n if s[0] == "-" else n
    k = len(s) // 2
    return _digits_int(s[:-k]) * 10**k + _digits_int(s[-k:])


def _int_str(n: int) -> str:
    """str(n) at any size, in subquadratic time.

    A number of b bits has at most b*log10(2) + 1 < 0.302*b + 1 digits, so
    one of at most 3 * limit bits is within the interpreter's int/str digit
    limit.  Past that, n is built as a `Decimal` from halves of its bits and
    printed, as CPython 3.12's `_pylong` does: libmpdec multiplies fast.
    """
    bits = n.bit_length()
    limit = bits > 3 * _FREE_DIGITS and max_str_digits()
    if not limit or bits <= 3 * limit:
        return str(n)
    power = functools.cache(lambda w: decimal.Decimal(2) ** w)

    def build(m: int, w: int) -> decimal.Decimal:  # 0 <= m < 2^w
        if w <= 128:
            return decimal.Decimal(m)
        half = w >> 1
        hi = m >> half
        return build(m - (hi << half), half) + build(hi, w - half) * power(half)

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = decimal.MAX_PREC, decimal.MAX_EMAX, decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        return ("-" if n < 0 else "") + str(build(abs(n), bits))


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
        """The value `text` spells: `NatValuation.from_text` at unit 1."""
        return TRIVIAL_NAT_VAL.from_text(text)

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
        """`NatValuation.to_text` at unit 1."""
        return TRIVIAL_NAT_VAL.to_text(self)

    def __repr__(self) -> str:
        return f"TropNum({self})"


# The rank-2 name, bound to the one class: the benchmark's tracer patches
# methods by (class name, method) and still names Trop2.
Trop2 = TropNum

T_INF = TropNum(None)
T_ZERO = TropNum(0)  # multiplicative identity of T
T2_ZERO = TropNum((0, 0))  # multiplicative identity of T_2


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
    """Deterministic Miller-Rabin, exact below _MR_LIMIT (about 3.3 * 10^24);
    anything but an int (a bool, a float) raises ValueError."""
    if n.__class__ is not int:
        raise ValueError(f"a prime must be an integer, not {n!r}")
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
    """Valuation on the naturals selecting a tropical differential d_v, in units of 1/e.

    p = None is the trivial mode (every positive natural maps to 0); a prime
    p gives the p-adic mode n -> e*v_p(n), the valuation of n in a field
    with value group (1/e)Z, counted in units of 1/e.  Zero maps to infinity.
    """

    p: Optional[int] = None
    e: int = 1

    def __post_init__(self):
        if self.p is not None and not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.e < 1 or (self.p is None and self.e != 1):
            raise ValueError(f"no valuation in units of 1/{self.e} for p = {self.p}")

    def __call__(self, n: int) -> TropNum:
        if n == 0:
            return T_INF
        if self.p is None:
            return T_ZERO
        return TropNum(self.e * v_p(n, self.p))

    def factorials(self, n: int) -> list[int]:
        """v(0!), ..., v(n!) in units of 1/e, all 0 in trivial mode; [] for n = -1."""
        return [0 if self.p is None else self.e * v_p_factorial(m, self.p) for m in range(n + 1)]

    def to_units(self, w: TropNum) -> TropNum:
        """A value read as rationals, in units of 1/e: a rank-1 value and the
        second coordinate of a rank-2 value are multiplied by e, an int
        where the product is integral."""
        v = w.value
        if v is None or self.e == 1:
            return w
        if v.__class__ is tuple:
            return TropNum((v[0], _times(v[1].numerator, v[1].denominator, self.e)))
        return TropNum(_times(v.numerator, v.denominator, self.e))

    def from_text(self, text: str) -> TropNum:
        """The value spelled by `text`, "inf" or a rational read by `parse_ratio`,
        in units of 1/e: an int where integral, computed on the integers."""
        text = text.strip()
        if text in ("inf", "+inf", "infinity"):
            return T_INF
        return TropNum(_times(*parse_ratio(text), self.e))

    def to_text(self, w: TropNum) -> str:
        """The text of a value in units of 1/e, as `str` writes the rational
        value it stands for: "inf", "q" or "(a, q)"."""
        v = w.value
        if v is None:
            return "inf"
        if v.__class__ is tuple:
            return f"({format_rational(v[0])}, {self.to_text(TropNum(v[1]))})"
        return format_ratio(v.numerator, v.denominator * self.e)


def _times(num: int, den: int, e: int) -> Rat:
    """(num / den) * e for den > 0, an int when integral, computed on the integers."""
    num *= e
    return num // den if num % den == 0 else Fraction(num, den)


TRIVIAL_NAT_VAL = NatValuation(None)
