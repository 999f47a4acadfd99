"""Exact coefficient fields with a valuation, uniformizer section and residue field.

Three backends:

* ``trivial``     -- Q with the trivial valuation (value group {0});
* ``padic``       -- Q with the p-adic valuation, uniformizer p;
* ``eisenstein``  -- Q(zeta), zeta^(p-1) = -p, totally ramified of index
  e = p - 1, uniformizer zeta, residue field F_p.

An element stands for sum c_i zeta^i (degree-1 backends: the rational c_0),
reduced by zeta^(p-1) = -p.  It is stored as integer numerators over one
positive common denominator, c_i = num[i] / den, in canonical form:
gcd(den, *num) == 1, and zero is (0, ..., 0) over 1.  Equal values therefore
have equal fields, which `==` and `hash` rely on.  Every operation works on
the integers and normalizes once with a single multi-argument gcd; the
rational coefficients are derived on demand by `FieldElem.coeffs`.  For
p = 2 the vector has length one and zeta is the rational -2.

`*` is the one schoolbook product, `_product`: d^2 integer products, each
folded by zeta^(p-1) = -p as it lands.  `dot`, the sum of products that
series convolutions use, normalizes the whole sum once.  A one-pair sum is
that product; degree-1 sums run on plain ints; otherwise the sum is packed
(Kronecker substitution): both factors of every pair are evaluated at
X = 2^B, or read from their memo, one big-integer product per pair does the
d^2 coefficient products, the scaled products are added into one integer,
and the 2d - 1 unfolded coefficients are read back as balanced base-2^B
digits and folded once.  B bounds every unfolded coefficient strictly below
2^(B-1); the bound and its proof are in `dot`'s docstring.  Because zero has
one form, `+` and scaling by an `int` return an operand unchanged when one
side is zero, without touching the integers; `-` is `+` of the negation.

Scaling by a nonzero `int` k stays on the integers as well.  `x * k`
divides out gcd(den, k) alone, which canonical form makes the whole common
factor; `x / k` divides out gcd(k, *num) and moves the sign of k to the
numerators, so den stays positive; `x / 0` raises ZeroDivisionError.

Valuations are exact ints in units of 1/e, the generator of the value
group (1/e)Z: `valuation()` of sum c_i zeta^i is min(e*v_p(c_i) + i), read
off the integer numerators, with no rational arithmetic.  The backend's
`nat_val` carries e; its `to_units` and `to_text` convert at the program's
edges (see `semiring`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import NegativeValuation, NonIntegralExponent, ZeroInput
from .semiring import (
    NatValuation,
    Rat,
    TRIVIAL_NAT_VAL,
    T_INF,
    T_ZERO,
    TropNum,
    format_ratio,
    is_prime,
    v_p,
)


@dataclass(frozen=True, slots=True)
class FieldBackend:
    """Tag selecting one of the three coefficient-field implementations."""

    kind: str  # "trivial" | "padic" | "eisenstein"
    p: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("trivial", "padic", "eisenstein"):
            raise ValueError(f"unknown field backend {self.kind!r}")
        if self.kind == "trivial":
            if self.p is not None:
                raise ValueError("the trivial backend takes no prime")
        elif self.p is None or not is_prime(self.p):
            raise ValueError(f"backend {self.kind!r} needs a prime, got {self.p!r}")

    @property
    def degree(self) -> int:
        return self.p - 1 if self.kind == "eisenstein" else 1

    @property
    def ramification(self) -> int:
        """Index e of the value group (1/e)Z; 1 for the unramified backends."""
        return self.p - 1 if self.kind == "eisenstein" else 1

    @property
    def nat_val(self) -> NatValuation:
        """The valuation on N matching this field's tropical differential, in
        units of 1/e."""
        if self.kind == "trivial":
            return TRIVIAL_NAT_VAL
        return NatValuation(self.p, self.ramification)

    def elem(self, x: Rat, den: int = 1) -> "FieldElem":
        """The rational x / den (den > 0), normalized once on the integers."""
        return _normal(self, (x.numerator,) + (0,) * (self.degree - 1), x.denominator * den)

    def zero(self) -> "FieldElem":
        return self.elem(0)

    def one(self) -> "FieldElem":
        return self.elem(1)

    def zeta(self) -> "FieldElem":
        if self.kind != "eisenstein":
            raise ValueError("zeta only exists over an Eisenstein backend")
        if self.degree == 1:  # p = 2: zeta^1 = -2 already lies in Q
            return self.elem(-self.p)
        return _normal(self, (0, 1) + (0,) * (self.degree - 2), 1)

    def uniformizer_pow(self, k: int) -> "FieldElem":
        """pi^k for the backend uniformizer pi; k may be negative."""
        if self.kind == "trivial":
            if k != 0:
                raise NonIntegralExponent("the trivial backend has no uniformizer")
            return self.one()
        if self.kind == "padic":
            return self.elem(self.p ** k) if k >= 0 else self.elem(1, self.p ** -k)
        # zeta^k = (-p)^q * zeta^r with k = q*(p-1) + r, 0 <= r < p-1
        q, r = divmod(k, self.p - 1)
        num = [0] * self.degree
        num[r] = (-self.p) ** q if q >= 0 else (-1) ** -q
        return _normal(self, tuple(num), 1 if q >= 0 else self.p ** -q)

    def from_coeffs(self, coeffs) -> "FieldElem":
        return self.from_ratios((c.numerator, c.denominator) for c in map(Fraction, coeffs))

    def from_ratios(self, ratios: Iterable[tuple[int, int]]) -> "FieldElem":
        """sum (n_i / d_i) zeta^i from integer pairs (n_i, d_i), d_i > 0, not
        necessarily in lowest terms: one lcm and one normalization."""
        ratios = tuple(ratios)
        if len(ratios) != self.degree:
            raise ValueError(f"expected {self.degree} coefficients, got {len(ratios)}")
        den = math.lcm(*(d for _, d in ratios))
        return _normal(self, tuple(n * (den // d) for n, d in ratios), den)

    def describe(self) -> str:
        if self.kind == "trivial":
            return "Q (trivial valuation)"
        if self.kind == "padic":
            return f"Q ({self.p}-adic valuation)"
        return f"Q(zeta), zeta^{self.p - 1} = -{self.p} ({self.p}-adic valuation)"


@dataclass(frozen=True, slots=True)
class FieldElem:
    """Exact element of a valued-field backend: num[i] / den is the coefficient of zeta^i.

    Build elements through the backend (`elem`, `from_coeffs`, `zeta`) or
    arithmetic, which keep the canonical form described in the module
    docstring; the fields are never set directly.
    """

    backend: FieldBackend
    num: tuple[int, ...]
    den: int
    # `dot`'s memo (bit length, width, packed num), unset until used; outside the value.
    _pack: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __reduce__(self):  # copies and pickles leave the memo behind
        return FieldElem, (self.backend, self.num, self.den)

    def _num_bits(self) -> int:
        """Bit length of the largest numerator, memoized in `_pack`."""
        if not hasattr(self, "_pack"):
            object.__setattr__(self, "_pack", (max(map(int.bit_length, self.num)), 0, 0))
        return self._pack[0]

    def _packed(self, width: int) -> int:
        """num evaluated at 2^width by Horner's rule, memoized in `_pack` per width."""
        n, w, packed = self._pack
        if w != width:
            packed = 0
            for c in reversed(self.num):
                packed = (packed << width) + c
            object.__setattr__(self, "_pack", (n, width, packed))
        return packed

    def _check(self, other: "FieldElem"):
        if self.backend is not other.backend and self.backend != other.backend:
            raise ValueError("mixed field backends")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients num[i] / den."""
        return tuple(Fraction(a, self.den) for a in self.num)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def __add__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        if not any(other.num):
            return self
        if not any(self.num):
            return other
        da, db = self.den, other.den
        if da == db:
            return _normal(self.backend, tuple(map(operator.add, self.num, other.num)), da)
        g = math.gcd(da, db)
        sa, sb = db // g, da // g
        num = [a * sa + b * sb for a, b in zip(self.num, other.num)]
        return _normal(self.backend, tuple(num), da * sa)

    def __sub__(self, other: "FieldElem") -> "FieldElem":
        return self + -other

    def __neg__(self) -> "FieldElem":
        # negation keeps gcd(den, *num) == 1, so the result is already canonical
        return FieldElem(self.backend, tuple(map(operator.neg, self.num)), self.den)

    def __mul__(self, other: Union["FieldElem", int]) -> "FieldElem":
        """Field product; an int factor scales the numerators directly."""
        if isinstance(other, int):
            if not any(self.num):
                return self
            if not other:
                return FieldElem(self.backend, (0,) * len(self.num), 1)
            # gcd(den, *num) == 1, so gcd(den, k) is the whole common factor
            g = math.gcd(self.den, other)
            if g != 1:
                other //= g
            return FieldElem(self.backend, tuple([a * other for a in self.num]), self.den // g)
        self._check(other)
        return _normal(self.backend, tuple(_product(self.backend, self.num, other.num)),
                       self.den * other.den)

    def inverse(self) -> "FieldElem":
        if self.is_zero:
            raise ZeroInput("cannot invert zero")
        d = self.backend.degree
        if d == 1:
            return self.backend.from_coeffs((Fraction(self.den, self.num[0]),))
        # Solve (self * x) = 1 by Gaussian elimination on the multiplication matrix.
        basis = []
        zeta_i = self.backend.one()
        zeta = self.backend.zeta()
        for _ in range(d):
            basis.append((self * zeta_i).coeffs)
            zeta_i = zeta_i * zeta
        rows = [[basis[j][i] for j in range(d)] + [Fraction(1 if i == 0 else 0)] for i in range(d)]
        for col in range(d):
            pivot = next(r for r in range(col, d) if rows[r][col] != 0)
            rows[col], rows[pivot] = rows[pivot], rows[col]
            inv = 1 / rows[col][col]
            rows[col] = [v * inv for v in rows[col]]
            for r in range(d):
                if r != col and rows[r][col] != 0:
                    factor = rows[r][col]
                    rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
        return self.backend.from_coeffs(rows[i][d] for i in range(d))

    def __truediv__(self, other: Union["FieldElem", int]) -> "FieldElem":
        """Field quotient; an int divisor scales the denominator directly."""
        if isinstance(other, int):
            if not other:
                raise ZeroDivisionError("division of a field element by zero")
            # gcd(den, *num) == 1, so gcd(k, *num) is the whole common factor
            g = math.gcd(other, *self.num)
            k = other // g
            num = self.num if g == 1 else tuple([a // g for a in self.num])
            if k < 0:
                k, num = -k, tuple(map(operator.neg, num))
            return FieldElem(self.backend, num, self.den * k)
        return self * other.inverse()

    def __pow__(self, n: int) -> "FieldElem":
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, self.backend.one())

    def valuation(self) -> TropNum:
        """Exact valuation, an int in units of 1/e; zero maps to infinity."""
        if self.is_zero:
            return T_INF
        b = self.backend
        if b.kind == "trivial":
            return T_ZERO
        # min over the terms c_i zeta^i of e * v_p(num[i]) + i, less e * v_p(den);
        # v_p is inlined, as each tropicalized coefficient takes one valuation
        e, p = b.ramification, b.p
        best = None
        for i, a in enumerate(self.num):
            if a:
                w = i
                while a % p == 0:
                    a //= p
                    w += e
                if best is None or w < best:
                    best = w
        den = self.den
        while den % p == 0:
            den //= p
            best -= e
        return TropNum(best)

    def __str__(self) -> str:
        den = self.den
        parts = []
        for i, a in enumerate(self.num):
            if not a:
                continue
            if i == 0:
                parts.append(format_ratio(a, den))
            else:
                power = "zeta" if i == 1 else f"zeta^{i}"
                if a == den:
                    parts.append(power)
                elif a == -den:
                    parts.append(f"-{power}")
                else:
                    parts.append(f"{format_ratio(a, den)}*{power}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"FieldElem({self})"


def power(x, n: int, one, mul=operator.mul):
    """x^n for n >= 0 by repeated squaring, in any ring with `*` or the product
    `mul`: at most 2 log2(n) products; x^1 is x itself and x^0 is `one`."""
    result = None
    while n:
        if n & 1:
            result = x if result is None else mul(result, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return one if result is None else result


def _product(backend: FieldBackend, a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Numerators of (sum a_i zeta^i) * (sum b_j zeta^j), with zeta^(p-1) = -p folded in."""
    d = backend.degree
    if d == 1:
        return [a[0] * b[0]]
    out = [0] * d
    p = backend.p
    b_support = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in b_support:
            k = i + j
            if k < d:
                out[k] += x * y
            else:  # zeta^(p-1) = -p folds the overflow back
                out[k - d] -= p * x * y
    return out


PACK_STEP = 64  # dot's Kronecker widths are multiples of this many bits


def dot(backend: FieldBackend, pairs: Iterable[tuple[FieldElem, FieldElem]]) -> FieldElem:
    """The sum of a * b over `pairs`, normalized once; the empty sum is zero.

    A single pair is its product by `_product`, as `*` computes it.  On a
    degree-1 backend the integer products are summed over a running common
    denominator.  Otherwise the sum is packed (Kronecker substitution): with
    D the lcm of the product denominators pden = a.den * b.den, every pair
    adds (D // pden) * A(X) * B(X) to one integer S, where A(X) and B(X) are
    the numerator vectors evaluated at X = 2^B, so one big-integer product
    does the d^2 coefficient products.  S is the unfolded sum evaluated at X;
    its 2d - 1 coefficients are read back as balanced base-2^B digits, and
    zeta^(p-1) = -p is folded in once.

    The digits are exact because every unfolded coefficient lies strictly
    inside (-2^(B-1), 2^(B-1)).  Let n be the number of pairs and
    B >= max_pairs(bits(max|a_i|) + bits(max|b_j|) - bits(pden))
         + bits(D) + 2 + bits(d * n).
    Coefficient k of the sum is sum over pairs of (D // pden) times at most d
    products a_i * b_j with i + j = k.  For one pair, |a_i| < 2^bits(max|a_i|),
    |b_j| likewise, and D // pden < 2^(bits(D) - bits(pden) + 1), since
    D < 2^bits(D) and pden >= 2^(bits(pden) - 1).  So each of the d * n terms
    is below 2^(B - 2 - bits(d*n) + 1), and their sum below
    2^bits(d*n) * 2^(B - 1 - bits(d*n)) = 2^(B - 1).  B is that bound rounded
    up to a multiple of PACK_STEP, so consecutive sums share a width and reuse
    each operand's memoized bit length and A(2^B).
    """
    pairs = list(pairs)
    for a, b in pairs:
        if ((a.backend is not backend or b.backend is not backend)
                and (a.backend != backend or b.backend != backend)):
            raise ValueError("mixed field backends")
    if len(pairs) == 1:
        (a, b), = pairs
        return _normal(backend, tuple(_product(backend, a.num, b.num)), a.den * b.den)
    d = backend.degree
    if d == 1:
        num, den = 0, 1
        for a, b in pairs:
            prod, pden = a.num[0] * b.num[0], a.den * b.den
            if pden != den:  # rescale the sum and the product to the lcm
                g = math.gcd(den, pden)
                sa, sb = pden // g, den // g
                if sa != 1:
                    num *= sa
                    den *= sa
                if sb != 1:
                    prod *= sb
            num += prod
        return _normal(backend, (num,), den)
    if not pairs:
        return _normal(backend, (0,) * d, 1)
    pdens = [a.den * b.den for a, b in pairs]
    den = math.lcm(*pdens)
    bits = int.bit_length
    width = (max([a._num_bits() + b._num_bits() - bits(pden)
                  for (a, b), pden in zip(pairs, pdens)])
             + bits(den) + 2 + bits(d * len(pairs)))
    width += -width % PACK_STEP
    total = 0
    for (a, b), pden in zip(pairs, pdens):
        prod = a._packed(width) * b._packed(width)
        scale = den // pden
        total += prod if scale == 1 else prod * scale
    mask, half = (1 << width) - 1, 1 << (width - 1)
    digits = []
    for _ in range(2 * d - 1):  # balanced digits, lowest first
        r = total & mask
        total >>= width
        if r >= half:
            r -= mask + 1
            total += 1
        digits.append(r)
    p = backend.p
    num = [digits[k] - p * digits[k + d] for k in range(d - 1)]
    num.append(digits[d - 1])
    return _normal(backend, tuple(num), den)


def _normal(backend: FieldBackend, num: tuple[int, ...], den: int) -> FieldElem:
    """The canonical FieldElem num / den (den > 0): one gcd divides out the common factor."""
    g = math.gcd(den, *num)
    if g != 1:
        num = tuple(a // g for a in num)
        den //= g
    return FieldElem(backend, num, den)


@dataclass(frozen=True, slots=True)
class ResidueElem:
    """Element of the residue field, on the integers: F_p (p a prime), the
    value in 0 .. p-1 over den 1, or Q (p = None), the rational value / den
    in lowest terms with den > 0."""

    p: Optional[int]
    value: int
    den: int = 1

    @staticmethod
    def of(p: Optional[int], num: int, den: int = 1) -> "ResidueElem":
        """The residue of num / den (den > 0): the rational itself over Q, its
        class mod p otherwise."""
        g = math.gcd(num, den)
        num, den = num // g, den // g
        if p is None:
            return ResidueElem(None, num, den)
        if den % p == 0:
            raise NegativeValuation(f"{format_ratio(num, den)} has no residue mod {p}")
        return ResidueElem(p, num * pow(den, -1, p) % p)

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __mul__(self, other: "ResidueElem") -> "ResidueElem":
        if self.p != other.p:
            raise ValueError("mixed residue fields")
        return ResidueElem.of(self.p, self.value * other.value, self.den * other.den)

    def __str__(self) -> str:
        return format_ratio(self.value, self.den)

    def __repr__(self) -> str:
        return f"ResidueElem({self} mod {self.p})" if self.p else f"ResidueElem({self})"


def section_phi(w: TropNum, backend: FieldBackend) -> tuple[int, FieldElem]:
    """Multiplicative section of the rank-2 valuation: (alpha, beta) -> pi^beta t^alpha,
    with beta in units of 1/e.

    Returns the pair (t-exponent, scalar); t is kept symbolic.  Raises
    NonIntegralExponent when (alpha, beta) is outside the value group.
    """
    if w.is_inf:
        raise NonIntegralExponent("phi is a section on finite weights only")
    alpha, beta = w.value
    if alpha.denominator != 1:
        raise NonIntegralExponent(f"t-exponent {alpha} is not an integer")
    if beta.denominator != 1:
        raise NonIntegralExponent(f"{backend.nat_val.to_text(TropNum(beta))} is outside "
                                  f"the value group of {backend.kind}")
    if backend.kind == "trivial" and beta != 0:
        raise NonIntegralExponent("the trivial backend has value group {0}")
    return int(alpha), backend.uniformizer_pow(int(beta))


def residue(x: FieldElem) -> ResidueElem:
    """Residue-field image of an element of nonnegative valuation."""
    b = x.backend
    if b.kind == "trivial":
        return ResidueElem(None, x.num[0], x.den)
    v = x.valuation()
    if not v.is_inf and v.value < 0:
        raise NegativeValuation(f"valuation {v} < 0 has no residue")
    # Eisenstein: terms c_i zeta^i with i >= 1 have positive valuation.
    return ResidueElem.of(b.p, x.num[0], x.den)


def angular_component(x: FieldElem) -> ResidueElem:
    """Residue of the unit part x * phi(-v(x)); multiplicative in x.

    Closed form on the integers: the index i minimising e*v_p(num[i]) + i is
    unique, since e*k + i fixes i mod e.  With num[i] = p^k u and
    den = p^b d' (u, d' prime to p), the unit part is u/d' (p/pi^e)^(k-b)
    plus terms of positive valuation; pi^e = -p over Q(zeta) and p over
    Q_p, so ac(x) = (-1)^(k-b) u/d' mod p, without the sign on Q_p.
    """
    if x.is_zero:
        raise ZeroInput("the angular component of zero is undefined")
    b = x.backend
    if b.kind == "trivial":
        return ResidueElem(None, x.num[0], x.den)
    p, e = b.p, b.ramification
    w, i = min((e * v_p(a, p) + i, i) for i, a in enumerate(x.num) if a)
    k, kb = (w - i) // e, v_p(x.den, p)
    u, d = x.num[i] // p ** k, x.den // p ** kb
    if b.kind == "eisenstein" and (k - kb) % 2:
        u = -u
    return ResidueElem(p, u * pow(d, -1, p) % p)
