"""Textual front-end for differential polynomials.

Grammar (the normative expression format of all system files):

    expr   := term (("+" | "-") term)*
    term   := factor ("*" factor)*
    factor := atom ("^" integer)?
    atom   := rational | "zeta" | "t" | var | "(" expr ")"
    var    := "x" index? deriv          (index = digits; x means x1)
    deriv  := "'"* | "^(" digits ")"
    rational := digits ("/" digits)?
    digits := [0-9]+                    (ASCII, as are the letters of names)

There is no implicit multiplication.  The parser additionally accepts a
leading "-" before the first term of an expr for hand-written input; the
printer never emits it (a leading negative term prints as "0 - ...").
Derivatives print as primes up to order 3 and as "^(j)" beyond.  Rationals
are read in full up to MAX_DIGITS digits; exponents and derivative orders
have at most MAX_EXPONENT_DIGITS digits; parentheses nest at most
MAX_NESTING deep; a power n of a sum of k >= 2 terms, which has up to
C(n + k - 1, k - 1) monomials, is refused when that bound exceeds
MAX_POWER_TERMS.  A product, written with "*" or taken inside a power, of
operands with a and b (monomial, t-degree) terms takes up to a * b products
of field elements, and is refused when a * b exceeds MAX_POWER_TERMS^2, or
when a * b times the summed bit lengths of the operands' largest numerators
or denominators exceeds MAX_PRODUCT_BITS, or when those two bit lengths sum
to more than MAX_LITERAL_BITS, the bits of the longest literal read.
Numbers are read, and field elements printed, on the integers.
"""

from __future__ import annotations

import re
from math import comb, floor, log2
from typing import Iterable, Union

from .diffpoly import CONSTANT_MONOMIAL, DiffPoly, ExponentMatrix, Poly
from .errors import PolySyntaxError, UnknownVariable, ZetaUnavailable
from .fields import FieldBackend, FieldElem, ResidueElem, dot, power
from .semiring import (MAX_DIGITS, T_ZERO, T2_ZERO, TRIVIAL_NAT_VAL, NatValuation, TropNum,
                       format_ratio, parse_ratio)
from .series import PowerSeries

MAX_NESTING = 200  # parenthesis depth, well inside the interpreter's recursion limit
MAX_EXPONENT_DIGITS = 1000  # inside the interpreter's int/str digit limit
# Monomials in a power of a sum, and the square root of the term pairs one
# product may multiply.  Repeated squaring multiplies every pair of terms, so
# (x + 1)^499, with 500 monomials, parses in about 2 s, (x + 1)^999 in 10 s.
MAX_POWER_TERMS = 500
# Term pairs of one product times its operands' largest coefficient bits:
# (x + 1)^499 reaches 3.1 * 10^7, (x + a 100-digit literal)^64 1.8 * 10^8.
MAX_PRODUCT_BITS = 2 ** 26
# One product's summed operand bits: at most a MAX_DIGITS-digit literal's, so
# a power of one literal, such as 7^16000000, is refused while still cheap.
MAX_LITERAL_BITS = floor(MAX_DIGITS * log2(10)) + 1  # (10^MAX_DIGITS - 1).bit_length()

# ASCII digits, a name, a symbol, or any other non-blank character (refused);
# `finditer` steps over each blank in constant time.
_TOKEN = re.compile(r"([0-9]+)|([A-Za-z]+[0-9]*)|([-+*^()'/])|(\S)")

# A value: monomial -> {t-degree in the window: nonzero coefficient}, no {} inside.
Terms = dict[ExponentMatrix, dict[int, FieldElem]]
Token = tuple[str, str, int]  # (kind: "num", "name", the symbol or "end"; text; position)


def _tokenize(src: str) -> list[Token]:
    tokens = []
    for m in _TOKEN.finditer(src):
        group = m.lastindex
        text, pos = m[group], m.start(group)
        if group == 4:
            raise PolySyntaxError(f"unexpected character {text!r}", pos)
        if group == 1 and len(text) > MAX_DIGITS:
            raise PolySyntaxError(f"a number of {len(text)} digits exceeds the limit of "
                                  f"{MAX_DIGITS} digits", pos)
        tokens.append((("num", "name", text)[group - 1], text, pos))
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, backend: FieldBackend, nvars: int, truncation: int):
        self.tokens = _tokenize(src)
        self.k = 0
        self.backend = backend
        self.nvars = nvars
        self.truncation = truncation
        self.one = backend.one()
        self.depth = 0  # open parentheses

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.k + ahead]  # no caller looks past the end token

    def take(self) -> Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.take()
        if tok[0] != kind:
            raise PolySyntaxError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}",
                                  tok[2])
        return tok

    def constant(self, elem: FieldElem, degree: int = 0) -> Terms:
        """The value elem * t^degree, cut at the window."""
        return {} if degree > self.truncation or elem.is_zero else \
            {CONSTANT_MONOMIAL: {degree: elem}}

    def product(self, a: Terms, b: Terms, op: Token) -> Terms:
        """a * b, refused at the operator `op` when it would multiply more
        than MAX_POWER_TERMS^2 pairs of (monomial, t-degree) terms, when its
        pairs times its operands' coefficient bits exceed MAX_PRODUCT_BITS,
        or when those bits alone exceed MAX_LITERAL_BITS; each term is one `dot`."""
        (m, a_bits), (n, b_bits) = _size(a), _size(b)
        if m * n > MAX_POWER_TERMS ** 2:
            raise PolySyntaxError(f"a product of {m} by {n} terms exceeds the limit of "
                                  f"{MAX_POWER_TERMS ** 2} term products", op[2])
        if m * n * (a_bits + b_bits) > MAX_PRODUCT_BITS:
            raise PolySyntaxError(f"a product of {m} by {n} terms of up to {a_bits} and "
                                  f"{b_bits} bits exceeds the limit of {MAX_PRODUCT_BITS} "
                                  "term-product bits", op[2])
        if a_bits + b_bits > MAX_LITERAL_BITS:
            raise PolySyntaxError(f"a product of coefficients of {a_bits} and {b_bits} bits "
                                  f"exceeds the limit of {MAX_LITERAL_BITS} bits", op[2])
        pairs: dict[tuple[ExponentMatrix, int], list] = {}
        for lam, ca in a.items():
            for mu, cb in b.items():
                nu = mu if not lam.entries else lam if not mu.entries else lam * mu
                for i, x in ca.items():
                    for j, y in cb.items():
                        if i + j <= self.truncation:
                            pairs.setdefault((nu, i + j), []).append((x, y))
        out: Terms = {}
        for (nu, k), ps in pairs.items():
            if not (c := dot(self.backend, ps)).is_zero:
                out.setdefault(nu, {})[k] = c
        return out

    def parse(self) -> DiffPoly:
        terms = self.expr_inner()
        self.expect("end")
        return DiffPoly.make(self.backend, self.nvars, self.truncation, (
            (lam, PowerSeries(self.backend, self.truncation, tuple(sorted(c.items()))))
            for lam, c in terms.items()))

    def term(self) -> Terms:
        result = self.factor()
        while self.peek()[0] == "*":
            op = self.take()
            result = self.product(result, self.factor(), op)
        return result

    def factor(self) -> Terms:
        result = self.atom()
        if self.peek()[0] == "^":
            caret = self.take()
            tok = self.take()
            if tok[0] != "num":
                raise PolySyntaxError("expected a nonnegative integer exponent",
                                      tok[2] if tok[0] != "end" else caret[2])
            n, k = _exponent(tok), len(result)
            # C(n + k - 1, k - 1) > n: a large n is refused before comb runs
            if k >= 2 and (n > MAX_POWER_TERMS or comb(n + k - 1, k - 1) > MAX_POWER_TERMS):
                raise PolySyntaxError(f"a power of a sum of {k} terms may have more than "
                                      f"{MAX_POWER_TERMS} monomials", caret[2])
            result = power(result, n, self.constant(self.one),
                           lambda a, b: self.product(a, b, caret))
        return result

    def atom(self) -> Terms:
        kind, text, pos = self.take()
        if kind == "num":
            num, den = parse_ratio(text)
            if self.peek()[0] == "/":
                self.take()
                den_tok = self.expect("num")
                den, _ = parse_ratio(den_tok[1])
                if den == 0:
                    raise PolySyntaxError("zero denominator", den_tok[2])
            return self.constant(self.backend.elem(num, den))
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise PolySyntaxError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            inner = self.expr_inner()
            self.expect(")")
            self.depth -= 1
            return inner
        if kind == "name":
            if text == "zeta":
                if self.backend.kind != "eisenstein":
                    raise ZetaUnavailable(
                        f"zeta is not defined over the {self.backend.kind} backend")
                return self.constant(self.backend.zeta())
            if text == "t":
                return self.constant(self.one, 1)
            if text.startswith("x"):
                return self.variable(text, pos)
            raise PolySyntaxError(f"unknown name {text!r}", pos)
        raise PolySyntaxError(f"unexpected {text or 'end of input'!r}", pos)

    def expr_inner(self) -> Terms:
        """A signed sum of terms, added up in one accumulator."""
        acc: Terms = {}
        negate = self.peek()[0] == "-"  # lenient leading minus
        if negate:
            self.take()
        while True:
            for lam, cs in self.term().items():
                old = acc.setdefault(lam, {})
                for k, c in cs.items():
                    c = -c if negate else c
                    old[k] = old[k] + c if k in old else c
            if self.peek()[0] not in ("+", "-"):
                return {lam: kept for lam, cs in acc.items()
                        if (kept := {k: c for k, c in cs.items() if not c.is_zero})}
            negate = self.take()[0] == "-"

    def variable(self, text: str, pos: int) -> Terms:
        index_text = text[1:]
        if index_text and not index_text.isdigit():
            raise PolySyntaxError(f"unknown name {text!r}", pos)
        digits = (index_text.lstrip("0") or "0") if index_text else "1"
        # an index with more digits than nvars is out of range and never converted
        if len(digits) > len(str(self.nvars)) or not 1 <= int(digits) <= self.nvars:
            raise UnknownVariable(
                f"variable x{digits} out of range for {self.nvars} variable(s)")
        order = 0
        if self.peek()[0] == "'":
            while self.peek()[0] == "'":
                self.take()
                order += 1
        elif self.peek()[0] == "^" and self.peek(1)[0] == "(":
            self.take()
            self.take()
            order = _exponent(self.expect("num"))
            self.expect(")")
        return {ExponentMatrix.var(int(digits) - 1, order): {0: self.one}}


def _size(f: Terms) -> tuple[int, int]:
    """f's (monomial, t-degree) term count and the bits of its largest numerator or denominator."""
    xs = [x for c in f.values() for x in c.values()]
    return len(xs), max([max(x.den, *map(abs, x.num)) for x in xs], default=0).bit_length()


def _exponent(tok: Token) -> int:
    """The integer of a power exponent or derivative order token."""
    if len(tok[1]) > MAX_EXPONENT_DIGITS:
        raise PolySyntaxError(f"an exponent of {len(tok[1])} digits exceeds the limit of "
                              f"{MAX_EXPONENT_DIGITS} digits", tok[2])
    return int(tok[1])


def parse_poly(src: str, backend: FieldBackend, nvars: int, truncation: int) -> DiffPoly:
    """Parse an expression into a normalized differential polynomial."""
    return _Parser(src, backend, nvars, truncation).parse()


def _monomial_str(lam: ExponentMatrix, nvars: int) -> str:
    parts = []
    for (i, j), e in lam.entries:
        name = "x" if nvars == 1 else f"x{i + 1}"
        if j <= 3:
            name += "'" * j
        else:
            name += f"^({j})"
        if e >= 2:
            name += f"^{e}"
        parts.append(name)
    return "*".join(parts)


def _signed_sum(terms: Iterable[tuple[int, str]]) -> str:
    """Join (sign, text) terms: "0 - " before a negative first term, then " + " or " - "."""
    pieces = []
    for pos, (sign, text) in enumerate(terms):
        if pos == 0:
            pieces.append("0 - " + text if sign < 0 else text)
        else:
            pieces.append((" - " if sign < 0 else " + ") + text)
    return "".join(pieces)


def _sum_factors(parts: list[tuple[int, list[str]]]) -> tuple[int, list[str]]:
    """A single (sign, product factors) part as it is; several as one
    parenthesized signed sum."""
    if len(parts) == 1:
        return parts[0]
    return 1, ["(" + _signed_sum((sign, "*".join(f)) for sign, f in parts) + ")"]


def _field_scalar_str(c: FieldElem) -> tuple[int, list[str]]:
    """Render a field element as (sign, product factors)."""
    return _sum_factors([_component_str(i, a, c.den) for i, a in enumerate(c.num) if a])


def _component_str(i: int, a: int, den: int) -> tuple[int, list[str]]:
    """Render the nonzero component (a/den)*zeta^i as (sign, product factors)."""
    sign = 1 if a > 0 else -1
    factors = []
    if abs(a) != den or i == 0:
        factors.append(format_ratio(abs(a), den))
    if i == 1:
        factors.append("zeta")
    elif i >= 2:
        factors.append(f"zeta^{i}")
    return sign, factors


def _series_str(s: PowerSeries) -> tuple[int, list[str]]:
    """Render a series coefficient as (sign, product factors)."""
    return _sum_factors([_monomial_series_factors(c, k) for k, c in s.terms])


def _monomial_series_factors(c: FieldElem, k: int) -> tuple[int, list[str]]:
    sign, factors = _field_scalar_str(c)
    if k >= 1:
        factors = ([] if factors == ["1"] else factors) + ["t" if k == 1 else f"t^{k}"]
    return sign, factors


def _coefficient_str(c, nat_val: NatValuation) -> tuple[int, list[str], bool]:
    """Render a coefficient as (sign, product factors, unit); a unit factor
    is left out before a monomial."""
    if isinstance(c, TropNum):
        return 1, [nat_val.to_text(c)], c in (T_ZERO, T2_ZERO)
    if isinstance(c, ResidueElem):
        sign = -1 if c.value < 0 else 1
        factors = [format_ratio(abs(c.value), c.den)]
    elif isinstance(c, FieldElem):
        sign, factors = _field_scalar_str(c)
    else:
        sign, factors = _series_str(c)
    return sign, factors, factors == ["1"]


def print_poly(f: Union[DiffPoly, Poly], nat_val: NatValuation = TRIVIAL_NAT_VAL) -> str:
    """Deterministic rendering, graded then lexicographic, highest first.

    The coefficient type picks the rendering: series and field elements
    print signed, residues as integers mod p (signed rationals over Q),
    tropical values as "(a, b)" or "a" with the tropical one left out.
    Tropical values are valuations in the unit of `nat_val` (t-exponents,
    as the Grigoriev image has, are printed with the default unit 1).
    """
    rendered = []
    for lam, c in reversed(f.terms):
        sign, factors, unit = _coefficient_str(c, nat_val)
        mono = _monomial_str(lam, f.nvars)
        if mono:
            factors = ([] if unit else factors) + [mono]
        rendered.append((sign, "*".join(factors)))
    return _signed_sum(rendered) if rendered else "0"
