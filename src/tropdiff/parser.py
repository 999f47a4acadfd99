"""Textual front-end for differential polynomials.

Grammar (the normative expression format of all system files):

    expr   := term (("+" | "-") term)*
    term   := factor ("*" factor)*
    factor := atom ("^" integer)?
    atom   := rational | "zeta" | "t" | var | "(" expr ")"
    var    := "x" index? deriv          (index = digits; x means x1)
    deriv  := "'"* | "^(" digits ")"
    rational := digits ("/" digits)?

There is no implicit multiplication.  The parser additionally accepts a
leading "-" before the first term of an expr for hand-written input; the
printer never emits it (a leading negative term prints as "0 - ...").
Derivatives print as primes up to order 3 and as "^(j)" beyond.  Rationals
are read in full up to MAX_DIGITS digits; exponents and derivative orders
have at most MAX_EXPONENT_DIGITS digits; parentheses nest at most
MAX_NESTING deep; a power n of a sum of k >= 2 terms, which has up to
C(n + k - 1, k - 1) monomials, is refused when that bound exceeds
MAX_POWER_TERMS.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Union

from .diffpoly import DiffPoly, ExponentMatrix, Poly
from .errors import PolySyntaxError, UnknownVariable, ZetaUnavailable
from .fields import FieldBackend, FieldElem, ResidueElem
from .semiring import (MAX_DIGITS, T_ZERO, T2_ZERO, TRIVIAL_NAT_VAL, NatValuation, TropNum,
                       format_rational, parse_rational)
from .series import PowerSeries

_SYMBOLS = "+-*^()'"
MAX_NESTING = 200  # parenthesis depth, well inside the interpreter's recursion limit
MAX_EXPONENT_DIGITS = 1000  # inside the interpreter's int/str digit limit
# Monomials in a power of a sum.  Repeated squaring multiplies every pair of
# terms, so the cost grows with the square of the count: (x + 1)^499, with
# 500 monomials, parses in about 2 s, (x + 1)^999 in about 10 s.
MAX_POWER_TERMS = 500


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # "num" | "name" | one of _SYMBOLS | "end"
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    k = 0
    while k < len(src):
        ch = src[k]
        if ch.isspace():
            k += 1
        elif ch.isdigit():
            start = k
            while k < len(src) and src[k].isdigit():
                k += 1
            if k - start > MAX_DIGITS:
                raise PolySyntaxError(f"a number of {k - start} digits exceeds the limit of "
                                      f"{MAX_DIGITS} digits", start)
            tokens.append(_Token("num", src[start:k], start))
        elif ch.isalpha():
            start = k
            while k < len(src) and src[k].isalpha():
                k += 1
            while k < len(src) and src[k].isdigit():
                k += 1
            tokens.append(_Token("name", src[start:k], start))
        elif ch in _SYMBOLS or ch == "/":
            tokens.append(_Token(ch, ch, k))
            k += 1
        else:
            raise PolySyntaxError(f"unexpected character {ch!r}", k)
    tokens.append(_Token("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, backend: FieldBackend, nvars: int, truncation: int):
        self.tokens = _tokenize(src)
        self.k = 0
        self.backend = backend
        self.nvars = nvars
        self.truncation = truncation
        self.depth = 0  # open parentheses

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.k + ahead, len(self.tokens) - 1)]

    def take(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.take()
        if tok.kind != kind:
            raise PolySyntaxError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                                  tok.pos)
        return tok

    def constant(self, value: Union[Fraction, FieldElem]) -> DiffPoly:
        elem = value if isinstance(value, FieldElem) else self.backend.elem(value)
        series = PowerSeries.monomial(self.backend, self.truncation, elem, 0)
        return DiffPoly.constant(self.backend, self.nvars, series)

    def parse(self) -> DiffPoly:
        result = self.expr_inner()
        self.expect("end")
        return result

    def term(self) -> DiffPoly:
        result = self.factor()
        while self.peek().kind == "*":
            self.take()
            result = result * self.factor()
        return result

    def factor(self) -> DiffPoly:
        result = self.atom()
        if self.peek().kind == "^":
            caret = self.take()
            tok = self.take()
            if tok.kind != "num":
                raise PolySyntaxError("expected a nonnegative integer exponent",
                                      tok.pos if tok.kind != "end" else caret.pos)
            n, k = _exponent(tok), len(result.terms)
            # C(n + k - 1, k - 1) > n: a large n is refused before comb runs
            if k >= 2 and (n > MAX_POWER_TERMS or comb(n + k - 1, k - 1) > MAX_POWER_TERMS):
                raise PolySyntaxError(f"a power of a sum of {k} terms may have more than "
                                      f"{MAX_POWER_TERMS} monomials", caret.pos)
            result = result ** n
        return result

    def atom(self) -> DiffPoly:
        tok = self.take()
        if tok.kind == "num":
            value = parse_rational(tok.text)
            if self.peek().kind == "/":
                self.take()
                den_tok = self.expect("num")
                den = parse_rational(den_tok.text)
                if den == 0:
                    raise PolySyntaxError("zero denominator", den_tok.pos)
                value /= den
            return self.constant(value)
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise PolySyntaxError(f"parentheses nested deeper than {MAX_NESTING}", tok.pos)
            self.depth += 1
            inner = self.expr_inner()
            self.expect(")")
            self.depth -= 1
            return inner
        if tok.kind == "name":
            if tok.text == "zeta":
                if self.backend.kind != "eisenstein":
                    raise ZetaUnavailable(
                        f"zeta is not defined over the {self.backend.kind} backend")
                return self.constant(self.backend.zeta())
            if tok.text == "t":
                series = PowerSeries.monomial(self.backend, self.truncation,
                                              self.backend.one(), 1)
                return DiffPoly.constant(self.backend, self.nvars, series)
            if tok.text.startswith("x"):
                return self.variable(tok)
            raise PolySyntaxError(f"unknown name {tok.text!r}", tok.pos)
        raise PolySyntaxError(f"unexpected {tok.text or 'end of input'!r}", tok.pos)

    def expr_inner(self) -> DiffPoly:
        if self.peek().kind == "-":  # lenient leading minus
            self.take()
            result = -self.term()
        else:
            result = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take()
            rhs = self.term()
            result = result + rhs if op.kind == "+" else result - rhs
        return result

    def variable(self, tok: _Token) -> DiffPoly:
        index_text = tok.text[1:]
        if index_text and not index_text.isdigit():
            raise PolySyntaxError(f"unknown name {tok.text!r}", tok.pos)
        digits = (index_text.lstrip("0") or "0") if index_text else "1"
        # an index with more digits than nvars is out of range and never converted
        if len(digits) > len(str(self.nvars)) or not 1 <= int(digits) <= self.nvars:
            raise UnknownVariable(
                f"variable x{digits} out of range for {self.nvars} variable(s)")
        index = int(digits)
        order = 0
        if self.peek().kind == "'":
            while self.peek().kind == "'":
                self.take()
                order += 1
        elif self.peek().kind == "^" and self.peek(1).kind == "(":
            self.take()
            self.take()
            order = _exponent(self.expect("num"))
            self.expect(")")
        return DiffPoly.var(self.backend, self.nvars, self.truncation, index - 1, order)


def _exponent(tok: _Token) -> int:
    """The integer of a power exponent or derivative order token."""
    if len(tok.text) > MAX_EXPONENT_DIGITS:
        raise PolySyntaxError(f"an exponent of {len(tok.text)} digits exceeds the limit of "
                              f"{MAX_EXPONENT_DIGITS} digits", tok.pos)
    return int(tok.text)


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


def _field_scalar_str(c: FieldElem) -> tuple[int, list[str]]:
    """Render a field element as (sign, product factors); multi-component
    Eisenstein elements come back as a single parenthesized factor."""
    nonzero = [(i, q) for i, q in enumerate(c.coeffs) if q != 0]
    if len(nonzero) > 1:
        terms = (_component_str(i, q) for i, q in nonzero)
        return 1, ["(" + _signed_sum((sign, "*".join(f)) for sign, f in terms) + ")"]
    return _component_str(*nonzero[0])


def _component_str(i: int, q: Fraction) -> tuple[int, list[str]]:
    """Render the nonzero component q*zeta^i as (sign, product factors)."""
    sign = 1 if q > 0 else -1
    factors = []
    if abs(q) != 1 or i == 0:
        factors.append(format_rational(abs(q)))
    if i == 1:
        factors.append("zeta")
    elif i >= 2:
        factors.append(f"zeta^{i}")
    return sign, factors


def _series_str(s: PowerSeries) -> tuple[int, list[str]]:
    """Render a series coefficient as (sign, product factors)."""
    if len(s.terms) > 1:
        terms = (_monomial_series_factors(c, k) for k, c in s.terms)
        return 1, ["(" + _signed_sum((sign, "*".join(f)) for sign, f in terms) + ")"]
    k, c = s.terms[0]
    return _monomial_series_factors(c, k)


def _monomial_series_factors(c: FieldElem, k: int) -> tuple[int, list[str]]:
    sign, factors = _field_scalar_str(c)
    if k >= 1:
        if factors == ["1"]:
            factors = []
        factors.append("t" if k == 1 else f"t^{k}")
    if not factors:
        factors = ["1"]
    return sign, factors


def _coefficient_str(c, nat_val: NatValuation) -> tuple[int, list[str], bool]:
    """Render a coefficient as (sign, product factors, unit); a unit factor
    is left out before a monomial."""
    if isinstance(c, TropNum):
        return 1, [nat_val.to_text(c)], c in (T_ZERO, T2_ZERO)
    if isinstance(c, ResidueElem):
        sign = -1 if (c.p is None and c.value < 0) else 1
        factors = [format_rational(abs(c.value)) if c.p is None else str(c)]
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
    for lam, c in sorted(f.terms, key=lambda kv: kv[0].sort_key(), reverse=True):
        sign, factors, unit = _coefficient_str(c, nat_val)
        mono = _monomial_str(lam, f.nvars)
        if mono:
            factors = ([] if unit else factors) + [mono]
        rendered.append((sign, "*".join(factors)))
    return _signed_sum(rendered) if rendered else "0"
