"""JSON file schemas: fields, series, candidates, systems, ODEs, reports.

All exact values serialize as strings "num/den" (or "inf"); Eisenstein
elements as arrays of rational strings ["c0", "c1", ...].  A coefficient is
read from a string or a JSON number (a decimal exactly, never through a
float), in a scalar and in an array alike.  Field elements are written
from their integer numerators over the common denominator, one gcd per
coefficient, and read back into them with one lcm and one normalization,
without a `Fraction` on either side.  Numbers are written in full at any
length, past the interpreter's int/str digit limit; a number of more than
MAX_DIGITS characters in a file, string or JSON number, is refused.  Series records list only the nonzero
(classical) / finite (tropical) coefficients:

    {"truncation": N, "coeffs": [{"n": k, "val": ...}, ...]}

A system file is {"field": {...}, "vars": n, "truncation": N,
"polynomials": [expr, ...]} with expressions in the polynomial grammar; a
candidate file is {"series": [series-record, ...]} over the system's field.
Both series types share one record reader and writer.  Tropical values are
written and read as the rationals they stand for; in memory they count the
unit 1/e of the series' `nat_val`, and its `from_text` / `to_text` convert
at the record, on the integers.  A file is one JSON object; counts ("vars",
"truncation", "n", "p") are integers, and every reader refuses a truncation
below 0 or above MAX_TRUNCATION before allocating anything.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from .diffpoly import DiffPoly
from .fields import FieldBackend, FieldElem
from .parser import parse_poly, print_poly
from .semiring import MAX_DIGITS, NatValuation, format_ratio, format_rational, parse_ratio
from .series import PowerSeries, TropSeries
from .verify import LinearODE

SCHEMA_VERSION = 1
MAX_TRUNCATION = 10**5
_JSON_TYPES = {dict: "object", list: "array", str: "string"}
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,  # the scalars `_encode` joins
            bool: {True: "true", False: "false"}.get, type(None): {None: "null"}.get}


def limit_truncation(n: int) -> int:
    """n, refused above MAX_TRUNCATION."""
    if n > MAX_TRUNCATION:
        raise ValueError(f"truncation {n} exceeds the limit {MAX_TRUNCATION}")
    return n


def _read_truncation(data: dict) -> int:
    """The record's "truncation", refused below 0 and above MAX_TRUNCATION."""
    n = limit_truncation(read_count(data, "truncation"))
    if n < 0:
        raise ValueError("truncation must be a natural number")
    return n


def read_count(data: dict, key: str) -> int:
    """The integer at `key`: a JSON integer, a decimal with an integral value
    or a string spelling one; anything else is refused, naming the key."""
    value = data[key]
    if value.__class__ is int:
        return value
    if value.__class__ in (str, Fraction):
        try:
            num, den = _ratio(value)
        except ValueError:
            num, den = 0, 0
        if den and num % den == 0:
            return num // den
    raise ValueError(f"'{key}' must be an integer")


def read_prime(data: dict) -> Optional[int]:
    """The record's "p" read by `read_count`, or None when it has none."""
    return None if data.get("p") is None else read_count(data, "p")


def _expect(value, kind: type, what: str):
    """`value`, refused unless it is a `kind`: a dict, list or str."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a JSON {_JSON_TYPES[kind]}")
    return value


def field_to_dict(backend: FieldBackend) -> dict:
    out = {"kind": backend.kind}
    if backend.p is not None:
        out["p"] = backend.p
    return out


def field_from_dict(data: dict) -> FieldBackend:
    try:
        kind = _expect(_expect(data, dict, "a field record")["kind"], str, "a field's 'kind'")
        return FieldBackend(kind, read_prime(data))
    except KeyError as exc:
        raise ValueError(f"bad field record: {exc}") from exc


def elem_to_json(c: FieldElem):
    if c.backend.kind == "eisenstein":
        return [format_ratio(a, c.den) for a in c.num]
    return format_ratio(c.num[0], c.den)


def elem_from_json(value, backend: FieldBackend) -> FieldElem:
    if isinstance(value, list):
        if backend.kind != "eisenstein":
            raise ValueError("coefficient arrays are for Eisenstein backends only")
        return backend.from_ratios(map(_ratio, value))
    return backend.elem(*_ratio(value))


def _ratio(value) -> tuple[int, int]:
    """(num, den) of one rational of a file."""
    if value.__class__ in (int, Fraction):  # a JSON number, read exactly by load_json
        return value.numerator, value.denominator
    return parse_ratio(_number_text(value))


def _number_text(value) -> str:
    """A number of a file as text: a string, or a JSON number written out
    exactly; a string above MAX_DIGITS characters is refused."""
    if value.__class__ in (int, Fraction):
        return format_rational(value)
    text = value if isinstance(value, str) else str(value)
    if len(text) > MAX_DIGITS:
        raise ValueError(f"a number of {len(text)} characters exceeds the limit of "
                         f"{MAX_DIGITS} digits")
    return text


def _series_to_record(s, fmt) -> dict:
    """The record of a classical or tropical series, one entry per stored term."""
    return {"truncation": s.truncation,
            "coeffs": [{"n": k, "val": fmt(c)} for k, c in s.terms]}


def _series_from_record(data: dict, parse) -> tuple[int, list]:
    """(N, sorted (k, parse(val)) pairs) of a series record; a repeated index
    keeps its last record."""
    n = _read_truncation(_expect(data, dict, "a series record"))
    cs = {}
    for rec in _expect(data.get("coeffs", []), list, "'coeffs'"):
        k = read_count(_expect(rec, dict, "a coefficient record"), "n")
        if not 0 <= k <= n:
            raise ValueError(f"coefficient index {k} outside truncation {n}")
        cs[k] = parse(rec["val"])
    return n, sorted(cs.items())


def series_to_dict(s: PowerSeries) -> dict:
    return _series_to_record(s, elem_to_json)


def series_from_dict(data: dict, backend: FieldBackend) -> PowerSeries:
    n, terms = _series_from_record(data, lambda v: elem_from_json(v, backend))
    return PowerSeries(backend, n, tuple((k, c) for k, c in terms if not c.is_zero))


def trop_series_to_dict(s: TropSeries) -> dict:
    return _series_to_record(s, s.nat_val.to_text)


def trop_series_from_dict(data: dict, nat_val: NatValuation) -> TropSeries:
    n, terms = _series_from_record(data, lambda v: nat_val.from_text(_number_text(v)))
    return TropSeries(nat_val, n, tuple((k, c) for k, c in terms if not c.is_inf))


def candidate_to_dict(series: Sequence[TropSeries]) -> dict:
    return {"series": [trop_series_to_dict(s) for s in series]}


def candidate_from_dict(data: dict, nat_val: NatValuation) -> tuple[TropSeries, ...]:
    records = data.get("series")
    if not isinstance(records, list) or not records:
        raise ValueError("candidate file needs a nonempty 'series' list")
    out = tuple(trop_series_from_dict(rec, nat_val) for rec in records)
    if nat_val.p is None:
        # Grigoriev mode records supports only: coefficients must be Boolean
        for s in out:
            if not all(c.is_boolean for _, c in s.terms):
                raise ValueError("trivially valued systems take Boolean "
                                 "candidates (coefficients 0 or inf)")
    return out


def system_from_dict(data: dict):
    """Returns (backend, nvars, truncation, polynomials)."""
    backend = field_from_dict(data["field"])
    nvars = read_count(data, "vars")
    truncation = _read_truncation(data)
    if nvars < 1:
        raise ValueError("systems need at least one variable")
    exprs = _expect(data.get("polynomials", []), list, "'polynomials'")
    if not exprs:
        raise ValueError("system file lists no polynomials")
    polys = tuple(parse_poly(_expect(src, str, "a polynomial"), backend, nvars, truncation)
                  for src in exprs)
    return backend, nvars, truncation, polys


def system_to_dict(backend: FieldBackend, nvars: int, truncation: int,
                   polynomials: Sequence[DiffPoly]) -> dict:
    return {
        "field": field_to_dict(backend),
        "vars": nvars,
        "truncation": truncation,
        "polynomials": [print_poly(f) for f in polynomials],
    }


def ode_from_dict(data: dict) -> LinearODE:
    """Linear-ODE record: {"field": ..., "truncation": N, "g": expr|series, "c0": val}."""
    backend = field_from_dict(data["field"])
    truncation = _read_truncation(data)
    g_data = data["g"]
    if isinstance(g_data, str):
        g_poly = parse_poly(g_data, backend, 1, max(truncation - 1, 0))
        if any(not lam.is_constant for lam, _ in g_poly.terms):
            raise ValueError("the right-hand side g must not involve x")
        g = g_poly.terms[0][1] if g_poly.terms else PowerSeries.zero(backend, g_poly.truncation)
    else:
        g = series_from_dict(g_data, backend)
    c0 = elem_from_json(data["c0"], backend)
    return LinearODE(g, c0, truncation)


def dump_json(data, path: Optional[str]) -> "Encoded":
    """Canonical serialization, json.dumps(data, indent=2, sort_keys=True), encoded
    in full and returned; written with a newline in one call when `path` is set."""
    out: list[str] = []
    _encode(data, "\n", out)
    text = Encoded("".join(out))
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


class Encoded(str):
    """Text of `dump_json`, which `_encode` writes as it is, re-indented."""


def _encode(value, newline: str, out: list[str]):
    """Append json.dumps(value, indent=2, sort_keys=True) to `out`; `newline` is
    the line break and indentation before it.  Dicts, lists, tuples, str, int,
    bool, None and `Encoded` text are written here, a list of _SCALARS with one
    join; json.dumps writes, or refuses, the rest."""
    scalar = _SCALARS.get(value.__class__)
    if scalar is not None:
        out.append(scalar(value))
    elif value.__class__ is Encoded:
        out.append(value.replace("\n", newline))
    elif isinstance(value, dict):
        inner, sep = newline + "  ", "{"
        for key in sorted(value):  # a key but str raises TypeError in the escaper
            out += (sep, inner, encode_basestring_ascii(key), ": ")
            _encode(value[key], inner, out)
            sep = ","
        out.append(newline + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        inner, sep = newline + "  ", "["
        if value and all(item.__class__ in _SCALARS for item in value):
            out += (sep, inner, ("," + inner).join(
                [_SCALARS[item.__class__](item) for item in value]), newline, "]")
            return
        for item in value:
            out += (sep, inner)
            _encode(item, inner, out)
            sep = ","
        out.append(newline + "]" if value else "[]")
    else:
        out.append(json.dumps(value))


def load_json(path: str) -> dict:
    """The JSON object of a file, refused when it is not one; numbers are read
    like number strings, exactly: an integer as an int, a decimal as a Fraction."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_int=lambda text: _ratio(text)[0],
                             parse_float=lambda text: Fraction(*_ratio(text)))
        except RecursionError:  # the decoder recurses once per nested array or object
            raise ValueError(f"the file {path} is nested too deeply to read") from None
    return _expect(data, dict, f"the file {path}")
