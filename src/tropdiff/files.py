"""JSON file schemas: fields, series, candidates, systems, ODEs, reports.

All exact values serialize as strings "num/den" (or "inf"); Eisenstein
elements as arrays of rational strings ["c0", "c1", ...].  A coefficient is
read from a string or a JSON number (as str(value)), in a scalar and in an
array alike.  Field elements are written from their integer numerators over
the common denominator, one gcd per coefficient, and read back into them
with one lcm and one normalization, without a `Fraction` on either side.
Numbers are written in full at any length, past the interpreter's int/str
digit limit; a number of more than MAX_DIGITS characters in a file, string
or JSON integer, is refused.  Series records list only the nonzero
(classical) / finite (tropical) coefficients:

    {"truncation": N, "coeffs": [{"n": k, "val": ...}, ...]}

A system file is {"field": {...}, "vars": n, "truncation": N,
"polynomials": [expr, ...]} with expressions in the polynomial grammar; a
candidate file is {"series": [series-record, ...]} over the system's field.
Both series types share one record reader and writer.  Every reader
refuses a truncation above MAX_TRUNCATION before allocating anything.
`dump_json` encodes a whole file before it opens it and writes it with one
call.
"""

from __future__ import annotations

import json
from typing import Sequence

from .diffpoly import CONSTANT_MONOMIAL, DiffPoly
from .fields import FieldBackend, FieldElem
from .parser import parse_poly, print_poly
from .semiring import MAX_DIGITS, NatValuation, TropNum, format_ratio, parse_ratio
from .series import PowerSeries, TropSeries
from .verify import LinearODE

SCHEMA_VERSION = 1
MAX_TRUNCATION = 10**5


def limit_truncation(n: int) -> int:
    """n, refused above MAX_TRUNCATION."""
    if n > MAX_TRUNCATION:
        raise ValueError(f"truncation {n} exceeds the limit {MAX_TRUNCATION}")
    return n


def _read_truncation(data: dict) -> int:
    """The record's "truncation", refused above MAX_TRUNCATION."""
    return limit_truncation(int(data["truncation"]))


def field_to_dict(backend: FieldBackend) -> dict:
    out = {"kind": backend.kind}
    if backend.p is not None:
        out["p"] = backend.p
    return out


def field_from_dict(data: dict) -> FieldBackend:
    try:
        return FieldBackend(data["kind"], data.get("p"))
    except (KeyError, TypeError) as exc:
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
    return backend.from_ratios((_ratio(value),) + ((0, 1),) * (backend.degree - 1))


def _ratio(value) -> tuple[int, int]:
    """(num, den) of one rational of a file."""
    if type(value) is int:  # read, and its length checked, by load_json
        return value, 1
    return parse_ratio(_number_text(value))


def _number_text(value) -> str:
    """A number of a file as text: a string, or a JSON number read as
    str(value); text above MAX_DIGITS characters is refused."""
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
    n = _read_truncation(data)
    cs = {}
    for rec in data.get("coeffs", []):
        k = int(rec["n"])
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
    return _series_to_record(s, str)


def trop_series_from_dict(data: dict, nat_val: NatValuation) -> TropSeries:
    n, terms = _series_from_record(data, lambda v: TropNum.parse(_number_text(v)))
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
    nvars = int(data["vars"])
    truncation = _read_truncation(data)
    if nvars < 1:
        raise ValueError("systems need at least one variable")
    if truncation < 0:
        raise ValueError("truncation must be a natural number")
    exprs = data.get("polynomials", [])
    if not exprs:
        raise ValueError("system file lists no polynomials")
    polys = tuple(parse_poly(src, backend, nvars, truncation) for src in exprs)
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
        g = g_poly.coefficient(CONSTANT_MONOMIAL)
    else:
        g = series_from_dict(g_data, backend)
    c0 = elem_from_json(data["c0"], backend)
    return LinearODE(g, c0, truncation)


def dump_json(data: dict, path: str):
    """Canonical serialization: stable key order, no timestamps; encoded in
    full before the file is opened, and written with one call."""
    text = json.dumps(data, indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_json(path: str) -> dict:
    """The JSON value of a file; integer literals are read like number strings."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_int=lambda text: _ratio(text)[0])
