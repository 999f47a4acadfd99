import gc
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tropdiff import files
from tropdiff.fields import FieldBackend
from tropdiff.semiring import NatValuation, TropNum, parse_ratio, parse_rational
from tropdiff.series import PowerSeries
from tropdiff.verify import exp_tropical_closed_form, solve_linear

from helpers import (EISEN2, EISEN3, EISEN5, PADIC3, TRIVIAL, rand_power_series,
                     rand_trop_series, rng_for)


def test_field_round_trip():
    for backend in (EISEN3, PADIC3):
        assert files.field_from_dict(files.field_to_dict(backend)) == backend
    with pytest.raises(ValueError):
        files.field_from_dict({"kind": "octonion"})


def test_series_round_trip_eisenstein_arrays():
    rng = rng_for("files-series")
    for _ in range(20):
        s = rand_power_series(rng, EISEN3, rng.randint(0, 8))
        data = files.series_to_dict(s)
        for rec in data["coeffs"]:
            assert isinstance(rec["val"], list) and len(rec["val"]) == 2
        assert files.series_from_dict(data, EISEN3) == s


def test_trop_series_round_trip():
    rng = rng_for("files-trop")
    nv = NatValuation(3)
    for _ in range(20):
        s = rand_trop_series(rng, nv, rng.randint(0, 8), inf_prob=0.4)
        data = files.trop_series_to_dict(s)
        assert files.trop_series_from_dict(data, nv) == s
    # an explicit "inf" entry is accepted
    data = {"truncation": 2, "coeffs": [{"n": 0, "val": "inf"}, {"n": 1, "val": "3/2"}]}
    s = files.trop_series_from_dict(data, nv)
    assert s.coeffs[0].is_inf and not s.coeffs[1].is_inf

    with pytest.raises(ValueError):
        files.trop_series_from_dict({"truncation": 2, "coeffs": [{"n": 5, "val": "1"}]},
                                    nv)


def test_series_records_share_one_reader():
    """Classical and tropical records alike keep the last record of a repeated
    index, drop zero / infinite values, and refuse an index outside the window."""
    nv = NatValuation(3)
    recs = [{"n": 2, "val": "1"}, {"n": 0, "val": "5"}, {"n": 2, "val": "7/2"}]
    trop = files.trop_series_from_dict(
        {"truncation": 3, "coeffs": recs + [{"n": 0, "val": "inf"}]}, nv)
    assert trop.terms == ((2, TropNum(Fraction(7, 2))),)
    classical = files.series_from_dict(
        {"truncation": 3, "coeffs": recs + [{"n": 0, "val": "0"}]}, PADIC3)
    assert classical.terms == ((2, PADIC3.elem(Fraction(7, 2))),)
    for read, arg in ((files.trop_series_from_dict, nv), (files.series_from_dict, PADIC3)):
        for k in (-1, 3):
            with pytest.raises(ValueError, match="outside truncation"):
                read({"truncation": 2, "coeffs": [{"n": k, "val": "1"}]}, arg)


def test_candidate_round_trip():
    s = exp_tropical_closed_form(3, 12)
    data = files.candidate_to_dict((s, s))
    out = files.candidate_from_dict(data, s.nat_val)
    assert out == (s, s)
    with pytest.raises(ValueError):
        files.candidate_from_dict({"series": []}, s.nat_val)


def test_system_round_trip():
    data = {"field": {"kind": "eisenstein", "p": 3}, "vars": 1, "truncation": 10,
            "polynomials": ["x' - 3*zeta*t^2*x", "x*x^(3)"]}
    backend, nvars, truncation, polys = files.system_from_dict(data)
    assert (backend, nvars, truncation) == (EISEN3, 1, 10)
    assert len(polys) == 2
    again = files.system_to_dict(backend, nvars, truncation, polys)
    assert files.system_from_dict(again)[3] == polys


def test_ode_record_with_series_g(tmp_path):
    from fractions import Fraction

    sol = solve_linear(files.ode_from_dict({
        "field": {"kind": "padic", "p": 3}, "truncation": 8,
        "g": {"truncation": 7, "coeffs": [{"n": 0, "val": "2"}]}, "c0": "1/2"}))
    assert sol.coeffs[0] == PADIC3.elem(Fraction(1, 2))
    assert sol.coeffs[1] == PADIC3.elem(1)  # (1/2) * 2 / 1

    with pytest.raises(ValueError):
        files.ode_from_dict({"field": {"kind": "padic", "p": 3}, "truncation": 4,
                             "g": "x + t", "c0": "1"})


GOLDEN = Path(__file__).parent / "golden"


def test_dump_is_canonical(tmp_path):
    path = tmp_path / "a.json"
    files.dump_json({"b": 1, "a": [2, 3]}, str(path))
    assert path.read_text() == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'
    # the bytes of json.dump(indent=2, sort_keys=True) and a newline, also for
    # every golden file read and written again
    made = {"field": {"kind": "eisenstein", "p": 3},
            **files.series_to_dict(rand_power_series(rng_for("files-dump"), EISEN3, 30)),
            "nested": [{"b": [], "a": {}}, None, True, 1.5, "\u00e9"]}
    goldens = sorted(GOLDEN.glob("*.json"))
    assert goldens
    for data in [made] + [json.loads(golden.read_text()) for golden in goldens]:
        files.dump_json(data, str(path))
        want = io.StringIO()
        json.dump(data, want, indent=2, sort_keys=True)
        assert path.read_bytes() == (want.getvalue() + "\n").encode("utf-8")


# str of full Unicode (control characters, lone surrogates, astral planes)
_TEXT = st.text(st.characters(exclude_categories=()), max_size=12)
_SCALARS = (_TEXT | st.integers(-10 ** 4000, 10 ** 4000) | st.integers(-300, 300)
            | st.booleans() | st.none() | st.floats())
_VALUES = st.recursive(_SCALARS, lambda inner: (st.lists(inner, max_size=4)
                                               | st.lists(inner, max_size=4).map(tuple)
                                               | st.dictionaries(_TEXT, inner, max_size=4)),
                       max_leaves=24)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(value=_VALUES)
@example(value={"val": ["1/2", "-3/4", "0"], "ints": [1, -2, 10**400], "empty": []})
@example(value=[("a", 7, True, None, False), ["\n", 1.5], [["x"], "y"], [{}, 2]])
def test_dump_matches_the_standard_encoder(tmp_path_factory, value):
    """dump_json writes the bytes of json.dumps(indent=2, sort_keys=True)
    and a newline, for any nesting of dicts, lists and tuples of str, int,
    float, bool and None; a list of str, int, bool and None, such as an
    Eisenstein coefficient, is written with one join."""
    path = tmp_path_factory.mktemp("dump") / "a.json"
    files.dump_json(value, str(path))
    want = json.dumps(value, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == want.encode("utf-8")


def test_dump_splices_its_own_text(tmp_path):
    """dump_json returns the text it encodes, and a larger value holding that
    text is written as if it held the encoded value, at any depth."""
    record = {"field": {"kind": "eisenstein", "p": 5},
              **files.series_to_dict(rand_power_series(rng_for("files-splice"), EISEN5, 12))}
    text = files.dump_json(record, None)
    assert text == json.dumps(record, indent=2, sort_keys=True)
    path = tmp_path / "a.json"
    for outer in (lambda v: v, lambda v: {"solution": v, "schema": 1},
                  lambda v: [1, {"a": [v, "x"]}], lambda v: [v, v]):
        assert files.dump_json(outer(text), str(path)) == path.read_text()[:-1]
        assert path.read_text() == json.dumps(outer(record), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [{1: "a"}, {"a": {1, 2}}, {"a": Fraction(1, 2)},
                                   {"a": [b"x"]}], ids=["int-key", "set", "fraction", "bytes"])
def test_dump_refuses_what_a_file_cannot_hold(tmp_path, value):
    """A non-str key or a value of another type raises TypeError before the
    file is opened."""
    path = tmp_path / "a.json"
    with pytest.raises(TypeError):
        files.dump_json(value, str(path))
    assert not path.exists()


def test_dump_leaves_no_cyclic_garbage(tmp_path):
    """Writing a report creates no reference cycles for the collector."""
    data = files.load_json(str(GOLDEN / "check.json"))
    gc.collect()
    gc.disable()
    try:
        files.dump_json(data, str(tmp_path / "check.json"))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_trivial_candidates_must_be_boolean():
    nv = NatValuation(None)
    good = {"series": [{"truncation": 3, "coeffs": [{"n": 1, "val": "0"}]}]}
    assert files.candidate_from_dict(good, nv)[0].coeffs[1].is_boolean
    bad = {"series": [{"truncation": 3, "coeffs": [{"n": 1, "val": "1/2"}]}]}
    with pytest.raises(ValueError):
        files.candidate_from_dict(bad, nv)


@pytest.mark.parametrize("text, value", [
    ("3", Fraction(3)), ("-3/4", Fraction(-3, 4)), ("+3", Fraction(3)), (" 3 ", Fraction(3)),
    ("1_000", Fraction(1000)), ("0.5", Fraction(1, 2)), ("1e3", Fraction(1000)),
])
def test_parse_rational_accepts(text, value):
    """"n" and "n/d" are read on the integers; every spelling keeps Fraction's value."""
    assert parse_rational(text) == value == Fraction(text)
    num, den = parse_ratio(text)
    assert den > 0 and Fraction(num, den) == value


@pytest.mark.parametrize("text", ["3/-4", "3 / 4", "1/0", "x"])
def test_parse_rational_refuses(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_series_round_trip_long_values():
    """Negative numerators over 2,000-bit denominators survive the record codec
    on every backend, also past the interpreter's int/str digit limit."""
    rng = rng_for("files-long-values")
    backends = (TRIVIAL, PADIC3, EISEN2, EISEN3, EISEN5, FieldBackend("eisenstein", 7))
    for backend in backends:
        for bits in (2000, 16000):
            terms = []
            for k in range(0, 12, 2):
                coeffs = [Fraction(-rng.getrandbits(bits) - 1, rng.getrandbits(bits) | 1)
                          for _ in range(backend.degree)]
                terms.append((k, backend.from_coeffs(coeffs)))
            s = PowerSeries(backend, 12, tuple(terms))
            data = json.loads(json.dumps(files.series_to_dict(s)))
            assert files.series_from_dict(data, backend) == s


def test_digit_strings_above_the_limit_are_refused(tmp_path, monkeypatch):
    """A number above MAX_DIGITS characters is refused, as a string or a JSON
    integer, classical or tropical; one at the limit is read, also past the
    interpreter's own limit."""
    monkeypatch.setattr(files, "MAX_DIGITS", 5000)
    at_limit = "7" * 5000
    assert files.elem_from_json(at_limit, PADIC3) == PADIC3.elem(7 * (10**5000 - 1) // 9)
    path = tmp_path / "big.json"
    path.write_text('{"c0": ' + at_limit + "}")
    assert files.load_json(str(path))["c0"] == 7 * (10**5000 - 1) // 9
    message = "a number of 5001 characters exceeds the limit of 5000 digits"
    for value in ("-" + at_limit, [at_limit + "7", "0"]):
        with pytest.raises(ValueError, match=message):
            files.elem_from_json(value, EISEN3)
    path.write_text('{"c0": ' + at_limit + "7}")
    with pytest.raises(ValueError, match=message):
        files.load_json(str(path))
    with pytest.raises(ValueError, match=message):
        files.trop_series_from_dict({"truncation": 1, "coeffs": [{"n": 0, "val": "1" + at_limit}]},
                                    NatValuation(3))
