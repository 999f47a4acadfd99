"""Valuations in units of 1/e against a rational oracle, and the kernel without Fractions.

The program holds every valuation as a count of the field's unit 1/e and
converts only at its edges (`NatValuation.to_units` / `to_text`).  The
oracle in helpers.py computes valuations, leading terms of d_v^j S and
evaluation reports on the rationals themselves, so a wrong scale anywhere
between the edges shows as a mismatch.  Candidates hold values inside and
outside (1/e)Z; they enter through the series-file reader, as a candidate
file's do.
"""

import cProfile
import json
import pstats
import random
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from tropdiff import cli, files
from tropdiff.diffpoly import derived_system, eval_tropical, is_tropical_solution, tropicalize_poly
from tropdiff.fields import FieldBackend
from tropdiff.semiring import T_INF, TropNum, format_rational
from tropdiff.series import Beyond

from helpers import (
    rand_elem,
    rand_nonzero_diffpoly,
    rational_evaluate,
    rational_leading,
    ref_valuation,
)

GOLDEN = Path(__file__).parent / "golden"
BACKENDS = (FieldBackend("trivial"), FieldBackend("padic", 2), FieldBackend("padic", 3),
            *(FieldBackend("eisenstein", p) for p in (3, 5, 7)))


def rational_record(rng, e: int, truncation: int) -> dict:
    """A series record with rational values: missing (infinite), in (1/e)Z, or
    of denominator 3e, outside it."""
    coeffs = []
    for k in range(truncation + 1):
        kind = rng.random()
        if kind < 0.3:
            continue
        value = (Fraction(rng.randint(-8, 8), e) if kind < 0.8
                 else Fraction(3 * rng.randint(-3, 3) + 1, 3 * e))
        coeffs.append({"n": k, "val": format_rational(value)})
    return {"truncation": truncation, "coeffs": coeffs}


def dense_ref(record: dict) -> tuple:
    out = [None] * (record["truncation"] + 1)
    for rec in record["coeffs"]:
        out[rec["n"]] = Fraction(rec["val"])
    return tuple(out)


def in_units(nat_val, w):
    """The oracle's rational value (None: infinity; a pair: rank 2) in units."""
    if w is None:
        return T_INF
    return nat_val.to_units(TropNum(w))


cases = dict(backend=st.sampled_from(BACKENDS), seed=st.integers(0, 2**32 - 1))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(**cases)
def test_valuation_matches_rational_oracle(backend, seed):
    rng = random.Random(seed)
    nv = backend.nat_val
    for _ in range(10):
        x = rand_elem(rng, backend)
        v = None if x.is_zero else ref_valuation(x.coeffs, backend)
        assert x.valuation() == in_units(nv, v)
        assert nv.to_text(x.valuation()) == ("inf" if v is None else format_rational(v))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(truncation=st.integers(0, 7), **cases)
def test_leading_table_and_files_match_rational_oracle(backend, seed, truncation):
    rng = random.Random(seed)
    nv = backend.nat_val
    record = rational_record(rng, nv.e, truncation)
    s = files.trop_series_from_dict(record, nv)
    assert files.trop_series_to_dict(s) == record
    assert files.trop_series_from_dict(json.loads(json.dumps(record)), nv) == s
    ref = dense_ref(record)
    for j in range(truncation + 3):
        lt, past = rational_leading(ref, nv.p, j)
        got = s.leading(j)
        assert got == (Beyond(past) if lt is None else in_units(nv, lt).value)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(truncation=st.integers(1, 6), nvars=st.integers(1, 2), **cases)
def test_evaluate_matches_rational_oracle(backend, seed, truncation, nvars):
    rng = random.Random(seed)
    nv = backend.nat_val
    f = rand_nonzero_diffpoly(rng, backend, nvars, truncation, max_terms=4, max_order=3)
    records = [rational_record(rng, nv.e, rng.randint(0, truncation)) for _ in range(nvars)]
    s = tuple(files.trop_series_from_dict(rec, nv) for rec in records)
    report = eval_tropical(tropicalize_poly(f), s)
    want = rational_evaluate(f, [dense_ref(rec) for rec in records], nv.p)
    assert report.value == in_units(nv, want["value"])
    assert nv.to_text(report.value) == str(T_INF if want["value"] is None
                                            else TropNum(want["value"]))
    assert report.attainment == want["attainment"]
    assert report.vanishes == want["vanishes"]
    assert report.ambiguous == want["ambiguous"]
    assert report.truncation_limited == want["truncation_limited"]


def test_kernel_enters_no_fraction_code():
    """Tropicalizing a derived Eisenstein p = 5 system and evaluating it at a
    candidate inside (1/4)Z runs on ints alone: cProfile sees no frame of
    the fractions module."""
    backend, _, _, polys = files.system_from_dict(files.load_json(str(GOLDEN / "sys-p5.json")))
    data = files.load_json(str(GOLDEN / "cand-p5.json"))
    for rec in data["series"][0]["coeffs"]:
        if rec["val"] == "1/3":  # the golden's one value outside (1/4)Z
            rec["val"] = "3/4"
    candidate = files.candidate_from_dict(data, backend.nat_val)
    families = [derived_system(f, 4) for f in polys]
    profile = cProfile.Profile()
    profile.enable()
    system = [tropicalize_poly(g) for family in families for g in family]
    solution = is_tropical_solution(system, candidate)
    profile.disable()
    assert len(solution.reports) == 15
    entered = {path for path, _, _ in pstats.Stats(profile).stats}
    assert not [path for path in entered if Path(path).name == "fractions.py"]


def test_cli_edges_enter_no_fraction_code(tmp_path, capsys):
    """From the files to the reports, `check` and `initial` on the Eisenstein
    goldens (the p = 5 candidate inside (1/4)Z), `tropicalize` on the
    p-adic golden and `initial` on the trivially valued golden (rational
    residues) read and write every number on the integers: cProfile sees
    no frame of the fractions module."""
    data = json.loads((GOLDEN / "cand-p5.json").read_text())
    for rec in data["series"][0]["coeffs"]:
        if rec["val"] == "1/3":  # the golden's one value outside (1/4)Z
            rec["val"] = "3/4"
    cand_p5 = tmp_path / "cand-p5.json"
    cand_p5.write_text(json.dumps(data))
    cand_boolean = tmp_path / "cand-boolean.json"
    cand_boolean.write_text(json.dumps({"series": [
        {"truncation": 12, "coeffs": [{"n": n, "val": "0"} for n in support]}
        for support in ((0, 2), (0, 3))]}))
    runs = [[command, "--system", str(GOLDEN / system), "--candidate", str(candidate),
             "--order", order]
            for system, candidate, order in (("sys.json", GOLDEN / "cand.json", "9"),
                                             ("sys-p5.json", cand_p5, "4"))
            for command in ("check", "initial")]
    runs.append(["tropicalize", "--system", str(GOLDEN / "sys2-padic.json")])
    runs.append(["initial", "--system", str(GOLDEN / "sys2-trivial.json"),
                 "--candidate", str(cand_boolean), "--order", "2"])
    profile = cProfile.Profile()
    codes = []
    for k, argv in enumerate(runs):
        profile.enable()
        codes.append(cli.main(argv + ["--json", str(tmp_path / f"report-{k}.json")]))
        profile.disable()
    # the changed value makes the p = 5 candidate fail both checks, and
    # d^1 f_0 of the trivially valued system has a monomial initial form
    assert codes == [0, 0, 1, 1, 0, 1]
    out = capsys.readouterr().out
    assert "trop_v  = x1''*x2 + (1, 1)*x1^2 + (0, -1)" in out
    assert "in_S(d^0 f_0) = x1''*x2 + 1/5\nin_S(d^1 f_0) = 0 - 5*x1^2\n" in out
    entered = {path for path, _, _ in pstats.Stats(profile).stats}
    assert not [path for path in entered if Path(path).name == "fractions.py"]
