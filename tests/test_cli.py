import gc
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import tropdiff
from tropdiff import errors, files
from tropdiff.cli import main
from tropdiff.semiring import MAX_DIGITS, TropNum
from tropdiff.series import TropSeries
from tropdiff.verify import DEFAULT_SEED, exp_tropical_closed_form

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def exp_system(tmp_path):
    path = tmp_path / "sys.json"
    files.dump_json({"field": {"kind": "eisenstein", "p": 3}, "vars": 1,
                     "truncation": 18,
                     "polynomials": ["x' - 3*zeta*t^2*x"]}, str(path))
    return path


@pytest.fixture
def good_candidate(tmp_path):
    s = exp_tropical_closed_form(3, 18)
    path = tmp_path / "cand.json"
    files.dump_json(files.candidate_to_dict((s,)), str(path))
    return path


@pytest.fixture
def bad_candidate(tmp_path):
    s = exp_tropical_closed_form(3, 18)
    cs = list(s.coeffs)
    cs[3] = cs[3] * s.nat_val.to_units(TropNum.of(1))
    path = tmp_path / "bad.json"
    perturbed = TropSeries.from_coeffs(s.nat_val, 18, cs)
    files.dump_json(files.candidate_to_dict((perturbed,)), str(path))
    return path


def test_selftest(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    assert main(["selftest", "--p", "3", "--json", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "ALL PASS" in out
    data = json.loads(out_path.read_text())
    assert data["passed"] and data["schema"] == 1

    # byte-identical reports for identical configuration
    first = out_path.read_bytes()
    assert main(["selftest", "--p", "3", "--json", str(out_path)]) == 0
    assert out_path.read_bytes() == first


def test_selftest_all_primes(capsys):
    for p in ("2", "3", "5"):
        assert main(["selftest", "--p", p]) == 0
    capsys.readouterr()


def test_tropicalize(capsys, exp_system, tmp_path):
    out_path = tmp_path / "trop.json"
    assert main(["tropicalize", "--system", str(exp_system),
                 "--json", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "x' + (2, 3/2)*x" in out
    assert "x' + 2*x" in out  # Grigoriev projection
    data = json.loads(out_path.read_text())
    assert data["polynomials"][0]["rank2"] == "x' + (2, 3/2)*x"


def test_check_accepts_solution(capsys, exp_system, good_candidate):
    assert main(["check", "--system", str(exp_system),
                 "--candidate", str(good_candidate)]) == 0
    out = capsys.readouterr().out
    assert "tropical solution" in out


def test_check_rejects_perturbed(capsys, exp_system, bad_candidate, tmp_path):
    out_path = tmp_path / "check.json"
    code = main(["check", "--system", str(exp_system),
                 "--candidate", str(bad_candidate), "--json", str(out_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "NOT a tropical solution" in out
    assert "derivative order" in out
    data = json.loads(out_path.read_text())
    assert data["all_vanish"] is False


def test_initial(capsys, exp_system, good_candidate):
    assert main(["initial", "--system", str(exp_system),
                 "--candidate", str(good_candidate), "--order", "3"]) == 0
    out = capsys.readouterr().out
    assert "in_S(d^0 f_0) = x' + x" in out
    assert "MONOMIAL_FREE_UP_TO_3" in out


def test_initial_monomial_failure(capsys, exp_system, bad_candidate):
    assert main(["initial", "--system", str(exp_system),
                 "--candidate", str(bad_candidate), "--order", "3"]) == 1
    out = capsys.readouterr().out
    assert "monomial witness" in out


def test_solve_linear_and_radius(capsys, tmp_path):
    ode_path = tmp_path / "ode.json"
    sol_path = tmp_path / "sol.json"
    files.dump_json({"field": {"kind": "eisenstein", "p": 3}, "truncation": 200,
                     "g": "3*zeta*t^2", "c0": "1"}, str(ode_path))
    assert main(["solve-linear", "--ode", str(ode_path), "--out", str(sol_path)]) == 0
    capsys.readouterr()

    assert main(["radius", "--series", str(sol_path), "--rule", "p,auto"]) == 0
    assert capsys.readouterr().out.startswith("log_r = 0, r = 1 (base 3)")

    assert main(["radius", "--series", str(sol_path), "--window-start", "100"]) == 0
    out = capsys.readouterr().out
    assert "log_r = 1/162" in out

    assert main(["radius", "--series", str(sol_path), "--rule", "p,auto",
                 "--base2", "9"]) == 0
    out = capsys.readouterr().out
    assert "in base 9: log_r = 0" in out

    # log_r = 0 is exactly 0 in every base, also in bases that share no root
    # with 3, even past float range
    json_path = tmp_path / "radius.json"
    for base2 in ("10", str(10 ** 400)):
        assert main(["radius", "--series", str(sol_path), "--rule", "p,auto",
                     "--base2", base2, "--json", str(json_path)]) == 0
        assert f"in base {base2}: log_r = 0\n" in capsys.readouterr().out
        assert json.loads(json_path.read_text())["base_change"] == {
            "base": base2, "log_radius": "0", "exact": True}


def test_solve_linear_writes_and_radius_reads_long_coefficients(capsys, tmp_path):
    """Coefficients past the interpreter's int/str digit limit (4300 digits)
    are written in full and read back: c_9000 = (-3)^1500 / 3000! takes 8,418
    characters."""
    ode_path, sol_path = tmp_path / "ode.json", tmp_path / "sol.json"
    files.dump_json({"field": {"kind": "eisenstein", "p": 3}, "truncation": 9000,
                     "c0": "1", "g": "3*zeta*t^2"}, str(ode_path))
    assert main(["solve-linear", "--ode", str(ode_path), "--out", str(sol_path)]) == 0
    last = json.loads(sol_path.read_text())["coeffs"][-1]
    assert last["n"] == 9000 and len(last["val"][0]) == 8418
    capsys.readouterr()
    assert main(["radius", "--series", str(sol_path), "--rule", "p,auto"]) == 0
    assert capsys.readouterr().out.startswith("log_r = 0, r = 1 (base 3)")


def test_coefficient_arrays_of_json_numbers(capsys, tmp_path):
    """Array entries that are JSON numbers are read as str(v), like scalars."""
    outputs = []
    for c0 in (["1", "0"], [1, 0], "1", 1, [0.5, 2], ["1/2", "2"]):
        ode = _write(tmp_path, "ode.json", {"field": {"kind": "eisenstein", "p": 3},
                                            "truncation": 6, "c0": c0, "g": "3*zeta*t^2"})
        assert main(["solve-linear", "--ode", ode]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3] != outputs[4] == outputs[5]
    ode = _write(tmp_path, "ode.json", {"field": {"kind": "eisenstein", "p": 3},
                                        "truncation": 6, "c0": [True, 0], "g": "t"})
    assert main(["solve-linear", "--ode", ode]) == 2
    assert capsys.readouterr().err.startswith("tropdiff: ")


def test_digit_limit_exits_2(capsys, tmp_path):
    ode = _write(tmp_path, "ode.json", {"field": {"kind": "padic", "p": 3}, "truncation": 2,
                                        "c0": "1" * (files.MAX_DIGITS + 1), "g": "t"})
    assert main(["solve-linear", "--ode", ode]) == 2
    assert capsys.readouterr().err == (
        f"tropdiff: a number of {files.MAX_DIGITS + 1} characters exceeds the limit of "
        f"{files.MAX_DIGITS} digits\n")


def test_polynomial_reads_a_long_coefficient_in_full(capsys, tmp_path):
    """A coefficient past the interpreter's 4300-digit int/str limit is read
    and printed in full."""
    digits = "1" * 5001
    system = _write(tmp_path, "sys.json", {"field": {"kind": "padic", "p": 3}, "vars": 1,
                                           "truncation": 4,
                                           "polynomials": [f"{digits}*x - x'"]})
    start = time.perf_counter()
    assert main(["tropicalize", "--system", system]) == 0
    assert time.perf_counter() - start < 1.0
    assert f"f       = 0 - x' + {digits}*x\n" in capsys.readouterr().out


def test_huge_decimal_exponent_exits_2(capsys, tmp_path):
    """A decimal exponent above MAX_DIGITS, in a file or in a --base option, is
    refused before 10^e is built."""
    ode = _write(tmp_path, "ode.json", {"field": {"kind": "padic", "p": 3}, "truncation": 2,
                                        "c0": "1e99999999", "g": "t"})
    series = str(GOLDEN / "sol.json")
    for argv in (["solve-linear", "--ode", ode],
                 ["radius", "--series", series, "--base", "1e99999999"],
                 ["radius", "--series", series, "--base2", "1e99999999"]):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr() == (
            "", f"tropdiff: the exponent of '1e99999999' exceeds the limit of {MAX_DIGITS}\n")


def test_field_of_a_large_prime(capsys, tmp_path):
    """The field prime 2^61 - 1 is certified at once, not by trial division."""
    system = _write(tmp_path, "sys.json", {"field": {"kind": "padic", "p": 2**61 - 1},
                                           "vars": 1, "truncation": 4,
                                           "polynomials": ["x' - 2*x"]})
    start = time.perf_counter()
    assert main(["tropicalize", "--system", system]) == 0
    assert time.perf_counter() - start < 1.0
    assert "trop_v  = x' + x\n" in capsys.readouterr().out


def test_parenthesis_nesting_limit(capsys, tmp_path):
    """200 nested parentheses parse; 201 exit 2 with a syntax error, not a
    RecursionError traceback."""
    for depth, code in ((200, 0), (201, 2)):
        system = _write(tmp_path, "sys.json", {"field": {"kind": "padic", "p": 3}, "vars": 1,
                                               "truncation": 4,
                                               "polynomials": ["(" * depth + "x" + ")" * depth]})
        assert main(["tropicalize", "--system", system]) == code
    assert capsys.readouterr().err == (
        "tropdiff: parentheses nested deeper than 200 (at position 200)\n")


def test_deeply_nested_file_exits_2(capsys, tmp_path):
    """A file nested deeper than the JSON decoder can recurse exits 2 with a
    message naming it, not a RecursionError traceback."""
    path = tmp_path / "sys.json"
    path.write_text('{"a": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main(["tropicalize", "--system", str(path)]) == 2
    assert capsys.readouterr().err == f"tropdiff: the file {path} is nested too deeply to read\n"


@pytest.mark.parametrize("poly, message", [
    ("x^" + "1" * 5001,
     "an exponent of 5001 digits exceeds the limit of 1000 digits (at position 2)"),
    ("x^(" + "1" * 5001 + ")",
     "an exponent of 5001 digits exceeds the limit of 1000 digits (at position 3)"),
    ("x" + "1" * 5001, f"variable x{'1' * 5001} out of range for 2 variable(s)"),
], ids=["power-exponent", "derivative-order", "variable-index"])
def test_long_exponent_order_and_index_exit_2(capsys, tmp_path, poly, message):
    """A power exponent, derivative order or variable index past the
    interpreter's 4300-digit int/str limit exits 2 with a tropdiff message."""
    system = _write(tmp_path, "sys.json", {"field": {"kind": "padic", "p": 3}, "vars": 2,
                                           "truncation": 4, "polynomials": [poly]})
    start = time.perf_counter()
    assert main(["tropicalize", "--system", system]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", f"tropdiff: {message}\n")


def test_power_of_a_sum_is_bounded(capsys, tmp_path):
    """(x+x'+x''+x''')^60 may have C(63, 3) = 39,711 monomials: it exits 2 at
    once, with the position of its ^, while a power of one term is not
    bounded."""
    system = _write(tmp_path, "sys.json", {"field": {"kind": "padic", "p": 3}, "vars": 1,
                                           "truncation": 4,
                                           "polynomials": ["(x+x'+x''+x''')^60"]})
    start = time.perf_counter()
    assert main(["tropicalize", "--system", system]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", "tropdiff: a power of a sum of 4 terms may have "
                                       "more than 500 monomials (at position 15)\n")


def test_power_of_a_sum_is_bounded_by_its_terms(capsys, tmp_path):
    """(x + 1 + t)^200 has only 201 monomials, but at truncation 200 its
    coefficients hold about 20,000 (monomial, t-degree) terms: the squaring
    of (x + 1 + t)^32, 561 by 561 terms, is refused at the ^ within 1 s."""
    system = _write(tmp_path, "sys.json", {"field": {"kind": "padic", "p": 3}, "vars": 1,
                                           "truncation": 200,
                                           "polynomials": ["(x + 1 + t)^200"]})
    start = time.perf_counter()
    assert main(["tropicalize", "--system", system]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", "tropdiff: a product of 561 by 561 terms exceeds the "
                                       "limit of 250000 term products (at position 11)\n")


def test_product_is_bounded_by_its_coefficient_bits(capsys, tmp_path):
    """A power of x plus a long literal is inside both term bounds, but its
    coefficients grow by the literal's length at every product: (x + 7...7)^200
    with 100 sevens and ^400 with 200 sevens are refused at the ^, within
    1 s, when the squaring of the ^32 power (65 by 65 terms) would exceed
    MAX_PRODUCT_BITS."""
    for digits, n, bits in ((100, 200, 21238), (200, 400, 42498)):
        src = f"(x + {'7' * digits})^{n}"
        system = _write(tmp_path, "sys.json", {"field": {"kind": "padic", "p": 3}, "vars": 1,
                                               "truncation": 4, "polynomials": [src]})
        start = time.perf_counter()
        assert main(["tropicalize", "--system", system]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr() == ("", f"tropdiff: a product of 65 by 65 terms of up to "
                                           f"{bits} and {bits} bits exceeds the limit of "
                                           f"67108864 term-product bits (at position "
                                           f"{digits + 6})\n")


def test_power_of_one_literal_is_bounded_by_the_longest_literal(capsys, tmp_path):
    """7^16000000 and 7^100000000 are one term each, inside both term bounds,
    but squaring 7 that often would build numbers of 45 and 280 million bits:
    both are refused at the ^, within 1 s, by the first product whose
    operands hold more bits than a literal of MAX_DIGITS digits.  7^1000000,
    2.8 million bits, still parses."""
    for n, a_bits in ((16000000, 761804), (100000000, 1081618)):
        system = _write(tmp_path, "sys.json", {"field": {"kind": "padic", "p": 3}, "vars": 1,
                                               "truncation": 4, "polynomials": [f"7^{n}"]})
        start = time.perf_counter()
        assert main(["tropicalize", "--system", system]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr() == ("", f"tropdiff: a product of coefficients of {a_bits} "
                                           f"and 2943725 bits exceeds the limit of 3321929 "
                                           f"bits (at position 1)\n")
    _, _, _, (f,) = files.system_from_dict({"field": {"kind": "padic", "p": 3}, "vars": 1,
                                            "truncation": 4, "polynomials": ["7^1000000"]})
    assert f.terms[0][1].terms[0][1].num[0] == 7 ** 1000000


def test_golden_and_bench_inputs_parse_within_the_product_bound(monkeypatch):
    """Every golden system and ODE, and the systems and ODEs the benchmark
    generates at seeds 13, 29 and 1, parse: no product of theirs comes near
    MAX_PRODUCT_BITS."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import WORKLOADS

    inputs = [json.loads(path.read_text()) for path in sorted(GOLDEN.glob("*.json"))
              if path.name.startswith(("sys", "ode"))]
    for name in ("system-check", "long-series"):
        for seed in (13, 29, 1):
            inputs += [json.loads(data) for file, data in WORKLOADS[name].generate(seed).items()
                       if file.startswith(("sys", "ode"))]
    systems = [d for d in inputs if "polynomials" in d]
    odes = [d for d in inputs if "g" in d]
    assert (len(systems), len(odes)) == (17, 17)
    for d in systems:
        assert files.system_from_dict(d)[3]
    for d in odes:
        files.ode_from_dict(d)


def test_padded_variable_index_is_read(capsys, tmp_path):
    """Leading zeros do not count against the index length: x0...01 is x1."""
    system = _write(tmp_path, "sys.json", {"field": {"kind": "padic", "p": 3}, "vars": 2,
                                           "truncation": 4,
                                           "polynomials": ["x" + "0" * 5000 + "1 + x02"]})
    assert main(["tropicalize", "--system", system]) == 0
    assert "f       = x2 + x1\n" in capsys.readouterr().out


def test_radius_tropical_input(capsys, tmp_path):
    s = exp_tropical_closed_form(3, 60)
    record = {"p": 3, **files.trop_series_to_dict(s)}
    path = tmp_path / "trop.json"
    files.dump_json(record, str(path))
    assert main(["radius", "--series", str(path), "--rule", "3,auto"]) == 0
    assert "r = 1" in capsys.readouterr().out


@pytest.mark.parametrize("val", ["300000000", "3000000"])
def test_radius_of_a_huge_integral_log_prints_a_power(capsys, tmp_path, val):
    """r = 3^L has more digits than Python prints: radius prints the power
    form, without computing 3^L."""
    path = tmp_path / "trop.json"
    path.write_text(json.dumps({"p": 3, "truncation": 2, "coeffs": [
        {"n": 0, "val": "0"}, {"n": 1, "val": val}, {"n": 2, "val": str(2 * int(val))}]}))
    for extra in ([], ["--rule", f"1,{val},0,nocorr"]):
        start = time.perf_counter()
        assert main(["radius", "--series", str(path), *extra]) == 0
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out.startswith(f"log_r = {val}, r = 3^({val}) (base 3)")


@pytest.mark.parametrize("rule, base, r", [
    ("2,1,0,nocorr", "7/2", "(7/2)^(1/2)"),
    ("1,3000000,0,nocorr", "7/2", "(7/2)^(3000000)"),
    ("1,2,0,nocorr", "7/2", "49/4"),
    ("2,1,0,nocorr", "3", "3^(1/2)"),
])
def test_radius_parenthesises_a_fractional_base(capsys, tmp_path, rule, base, r):
    """A power of a fractional base reads (7/2)^(1/2), not 7/2^(1/2), also
    when r has too many digits; integral bases and printed r are unchanged.
    Each series follows its rule a_(d*m) = q*m."""
    d, q = (int(x) for x in rule.split(",")[:2])
    path = tmp_path / "trop.json"
    path.write_text(json.dumps({"p": 2, "truncation": 4, "coeffs": [
        {"n": d * m, "val": str(q * m)} for m in range(4 // d + 1)]}))
    assert main(["radius", "--series", str(path), "--rule", rule, "--base", base]) == 0
    assert f", r = {r} (base {base})\n" in capsys.readouterr().out


@pytest.mark.parametrize("record, rule, message", [
    ({"truncation": 2, "coeffs": [{"n": 0, "val": "0"}]}, "p,auto",
     "--rule p,... needs a field with a prime"),
    ({"p": 3, "truncation": 2, "coeffs": [{"n": 0, "val": "0"}]}, "1,2",
     "--rule takes 'd,auto' or 'd,q,offset,corr'"),
    ({"p": 3, "truncation": 2, "coeffs": [{"n": 0, "val": "0"}]}, "1,0,0,maybe",
     "the correction flag must be corr/nocorr"),
    ({"p": 3, "truncation": 2, "coeffs": [{"n": 0, "val": "0"}]}, "0,auto",
     "the --rule stride must be p or a positive integer, not '0'"),
    ({"p": 3, "truncation": 2, "coeffs": [{"n": 0, "val": "0"}]}, "abc,auto",
     "the --rule stride must be p or a positive integer, not 'abc'"),
    ({"p": 3, "truncation": 2, "coeffs": [{"n": 0, "val": "0"}]}, "1,x,0,nocorr",
     "the --rule slope and offset must be rationals, not 'x' and '0'"),
    ({"truncation": 2, "coeffs": [{"n": 0, "val": "0"}]}, "1,1,0,corr",
     "a factorial correction in --rule needs a field with a prime"),
], ids=["stride-p-without-prime", "two-fields", "correction-flag", "stride-zero",
        "stride-not-a-number", "slope-not-a-number", "correction-without-prime"])
def test_malformed_rule_exits_2(capsys, tmp_path, record, rule, message):
    """A malformed rule is a usage error, exit 2 with a tropdiff message;
    only a rule its window contradicts exits 1."""
    path = _write(tmp_path, "trop.json", record)
    assert main(["radius", "--series", path, "--rule", rule, "--base", "2"]) == 2
    assert capsys.readouterr() == ("", f"tropdiff: {message}\n")


def test_inexact_base_change_is_marked_approximate(capsys, tmp_path):
    """log_r = 1 in base 3 is log_2(3) in base 2, which is irrational: the
    text says "(approximate)" and the report says "exact": false."""
    path = _write(tmp_path, "trop.json", {"p": 3, "truncation": 4, "coeffs": [
        {"n": n, "val": str(n)} for n in range(5)]})
    json_path = tmp_path / "radius.json"
    assert main(["radius", "--series", path, "--base2", "2", "--json", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("log_r = 1, r = 3 (base 3)")
    assert f"in base 2: log_r = {math.log(3) / math.log(2)!r} (approximate)\n" in out
    change = json.loads(json_path.read_text())["base_change"]
    assert change["base"] == "2" and change["exact"] is False
    assert float(change["log_radius"]) == pytest.approx(math.log2(3))


@pytest.mark.parametrize("rule, message", [
    ("3,1/2,0,corr", "support is not contained in 3*N"),
    ("1,-12,5,nocorr", "some multiples of the stride have infinite coefficients; "
                       "not a rule-described series"),
    ("3,auto", "support is not contained in 3*N"),
])
def test_radius_refuses_a_rule_its_window_contradicts(capsys, tmp_path, rule, message):
    """A given rule is checked against every coefficient like a fitted one:
    a contradicted rule is a mathematical failure, exit 1, with no report."""
    path = _write(tmp_path, "trop.json", {"p": 3, "truncation": 6, "coeffs": [
        {"n": 0, "val": "5"}, {"n": 1, "val": "-7"}, {"n": 4, "val": "2"}]})
    json_path = tmp_path / "radius.json"
    assert main(["radius", "--series", path, "--rule", rule, "--json", str(json_path)]) == 1
    assert capsys.readouterr() == ("", f"tropdiff: {message}\n")
    assert not json_path.exists()


def test_radius_refuses_a_window_that_two_laws_fit(capsys, tmp_path):
    """a_n = n at p = 3 follows the plain law with log_r = 1; up to t^2,
    where v_3(m!) = 0, the factorial-corrected law with log_r = 1/2 fits too."""
    for n, code in ((2, 1), (8, 0)):
        path = _write(tmp_path, "trop.json", {"p": 3, "truncation": n, "coeffs": [
            {"n": k, "val": str(k)} for k in range(n + 1)]})
        assert main(["radius", "--series", path, "--rule", "1,auto"]) == code
    assert capsys.readouterr() == (
        "log_r = 1, r = 3 (base 3)\n",
        "tropdiff: the factorial-corrected law (log_r = 1/2) and the plain law "
        "(log_r = 1) both fit the window; a longer window decides\n")


def test_verify_ft(capsys, tmp_path):
    out_path = tmp_path / "ft.json"
    assert main(["verify-ft", "--p", "3", "--count", "5", "--truncation", "16",
                 "--order", "6", "--json", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "easy-inclusion" in out and "truncation-vectors" in out
    data = json.loads(out_path.read_text())
    assert data["passed"] and len(data["steps"]) == 10


def test_seed_default_and_flag_after_first_main(capsys, tmp_path):
    """The parser is built once per process; --seed defaults to DEFAULT_SEED
    and is read on every call."""
    argv = ["verify-ft", "--p", "3", "--count", "1", "--truncation", "8", "--order", "2",
            "--json", str(tmp_path / "ft.json")]
    seeds = []
    for extra in ([], ["--seed", "5"], []):
        assert main(argv + extra) == 0
        seeds.append(json.loads((tmp_path / "ft.json").read_text())["seed"])
    capsys.readouterr()
    assert seeds == [DEFAULT_SEED, 5, DEFAULT_SEED]


def test_check_leaves_no_cyclic_garbage(capsys):
    """A `check` call without --json leaves nothing for the cyclic collector."""
    argv = ["check", "--system", str(GOLDEN / "sys.json"),
            "--candidate", str(GOLDEN / "cand.json"), "--order", "9"]
    assert main(argv) == 0  # the first call in a process builds the parser
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


def test_leading_table_built_once_per_candidate_series(capsys, monkeypatch):
    """`initial` reads every Phi(d_v^j S) of a candidate series from one table."""
    built = Counter()
    build = TropSeries._leading_table

    def counting(self):
        built[id(self)] += 1
        return build(self)

    monkeypatch.setattr(TropSeries, "_leading_table", counting)
    assert main(["initial", "--system", str(GOLDEN / "sys.json"),
                 "--candidate", str(GOLDEN / "cand.json"), "--order", "9"]) == 0
    capsys.readouterr()
    assert list(built.values()) == [1]  # sys.json has one variable


def test_usage_errors(capsys, exp_system, tmp_path):
    assert main(["check", "--system", "missing.json",
                 "--candidate", "missing.json"]) == 2
    capsys.readouterr()

    bad = tmp_path / "bad-field.json"
    bad.write_text('{"field": {"kind": "complex"}, "vars": 1, '
                   '"truncation": 4, "polynomials": ["x"]}')
    assert main(["tropicalize", "--system", str(bad)]) == 2
    capsys.readouterr()

    # candidate arity mismatch
    cand = tmp_path / "two.json"
    s = exp_tropical_closed_form(3, 18)
    files.dump_json(files.candidate_to_dict((s, s)), str(cand))
    assert main(["check", "--system", str(exp_system),
                 "--candidate", str(cand)]) == 2
    capsys.readouterr()

    # syntax error inside a system file
    bad_poly = tmp_path / "badpoly.json"
    files.dump_json({"field": {"kind": "padic", "p": 3}, "vars": 1,
                     "truncation": 4, "polynomials": ["3x"]}, str(bad_poly))
    assert main(["tropicalize", "--system", str(bad_poly)]) == 2
    capsys.readouterr()


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "tropdiff.cli", "selftest",
                           "--p", "2", "--truncation", "8", "--order", "4"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ALL PASS" in proc.stdout


def test_trivial_backend_check(capsys, tmp_path):
    sys_path = tmp_path / "triv.json"
    files.dump_json({"field": {"kind": "trivial"}, "vars": 1, "truncation": 8,
                     "polynomials": ["x' - x"]}, str(sys_path))
    # support of exp(t): every coefficient nonzero, so the candidate is all zeros
    cand = {"series": [{"truncation": 8,
                        "coeffs": [{"n": k, "val": "0"} for k in range(9)]}]}
    cand_path = tmp_path / "cand.json"
    files.dump_json(cand, str(cand_path))
    assert main(["check", "--system", str(sys_path), "--candidate", str(cand_path),
                 "--order", "4"]) == 0
    capsys.readouterr()


def test_huge_exponents_run_quickly(capsys, tmp_path):
    """Exponents of three million in a system file are squared, not multiplied
    out term by term, so `check` and `tropicalize` finish at once."""
    sys_path = tmp_path / "sys.json"
    files.dump_json({"field": {"kind": "padic", "p": 3}, "vars": 1, "truncation": 6,
                     "polynomials": ["x^3000000 - x", "t^3000000*x - x"]}, str(sys_path))
    cand_path = tmp_path / "cand.json"
    files.dump_json({"series": [{"truncation": 6, "coeffs": [{"n": 0, "val": "0"}]}]},
                    str(cand_path))
    assert main(["tropicalize", "--system", str(sys_path)]) == 0
    assert "f       = 0 - x\ntrop_v  = x\n" in capsys.readouterr().out  # t^3000000 = 0 mod t^7
    sys1_path = tmp_path / "sys1.json"
    files.dump_json({"field": {"kind": "padic", "p": 3}, "vars": 1, "truncation": 6,
                     "polynomials": ["x^3000000 - x"]}, str(sys1_path))
    assert main(["check", "--system", str(sys1_path), "--candidate", str(cand_path),
                 "--order", "2"]) == 0
    capsys.readouterr()


def test_tropicalize_prints_a_huge_coefficient_in_time(tmp_path):
    """`tropicalize` of 7^1000000*x + x' prints the 845,099-digit coefficient
    in subquadratic time: the child ends within 5 s, where a quadratic
    conversion took about 7.5 s on a 2-core machine.  Its leading digits are
    checked against `decimal`'s correctly rounded power, its last ones
    against 7^1000000 mod 10^20."""
    import decimal

    sys_path = tmp_path / "sys.json"
    files.dump_json({"field": {"kind": "padic", "p": 3}, "vars": 1, "truncation": 2,
                     "polynomials": ["7^1000000*x + x'"]}, str(sys_path))
    src = str(Path(tropdiff.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "tropdiff.cli", "tropicalize",
                           "--system", str(sys_path)], capture_output=True, text=True,
                          timeout=5, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    first = proc.stdout.splitlines()[0]
    assert first.startswith("f       = x' + ") and first.endswith("*x")
    digits = first[len("f       = x' + "):-len("*x")]
    lead = decimal.Context(prec=30).power(7, 10**6)
    assert len(digits) == lead.adjusted() + 1 == 845099
    assert digits[:25] == str(lead.scaleb(-lead.adjusted()))[:26].replace(".", "")
    assert digits[-20:] == str(pow(7, 10**6, 10**20)).zfill(20)


CAPPED_MAIN = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from tropdiff.cli import main
for argv in {cases!r}:
    print(main(argv))
"""


def test_huge_truncation_refused(tmp_path, exp_system):
    """Truncation 10^9 in any input file or option, or a --p whose default
    window exceeds the limit, exits 2 before any window exists.

    The child process is capped at 1 GiB of address space, so a reader that
    allocated 10^9 coefficients would die of MemoryError instead of exiting 2.
    """
    huge = 1e9
    field = {"kind": "padic", "p": 3}
    records = {
        "series.json": {"field": field, "truncation": huge, "coeffs": []},
        "trop.json": {"p": 3, "truncation": huge, "coeffs": []},
        "cand.json": {"series": [{"truncation": huge, "coeffs": []}]},
        "system.json": {"field": field, "vars": 1, "truncation": huge, "polynomials": ["x"]},
        "ode.json": {"field": field, "truncation": huge, "g": "1", "c0": "1"},
        "ode-g.json": {"field": field, "truncation": 4, "c0": "1",
                       "g": {"truncation": huge, "coeffs": []}},
    }
    for name, record in records.items():
        files.dump_json(record, str(tmp_path / name))
    path = {name: str(tmp_path / name) for name in records}
    cases = [
        ["radius", "--series", path["series.json"]],
        ["radius", "--series", path["trop.json"]],
        ["check", "--system", str(exp_system), "--candidate", path["cand.json"]],
        ["tropicalize", "--system", path["system.json"]],
        ["solve-linear", "--ode", path["ode.json"]],
        ["solve-linear", "--ode", path["ode-g.json"]],
        ["selftest", "--p", "3", "--truncation", "1000000000"],
        ["verify-ft", "--p", "3", "--count", "1", "--truncation", "1000000000", "--order", "2"],
        # the defaulted window N = 6p is checked as well
        ["selftest", "--p", "1000003"],
        ["verify-ft", "--p", "20011", "--count", "1", "--order", "0"],
    ]
    src = str(Path(tropdiff.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", CAPPED_MAIN.format(cases=cases)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.split() == ["2"] * len(cases), proc.stderr
    assert proc.stderr.count(f"exceeds the limit {files.MAX_TRUNCATION}") == len(cases)


# --- pinned CLI behaviour: range checks, p-scaled defaults, exit codes --------

def _write(tmp_path, name, record) -> str:
    path = tmp_path / name
    files.dump_json(record, str(path))
    return str(path)


@pytest.mark.parametrize("window, least", [(["3", "--order", "9"], 9), (["1", "--order", "0"], 2)],
                         ids=["order-above-truncation", "truncation-below-p-1"])
def test_selftest_refuses_a_window_that_cannot_hold_the_example(capsys, tmp_path, window, least):
    """d^m f cannot be derived in a window N < m, and a window N < p - 1
    cuts g's t^(p-1) term, leaving the equation x' alone: both are refused
    with exit 2, naming the flags, and write no report.  N = p - 1 and
    m = N still run, and their failures are flagged truncation-limited."""
    report = tmp_path / "selftest.json"
    assert main(["selftest", "--p", "3", "--json", str(report), "--truncation", *window]) == 2
    assert capsys.readouterr() == (
        "", f"tropdiff: selftest needs --truncation >= max(--order, p - 1) = {least}\n")
    assert not report.exists()
    assert main(["selftest", "--p", "3", "--truncation", "2", "--order", "2"]) == 1
    assert "truncation-limited)\noverall: FAILED\n" in capsys.readouterr().out


def test_solve_linear_encodes_the_solution_once(monkeypatch, capsys, tmp_path):
    """With --out and --json the report holds the written record's text,
    re-indented: both files keep the bytes json.dumps writes, and the
    record is encoded once, with or without --out."""
    records = []
    encode = files._encode

    def counted(value, newline, out):
        if isinstance(value, dict) and "coeffs" in value:
            records.append(newline)
        encode(value, newline, out)

    monkeypatch.setattr(files, "_encode", counted)
    sol, report = tmp_path / "sol.json", tmp_path / "report.json"
    solution = json.loads((GOLDEN / "sol-dense.json").read_text())
    want = json.dumps({"command": "solve-linear", "schema": files.SCHEMA_VERSION,
                       "solution": solution}, indent=2, sort_keys=True) + "\n"
    for out in (["--out", str(sol)], []):
        records.clear()
        report.unlink(missing_ok=True)
        assert main(["solve-linear", "--ode", str(GOLDEN / "ode-dense.json"), *out,
                     "--json", str(report)]) == 0
        capsys.readouterr()
        assert records == ["\n"]
        assert report.read_text() == want
    assert sol.read_bytes() == (GOLDEN / "sol-dense.json").read_bytes()


def test_range_checks_exit_2(capsys, tmp_path):
    """Each out-of-range run parameter exits 2 with its message on stderr."""
    sys_cand = ["--system", str(GOLDEN / "sys.json"), "--candidate", str(GOLDEN / "cand.json")]
    trivial_series = _write(tmp_path, "triv.json", {
        "field": {"kind": "trivial"}, "truncation": 4,
        "coeffs": [{"n": 0, "val": "1"}, {"n": 2, "val": "3"}]})
    point_series = _write(tmp_path, "t0.json", {"p": 3, "truncation": 0,
                                                "coeffs": [{"n": 0, "val": "1"}]})
    report = tmp_path / "ft.json"
    ft_window = ["verify-ft", "--count", "2", "--json", str(report), "--truncation"]
    cases = [
        (["check", *sys_cand, "--order", "-1"], "order must be >= 0"),
        (["initial", *sys_cand, "--order", "-1"], "order must be >= 0"),
        (["verify-ft", "--count", "1", "--order", "-1"], "order must be >= 0"),
        (["selftest", "--order", "-1"], "order must be >= 0"),
        (["verify-ft", "--count", "1", "--truncation", "-1"], "truncation must be >= 0"),
        (["selftest", "--truncation", "-1"], "truncation must be >= 0"),
        (["verify-ft", "--count", "0"], "count must be >= 1"),
        (["radius", "--series", str(GOLDEN / "sol.json"), "--base", "1"], "base must be > 1"),
        (["radius", "--series", trivial_series], "no base given and the field has no prime"),
        (["radius", "--series", point_series], "a window estimate needs truncation >= 1"),
        (["radius", "--series", point_series, "--window-start", "0"],
         "window must start inside the truncation window"),
        ([*ft_window, "0", "--order", "0"], "verify-ft needs order < truncation, got 0 >= 0"),
        ([*ft_window, "5", "--order", "5"], "verify-ft needs order < truncation, got 5 >= 5"),
        ([*ft_window, "5", "--order", "6"], "verify-ft needs order < truncation, got 6 >= 5"),
    ]
    for argv, message in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err == f"tropdiff: {message}\n", argv
        assert captured.out == "", argv
    assert not report.exists()  # a usage error writes no report


PADIC3_FIELD = {"kind": "padic", "p": 3}


@pytest.mark.parametrize("command, record, message", [
    ("tropicalize", {"field": PADIC3_FIELD, "vars": 0, "truncation": 4, "polynomials": ["1"]},
     "systems need at least one variable"),
    ("tropicalize", {"field": PADIC3_FIELD, "vars": 1, "truncation": -1, "polynomials": ["x"]},
     "truncation must be a natural number"),
    ("tropicalize", {"field": PADIC3_FIELD, "vars": 1, "truncation": 4, "polynomials": []},
     "system file lists no polynomials"),
    ("tropicalize", {"field": {"p": 3}, "vars": 1, "truncation": 4, "polynomials": ["x"]},
     "bad field record: 'kind'"),
    ("solve-linear", {"field": PADIC3_FIELD, "truncation": 4, "g": "1", "c0": [1, 2]},
     "coefficient arrays are for Eisenstein backends only"),
    ("tropicalize", {"field": PADIC3_FIELD, "vars": 1, "truncation": 4,
                     "polynomials": ["xa + 1"]},
     "unknown name 'xa' (at position 0)"),
], ids=["no-variables", "negative-truncation", "no-polynomials", "field-without-kind",
        "array-c0-over-padic", "unknown-name"])
def test_input_refusals_exit_2(capsys, tmp_path, command, record, message):
    """A malformed input file exits 2 with its message and prints nothing."""
    path = _write(tmp_path, "input.json", record)
    flag = "--ode" if command == "solve-linear" else "--system"
    assert main([command, flag, path]) == 2
    assert capsys.readouterr() == ("", f"tropdiff: {message}\n")


_ODE = '{"field": {"kind": "padic", "p": 3}, "truncation": 2, "g": "1", "c0": %s}'
_SYSTEM = ('{"field": {"kind": "padic", "p": %s}, "vars": %s, "truncation": %s, '
           '"polynomials": %s}')
_TROP = '{"p": %s, "truncation": %s, "coeffs": %s}'
_RADIUS = ["radius", "--series", "{input}"]
_CHECK = ["check", "--system", "{system}", "--candidate", "{input}"]
_OBJECT = "the file {input} must be a JSON object"
_NATURAL = "truncation must be a natural number"


@pytest.mark.parametrize("argv, text, code, output", [
    (["solve-linear", "--ode", "{input}"], _ODE % "123456789012345678901.5", 0,
     "t^0: 246913578024691357803/2\n"),
    ([*_RADIUS, "--window-start", "1"],
     _TROP % (3, 2, '[{"n": 0, "val": 0.1}, {"n": 1, "val": 1e400}]'), 0,
     f"log_r = {10**400}, "),
    (["tropicalize", "--system", "{input}"], _SYSTEM % (3, 1.9, 4, '["x"]'), 2,
     "'vars' must be an integer"),
    (["tropicalize", "--system", "{input}"], _SYSTEM % (3, 1, 4.9, '["x"]'), 2,
     "'truncation' must be an integer"),
    ([*_RADIUS, "--window-start", "1"], _TROP % (3, 2, '[{"n": 1.7, "val": "1"}]'), 2,
     "'n' must be an integer"),
    ([*_RADIUS, "--window-start", "1"], _TROP % ('"3"', 2, '[{"n": 1, "val": "1"}]'), 0,
     "log_r = 1, r = 3 (base 3)"),
    (["tropicalize", "--system", "{input}"], _SYSTEM % ('"3"', 1, 4, '["x\' - 3*x"]'), 0,
     "trop_v  = x' + (0, 1)*x\n"),
    (["tropicalize", "--system", "{input}"],
     _SYSTEM % ("3.0", 1, 4, '["x\' - 12157665459056928802*x"]'), 0, "trop_v  = x' + x\n"),
    (["tropicalize", "--system", "{input}"], "[]", 2, _OBJECT),
    (["tropicalize", "--system", "{input}"], "null", 2, _OBJECT),
    (["solve-linear", "--ode", "{input}"], "[]", 2, _OBJECT),
    (["solve-linear", "--ode", "{input}"], "null", 2, _OBJECT),
    (_RADIUS, "[1]", 2, _OBJECT),
    (_CHECK, "[]", 2, _OBJECT),
    (_CHECK, '{"series": [1]}', 2, "a series record must be a JSON object"),
    (_CHECK, '{"series": [{"truncation": 3, "coeffs": [5]}]}', 2,
     "a coefficient record must be a JSON object"),
    (["tropicalize", "--system", "{input}"], _SYSTEM % (3, 1, 4, "[5]"), 2,
     "a polynomial must be a JSON string"),
    (["tropicalize", "--system", "{input}"],
     '{"field": [], "vars": 1, "truncation": 4, "polynomials": ["x"]}', 2,
     "a field record must be a JSON object"),
    (["solve-linear", "--ode", "{input}"], _ODE.replace('"padic"', "1.5") % 1, 2,
     "a field's 'kind' must be a JSON string"),
    (_CHECK, '{"series": [{"truncation": -1, "coeffs": []}]}', 2, _NATURAL),
    (["initial", *_CHECK[1:]], '{"series": [{"truncation": -1, "coeffs": []}]}', 2, _NATURAL),
    ([*_RADIUS, "--rule", "1,auto"], _TROP % (3, -1, "[]"), 2, _NATURAL),
], ids=["decimal-c0-exact", "decimal-past-float-range", "decimal-vars", "decimal-truncation",
        "decimal-index", "string-p-series", "string-p-field", "integral-decimal-p",
        "system-list", "system-null", "ode-list", "ode-null", "series-list", "candidate-list",
        "candidate-number-record", "candidate-number-coefficient", "number-polynomial",
        "field-list", "number-kind",
        "negative-window-check", "negative-window-initial", "negative-window-radius"])
def test_file_values_read_exactly_or_refused(capsys, tmp_path, argv, text, code, output):
    """Decimals in a file are read exactly, not through a float; counts and
    primes are integers; a file that is not one JSON object, a record of the
    wrong JSON type or a negative window exits 2 with a message, no traceback."""
    path = tmp_path / "input.json"
    path.write_text(text)
    system = _write(tmp_path, "sys.json", {"field": PADIC3_FIELD, "vars": 1, "truncation": 4,
                                           "polynomials": ["x' - 3*x"]})
    assert main([arg.format(input=path, system=system) for arg in argv]) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert (out, err) == ("", f"tropdiff: {output.format(input=path)}\n")
    else:
        assert output in out and err == ""


def test_verify_ft_smallest_window_passes(capsys):
    """verify-ft needs m < N (g is cut to N - 1, F_m reads b_(m+1)); m = 1,
    N = 2 is inside."""
    assert main(["verify-ft", "--count", "5", "--truncation", "2", "--order", "1"]) == 0
    assert capsys.readouterr().out.endswith("overall: ALL PASS\n")


def test_radius_without_the_interpreters_digit_limit_reader(capsys, monkeypatch):
    """Interpreters before 3.10.7 have no sys.get_int_max_str_digits; radius
    reads the limit through `semiring.max_str_digits`, as the number codec does."""
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert main(["radius", "--series", str(GOLDEN / "sol.json"), "--rule", "p,auto"]) == 0
    assert "log_r = 0, r = 1" in capsys.readouterr().out


def test_check_default_order_scales_with_p(capsys, tmp_path):
    """Without --order, `check` derives to 3p, or to 6 over a field with no prime."""
    padic = _write(tmp_path, "padic.json", {"field": {"kind": "padic", "p": 3}, "vars": 1,
                                            "truncation": 18, "polynomials": ["x' - x"]})
    trivial = _write(tmp_path, "trivial.json", {"field": {"kind": "trivial"}, "vars": 1,
                                                "truncation": 8, "polynomials": ["x' - x"]})
    cand = _write(tmp_path, "zeros.json", {"series": [{
        "truncation": 8, "coeffs": [{"n": k, "val": "0"} for k in range(9)]}]})
    out = tmp_path / "check.json"
    for system, candidate, order in ((padic, str(GOLDEN / "cand.json"), 9),
                                     (trivial, cand, 6)):
        assert main(["check", "--system", system, "--candidate", candidate,
                     "--json", str(out)]) in (0, 1)
        assert json.loads(out.read_text())["order"] == order
    capsys.readouterr()


def test_verify_ft_default_window(capsys, tmp_path):
    """`verify-ft --p 3` without --truncation and --order runs at N = 6p, m = 3p."""
    out = tmp_path / "ft.json"
    assert main(["verify-ft", "--p", "3", "--json", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert (data["truncation"], data["order"]) == (18, 9)


def test_error_exit_codes(capsys, monkeypatch):
    """Mathematical failures exit 1; every other library error exits 2."""
    math_failures = {errors.NotAClassicalSolution, errors.TruncationAmbiguous,
                     errors.InvalidRule}
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.TropdiffError)]
    assert math_failures < set(classes)
    for cls in classes:
        exc = cls("raised", 7) if cls is errors.PolySyntaxError else cls("raised")

        def raiser(path, exc=exc):
            raise exc

        monkeypatch.setattr(files, "load_json", raiser)
        assert main(["tropicalize", "--system", "any.json"]) == (
            1 if cls in math_failures else 2), cls.__name__
        assert capsys.readouterr().err == f"tropdiff: {exc}\n"
