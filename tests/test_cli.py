import gc
import json
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
    cs[3] = TropNum(cs[3].value + 1)
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
        {"n": 1, "val": val}, {"n": 2, "val": str(2 * int(val))}]}))
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
    when r has too many digits; integral bases and printed r are unchanged."""
    path = tmp_path / "trop.json"
    path.write_text(json.dumps({"p": 2, "truncation": 4, "coeffs": [{"n": 0, "val": "0"}]}))
    assert main(["radius", "--series", str(path), "--rule", rule, "--base", base]) == 0
    assert f", r = {r} (base {base})\n" in capsys.readouterr().out


def test_verify_ft(capsys, tmp_path):
    out_path = tmp_path / "ft.json"
    assert main(["verify-ft", "--p", "3", "--count", "5", "--truncation", "16",
                 "--order", "6", "--json", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "easy-inclusion" in out and "truncation-vectors" in out
    data = json.loads(out_path.read_text())
    assert data["passed"] and len(data["steps"]) == 10


def test_seed_env_override(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("TROPDIFF_SEED", "424242")
    out_path = tmp_path / "ft.json"
    assert main(["verify-ft", "--p", "3", "--count", "2",
                 "--truncation", "12", "--order", "4",
                 "--json", str(out_path)]) == 0
    capsys.readouterr()
    assert json.loads(out_path.read_text())["seed"] == 424242


def test_seed_env_read_after_first_main(capsys, monkeypatch, tmp_path):
    """The parser is built once per process; TROPDIFF_SEED is still read per call."""
    argv = ["verify-ft", "--p", "3", "--count", "1", "--truncation", "8", "--order", "2",
            "--json", str(tmp_path / "ft.json")]
    monkeypatch.delenv("TROPDIFF_SEED", raising=False)
    seeds = []
    for value in (None, "424242", "7", None):
        if value is not None:
            monkeypatch.setenv("TROPDIFF_SEED", value)
        else:
            monkeypatch.delenv("TROPDIFF_SEED", raising=False)
        assert main(argv) == 0
        seeds.append(json.loads((tmp_path / "ft.json").read_text())["seed"])
    assert main(argv[:-2] + ["--seed", "5", "--json", argv[-1]]) == 0
    seeds.append(json.loads((tmp_path / "ft.json").read_text())["seed"])
    capsys.readouterr()
    assert seeds == [DEFAULT_SEED, 424242, 7, DEFAULT_SEED, 5]


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


def test_range_checks_exit_2(capsys, tmp_path):
    """Each out-of-range run parameter exits 2 with its message on stderr."""
    sys_cand = ["--system", str(GOLDEN / "sys.json"), "--candidate", str(GOLDEN / "cand.json")]
    trivial_series = _write(tmp_path, "triv.json", {
        "field": {"kind": "trivial"}, "truncation": 4,
        "coeffs": [{"n": 0, "val": "1"}, {"n": 2, "val": "3"}]})
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
    ]
    for argv, message in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err == f"tropdiff: {message}\n", argv
        assert captured.out == "", argv


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
