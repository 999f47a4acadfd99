"""Byte-identity of canonical reports against committed golden files.

The files under tests/golden/ are canonical CLI reports; any change to
their bytes is a change of behaviour.  Inputs are the README's
examples: sys.json, ode.json, the solve-linear output sol.json, and
cand.json, which is sol.json tropicalized (`tropicalize_series`, written
with `candidate_to_dict`).  ode-dense.json is an Eisenstein p=5 equation
whose right-hand side g (truncation 59) has seeded rational coefficients
with numerators of up to three digits over one-digit denominators; its
solution sol-dense.json has numerators and denominators of up to 1,059
bits, and radius-dense.json is the radius report on that solution.
sys2-padic.json and sys2-trivial.json hold one nonlinear 2-variable
system over padic 5 and over trivial; their tropicalize reports cover
non-identity rank-2 coefficients, a constant term and signs.

The failure paths exit 1.  cand-shift.json is cand.json with the
coefficient at n = 3 raised from 1/2 to 3/2, so `check` fails and
`initial` finds a monomial initial form.  sys-ambiguous.json
(x' - x and x'' + 3*x over padic 3) with cand-ambiguous.json (0 + 0t + 0t^2,
truncation 2) at order 4 gives `check` rows flagged truncation-limited,
and `initial` raises TruncationAmbiguous: no report, the message of
initial-ambiguous.stderr on stderr.

sys-p5.json is a two-variable system over Q(zeta), p = 5 (value group
(1/4)Z), in the shape of the benchmark's system-check systems: one
nonlinear generator and x1' - G1*x1, x2' - G2*x2.  cand-p5.json is the
tropicalized solution with the x1 coefficient at n = 2 set to 1/3, a value
outside (1/4)Z, and the x2 coefficients past n = 3 dropped, so `check`
fails and has truncation-limited rows that do not make `initial` ambiguous.

Every run's stdout is pinned too, in <name>.stdout beside its report.
"""

from pathlib import Path

import pytest

from tropdiff import files
from tropdiff.cli import main
from tropdiff.series import tropicalize_series

GOLDEN = Path(__file__).parent / "golden"


def golden(name: str) -> str:
    return str(GOLDEN / name)


CASES = [
    *((f"selftest-p{p}.json", ["selftest", "--p", str(p)]) for p in (2, 3, 5, 7)),
    ("verify-ft.json", ["verify-ft", "--count", "50"]),
    ("check.json", ["check", "--system", golden("sys.json"),
                    "--candidate", golden("cand.json"), "--order", "9"]),
    ("initial.json", ["initial", "--system", golden("sys.json"),
                      "--candidate", golden("cand.json"), "--order", "9"]),
    ("radius.json", ["radius", "--series", golden("sol.json"), "--rule", "p,auto"]),
    ("radius-dense.json", ["radius", "--series", golden("sol-dense.json")]),
    *((f"tropicalize-{name}.json", ["tropicalize", "--system", golden(f"{name}.json")])
      for name in ("sys", "sys2-padic", "sys2-trivial")),
    ("check-shift.json", ["check", "--system", golden("sys.json"),
                          "--candidate", golden("cand-shift.json"), "--order", "9"]),
    ("initial-shift.json", ["initial", "--system", golden("sys.json"),
                            "--candidate", golden("cand-shift.json"), "--order", "9"]),
    ("check-ambiguous.json", ["check", "--system", golden("sys-ambiguous.json"),
                              "--candidate", golden("cand-ambiguous.json"), "--order", "4"]),
    ("tropicalize-sys-p5.json", ["tropicalize", "--system", golden("sys-p5.json")]),
    *((f"{command}-p5.json", [command, "--system", golden("sys-p5.json"),
                              "--candidate", golden("cand-p5.json"), "--order", "4"])
      for command in ("check", "initial")),
]
FAILING = {"check-shift.json", "initial-shift.json", "check-ambiguous.json",
           "check-p5.json", "initial-p5.json"}  # exit 1


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_report_matches_golden(name, argv, tmp_path, capsys):
    out = tmp_path / name
    assert main(argv + ["--json", str(out)]) == (1 if name in FAILING else 0)
    stdout = capsys.readouterr().out
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
    assert stdout == (GOLDEN / name.replace(".json", ".stdout")).read_text()


def test_ambiguous_initial_matches_golden(tmp_path, capsys):
    out = tmp_path / "initial-ambiguous.json"
    assert main(["initial", "--system", golden("sys-ambiguous.json"),
                 "--candidate", golden("cand-ambiguous.json"), "--order", "4",
                 "--json", str(out)]) == 1
    captured = capsys.readouterr()
    assert not out.exists()
    assert captured.out == ""
    assert captured.err == (GOLDEN / "initial-ambiguous.stderr").read_text()


def test_solution_and_candidate_match_golden(tmp_path, capsys):
    sol = tmp_path / "sol.json"
    assert main(["solve-linear", "--ode", golden("ode.json"), "--out", str(sol)]) == 0
    capsys.readouterr()
    assert sol.read_bytes() == (GOLDEN / "sol.json").read_bytes()

    data = files.load_json(str(sol))
    series = tropicalize_series(files.series_from_dict(data, files.field_from_dict(data["field"])))
    cand = tmp_path / "cand.json"
    files.dump_json(files.candidate_to_dict((series,)), str(cand))
    assert cand.read_bytes() == (GOLDEN / "cand.json").read_bytes()


def test_dense_solution_matches_golden(tmp_path, capsys):
    sol = tmp_path / "sol-dense.json"
    assert main(["solve-linear", "--ode", golden("ode-dense.json"), "--out", str(sol)]) == 0
    capsys.readouterr()
    assert sol.read_bytes() == (GOLDEN / "sol-dense.json").read_bytes()
