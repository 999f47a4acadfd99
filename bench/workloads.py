"""Seeded workloads of the tropdiff benchmark, with their known-answer checks.

Each workload turns a seed into input files (`generate`), parses them back
into a round of operations (`load`), runs one operation through tropdiff's
public API or its CLI entry point (`execute`, the timed part) and judges the
outcome against a known answer (`verify`, untimed).  `verify` returns the
canonical JSON report bytes the operation produced, so that report digests
can be compared between two versions of the program.

The generators and oracles here use only the standard library: candidate
solutions and expected series coefficients come from the benchmark's own
exact arithmetic in Q(zeta), zeta^(p-1) = -p, never from tropdiff.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# Module attributes, not imported names, so that a tracer's wrappers are seen.
from tropdiff import cli, files, verify as tverify


def canonical(payload: dict) -> bytes:
    """The CLI's canonical report encoding: sorted keys, indent 2, newline."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@dataclass
class Op:
    """One operation of a round: what to run and the answer it must give."""

    label: str
    params: dict
    expect: dict = field(default_factory=dict)


@dataclass
class Verdict:
    ok: bool
    reason: str
    report: bytes
    undecided: bool = False


# --- exact arithmetic in Q(zeta), zeta^(p-1) = -p, as coefficient lists ----

def qz_mul(a: list, b: list, p: int) -> list:
    d = p - 1
    out = [Fraction(0)] * d
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                k = i + j
                if k < d:
                    out[k] += x * y
                else:
                    out[k - d] -= p * x * y
    return out


def v_p(n: int, p: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def qz_valuation(a: list, p: int):
    """p-adic valuation in (1/(p-1))Z, or None for zero."""
    vals = [v_p(c.numerator, p) - v_p(c.denominator, p) + Fraction(i, p - 1)
            for i, c in enumerate(a) if c]
    return min(vals) if vals else None


def linear_solution(g: list, c0: list, n: int, p: int) -> list:
    """Coefficients 0..n of the solution of x' = g x, x(0) = c0, by recurrence."""
    zero = [Fraction(0)] * (p - 1)
    coeffs = [c0]
    for k in range(n):
        acc = list(zero)
        for j in range(min(k, len(g) - 1) + 1):
            if any(g[j]):
                acc = [u + w for u, w in zip(acc, qz_mul(g[j], coeffs[k - j], p))]
        coeffs.append([c / (k + 1) for c in acc])
    return coeffs


def scalar(q: Fraction, p: int) -> list:
    return [Fraction(q)] + [Fraction(0)] * (p - 2)


def random_rational(rng: random.Random, top: int = 5, den: int = 4) -> Fraction:
    num = rng.choice([k for k in range(-top, top + 1) if k])
    return Fraction(num, rng.randint(1, den))


def trop_series_record(coeffs: list, p: int) -> dict:
    """Tropicalization of a classical series as a tropdiff series record."""
    out = []
    for k, c in enumerate(coeffs):
        v = qz_valuation(c, p)
        if v is not None:
            out.append({"n": k, "val": fmt(v)})
    return {"truncation": len(coeffs) - 1, "coeffs": out}


def quiet_cli(argv: list) -> tuple[int, str]:
    """tropdiff.cli.main with its output captured and dropped; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def take_report(path: Path):
    """Read and remove a report the CLI wrote; None when it wrote none."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None, b""
    path.unlink()
    return json.loads(data), data


class Workload:
    name = ""
    TAIL_PCT = 75  # op_tail_s: this percentile of a round's operations, pinned per workload

    def generate(self, seed: int) -> dict[str, bytes]:
        """Input files (relative path -> bytes); the same seed gives the same bytes."""
        raise NotImplementedError

    def load(self, workdir: Path) -> list[Op]:
        """Parse the written inputs into one round of operations."""
        raise NotImplementedError

    def execute(self, op: Op):
        raise NotImplementedError

    def verify(self, op: Op, outcome) -> Verdict:
        raise NotImplementedError

    def trace_round(self, ops: list[Op]) -> list[Op]:
        """The fixed list of operations a traced run measures."""
        return ops


# --- exp-selftest ----------------------------------------------------------

EXP_STEPS = ["oracle-solution", "tropicalize-solution", "closed-form-coefficients",
             "derived-system-solution", "initial-form", "initial-ideal-monomial-free",
             "radius", "grigoriev-projection"]


@functools.lru_cache(maxsize=None)
def exp_oracle(p: int) -> tuple:
    """(index, valuation) of every finite coefficient of the tropicalized
    solution of x' = p*zeta*t^(p-1)*x, x(0) = 1, to degree 6p, by the
    benchmark's own recurrence."""
    g = [[Fraction(0)] * (p - 1) for _ in range(p)]
    g[p - 1][1] = Fraction(p)
    record = trop_series_record(linear_solution(g, scalar(Fraction(1), p), 6 * p, p), p)
    return tuple((c["n"], Fraction(c["val"])) for c in record["coeffs"])


class ExpSelftest(Workload):
    """The paper's worked example, reproduced for several primes.

    A timed round holds seven calls each for p = 3 and 5 and two for
    p = 7, in seeded order; the mix puts the median and the p75 tail among
    the p = 5 calls, not on the border between two primes.  p = 11 runs in
    the traced round only: one call takes 3 to 4 s, so a timed run holds
    only three of them, and their scaled time differed by 17% from run to
    run.

    tropdiff's PASS on "closed-form-coefficients" says its tropicalized
    solution equals its own closed form.  `verify` also checks that closed
    form against the benchmark's oracle, so the verdict does not rest on
    tropdiff alone.
    """

    name = "exp-selftest"
    ROUND = {3: 7, 5: 7, 7: 2}  # prime -> calls per timed round
    TRACED = (3, 5, 7, 11)

    def generate(self, seed):
        rng = random.Random(seed)
        primes = [p for p, calls in self.ROUND.items() for _ in range(calls)]
        rng.shuffle(primes)
        return {"ops.json": canonical({"ops": [{"p": p} for p in primes]})}

    def load(self, workdir):
        data = json.loads((workdir / "ops.json").read_text())
        return [self.op(int(rec["p"])) for rec in data["ops"]]

    @staticmethod
    def op(p: int) -> Op:
        return Op(f"selftest p={p}", {"p": p},
                  {"passed": True, "steps": EXP_STEPS, "truncation": 6 * p, "order": 3 * p,
                   "trop": exp_oracle(p)})

    def execute(self, op):
        return tverify.reproduce_exponential_example(op.params["p"])

    def verify(self, op, outcome):
        d = outcome.to_dict()
        report = canonical({"schema": files.SCHEMA_VERSION, "command": "selftest", **d})
        m = op.expect["order"]
        names = [s["name"] for s in d["steps"]]
        detail = {s["name"]: s["detail"] for s in d["steps"]}
        if d["passed"] != op.expect["passed"]:
            return Verdict(False, f"passed={d['passed']}", report)
        if names != op.expect["steps"] or not all(s["passed"] for s in d["steps"]):
            return Verdict(False, f"steps {names}", report)
        if (d["truncation"], d["order"]) != (op.expect["truncation"], m):
            return Verdict(False, f"window N={d['truncation']} m={d['order']}", report)
        if detail["derived-system-solution"] != f"all {m + 1} equations vanish up to order {m}":
            return Verdict(False, detail["derived-system-solution"], report)
        closed = files.trop_series_to_dict(
            tverify.exp_tropical_closed_form(op.params["p"], d["truncation"]))
        if tuple((c["n"], Fraction(c["val"])) for c in closed["coeffs"]) != op.expect["trop"]:
            return Verdict(False, "closed form differs from the oracle's tropicalization", report)
        return Verdict(True, "", report)

    def trace_round(self, ops):
        return [self.op(p) for p in self.TRACED]


# --- ft-random -------------------------------------------------------------

class FtRandom(Workload):
    """verify_ft on one seeded random linear ODE over Q_3 per operation."""

    name = "ft-random"
    TAIL_PCT = 90
    ROUND = 50
    P, TRUNCATION, ORDER = 3, 18, 9

    def generate(self, seed):
        rng = random.Random(seed)
        seeds = [rng.randrange(2 ** 31) for _ in range(self.ROUND)]
        return {"ops.json": canonical({"p": self.P, "truncation": self.TRUNCATION,
                                   "order": self.ORDER, "seeds": seeds})}

    def load(self, workdir):
        data = json.loads((workdir / "ops.json").read_text())
        params = {k: int(data[k]) for k in ("p", "truncation", "order")}
        return [Op(f"verify-ft seed={s}", {**params, "seed": int(s)},
                   {"passed": True, "steps": ["ode-0-easy-inclusion", "ode-0-truncation-vectors"]})
                for s in data["seeds"]]

    def execute(self, op):
        q = op.params
        return tverify.verify_ft(q["p"], 1, q["truncation"], q["order"], q["seed"])

    def verify(self, op, outcome):
        d = outcome.to_dict()
        report = canonical({"schema": files.SCHEMA_VERSION, "command": "verify-ft",
                            "seed": op.params["seed"], **d})
        if d["passed"] != op.expect["passed"]:
            return Verdict(False, f"passed={d['passed']}", report)
        names = [s["name"] for s in d["steps"]]
        if names != op.expect["steps"]:
            return Verdict(False, f"steps {names}", report)
        return Verdict(True, "", report)


# --- system-check ----------------------------------------------------------

# Nonlinear generators that vanish at (x1, x2) when x1' = G1 x1 and x2' = G2 x2.
TEMPLATES = [
    "x1'*x2 + x1*x2' - ({G1} + {G2})*x1*x2",
    "x1'*x2^2 - ({G1})*x1*x2^2",
    "x1*x2'*x2 - ({G2})*x1*x2^2",
    "x1'*x2' - ({G1})*({G2})*x1*x2",
]


def random_coefficient(rng: random.Random, p: int) -> tuple[str, list]:
    """A seeded a + b*t with Eisenstein coefficients, as text and as a list.

    Only the values are random; the shape is fixed so that every seed asks
    for the same amount of work.
    """
    poly = [[Fraction(0)] * (p - 1) for _ in range(2)]
    text = ""
    for d in range(2):
        q, e = random_rational(rng), rng.randrange(p - 1)
        poly[d][e] = q
        term = "*".join([fmt(abs(q))] + (["zeta" if e == 1 else f"zeta^{e}"] if e else [])
                        + (["t" if d == 1 else f"t^{d}"] if d else []))
        if text:
            text += (" - " if q < 0 else " + ") + term
        else:  # the grammar takes a leading "-" only at the very start of an expression
            text = ("0 - " if q < 0 else "") + term
    return text, poly


class SystemCheck(Workload):
    """`check` then `initial` through the CLI on generated two-variable systems.

    A round has one system per generator template.  Each system gets its
    exact candidate (expected: vanishing and monomial-free, both decided)
    and one perturbation of each kind (expected: the two commands agree
    wherever both verdicts are decided).
    """

    name = "system-check"
    P = 5
    ORDER = 7
    PERTURBATIONS = ("shift", "drop", "truncate")

    def generate(self, seed):
        rng = random.Random(seed)
        p = self.P
        out, ops = {}, []
        order = self.ORDER
        n = 2 * order + 6
        for i, template in enumerate(rng.sample(TEMPLATES, len(TEMPLATES))):
            (t1, g1), (t2, g2) = random_coefficient(rng, p), random_coefficient(rng, p)
            polys = [template.format(G1=t1, G2=t2), f"x1' - ({t1})*x1", f"x2' - ({t2})*x2"]
            out[f"sys-{i}.json"] = canonical({"field": {"kind": "eisenstein", "p": p}, "vars": 2,
                                          "truncation": order + 10, "polynomials": polys})
            series = [trop_series_record(
                linear_solution(g, scalar(random_rational(rng), p), n, p), p) for g in (g1, g2)]
            variants = [("solution", series)]
            for kind in self.PERTURBATIONS:
                variants.append((kind, self.perturb(rng, kind, series, order)))
            for j, (kind, cand) in enumerate(variants):
                name = f"cand-{i}-{j}.json"
                out[name] = canonical({"series": cand})
                ops.append({"system": f"sys-{i}.json", "candidate": name, "order": order,
                            "kind": kind})
        out["ops.json"] = canonical({"ops": ops})
        return out

    @staticmethod
    def perturb(rng, kind, series, order):
        """Shift one finite coefficient, drop one, or shorten one window."""
        v = rng.randrange(len(series))
        rec = json.loads(json.dumps(series[v]))
        if kind == "shift":
            c = rng.choice(rec["coeffs"])
            c["val"] = fmt(Fraction(c["val"]) + random_rational(rng, 2, 2))
        elif kind == "drop":
            rec["coeffs"].remove(rng.choice(rec["coeffs"]))
        else:
            rec["truncation"] = rng.randint(1, order)
            rec["coeffs"] = [c for c in rec["coeffs"] if c["n"] <= rec["truncation"]]
        out = list(series)
        out[v] = rec
        return out

    def load(self, workdir):
        data = json.loads((workdir / "ops.json").read_text())
        ops = []
        for k, rec in enumerate(data["ops"]):
            system = workdir / rec["system"]
            backend, nvars, _, _ = files.system_from_dict(files.load_json(str(system)))
            candidate = workdir / rec["candidate"]
            files.candidate_from_dict(files.load_json(str(candidate)), backend.nat_val)
            order = int(rec["order"])
            expect = ({"check": 0, "initial": 0, "verdict": f"MONOMIAL_FREE_UP_TO_{order}"}
                      if rec["kind"] == "solution" else {"consistent": True})
            ops.append(Op(f"{rec['kind']} {rec['candidate']}",
                          {"system": str(system), "candidate": str(candidate),
                           "order": str(order), "reports": str(workdir / f"report-{k}")},
                          expect))
        return ops

    def execute(self, op):
        q = op.params
        common = ["--system", q["system"], "--candidate", q["candidate"], "--order", q["order"]]
        rc_check, err_check = quiet_cli(["check", *common, "--json", q["reports"] + "-check.json"])
        rc_init, err_init = quiet_cli(["initial", *common, "--json", q["reports"] + "-initial.json"])
        return rc_check, rc_init, err_check + err_init

    def verify(self, op, outcome):
        rc_check, rc_init, err = outcome
        check, check_bytes = take_report(Path(op.params["reports"] + "-check.json"))
        init, init_bytes = take_report(Path(op.params["reports"] + "-initial.json"))
        report = check_bytes + init_bytes
        if rc_check not in (0, 1) or rc_init not in (0, 1) or check is None:
            return Verdict(False, f"exit codes {rc_check}/{rc_init}: {err.strip()}", report)
        check_decided = not check["truncation_limited"]
        init_decided = init is not None  # no report: TruncationAmbiguous was raised
        if "consistent" not in op.expect:
            want = op.expect
            ok = (rc_check == want["check"] and rc_init == want["initial"] and check_decided
                  and init is not None and init["verdict"] == want["verdict"])
            return Verdict(ok, "" if ok else f"exit codes {rc_check}/{rc_init}", report)
        if check_decided and init_decided:
            ok = (rc_check == rc_init) == op.expect["consistent"]
            return Verdict(ok, "" if ok else f"check exit {rc_check}, initial exit {rc_init}",
                           report)
        # A truncation-qualified verdict decides nothing, so there is nothing to compare.
        return Verdict(True, "", report, undecided=True)


# --- long-series -----------------------------------------------------------

class LongSeries(Workload):
    """`solve-linear --out` to a long truncation, then `radius` on the file it wrote."""

    name = "long-series"
    # (right-hand side, p, truncation).  The two dense p = 5 cases take about
    # twice as long as the others and make up 40% of a round, so the p75
    # tail falls among them rather than on the border between two cases.
    CASES = (("exp", 3, 700), ("exp", 5, 560), ("dense", 3, 56),
             ("dense", 5, 60), ("dense", 5, 60))
    CHECK_INDEX = 24

    def generate(self, seed):
        rng = random.Random(seed)
        out, ops = {}, []
        for i, (kind, p, n) in enumerate(self.CASES):
            # c0 = 1 as in the paper; other values change the cost by up to 2x
            c0 = Fraction(1)
            record = {"field": {"kind": "eisenstein", "p": p}, "truncation": n,
                      "c0": fmt(c0)}
            op = {"ode": f"ode-{i}.json", "kind": kind, "p": p}
            if kind == "exp":
                record["g"] = f"{p}*zeta*t^{p - 1}"
                op["log_radius"] = "0"
            else:
                g = [[random_rational(rng, 9, 1) for _ in range(p - 1)] for _ in range(n)]
                record["g"] = {"truncation": n - 1,
                               "coeffs": [{"n": k, "val": [fmt(q) for q in c]}
                                          for k, c in enumerate(g)]}
                k = min(self.CHECK_INDEX, n)
                op["index"] = k
                op["coeff"] = [fmt(q) for q in linear_solution(g, scalar(c0, p), k, p)[k]]
            out[f"ode-{i}.json"] = canonical(record)
            ops.append(op)
        out["ops.json"] = canonical({"ops": ops})
        return out

    def load(self, workdir):
        data = json.loads((workdir / "ops.json").read_text())
        ops = []
        for k, rec in enumerate(data["ops"]):
            ode = workdir / rec["ode"]
            files.ode_from_dict(files.load_json(str(ode)))
            expect = ({"log_radius": rec["log_radius"]} if rec["kind"] == "exp"
                      else {"index": rec["index"], "coeff": rec["coeff"]})
            ops.append(Op(f"{rec['kind']} p={rec['p']} {rec['ode']}",
                          {"ode": str(ode), "rule": rec["kind"] == "exp",
                           "out": str(workdir / f"sol-{k}.json"),
                           "reports": str(workdir / f"report-{k}")},
                          expect))
        return ops

    def execute(self, op):
        q = op.params
        rc_solve, err_solve = quiet_cli(["solve-linear", "--ode", q["ode"], "--out", q["out"],
                                         "--json", q["reports"] + "-solve.json"])
        rule = ["--rule", "p,auto"] if q["rule"] else []
        rc_radius, err_radius = quiet_cli(["radius", "--series", q["out"], *rule,
                                           "--json", q["reports"] + "-radius.json"])
        return rc_solve, rc_radius, err_solve + err_radius

    def verify(self, op, outcome):
        rc_solve, rc_radius, err = outcome
        _, solve_bytes = take_report(Path(op.params["reports"] + "-solve.json"))
        radius, radius_bytes = take_report(Path(op.params["reports"] + "-radius.json"))
        solution, _ = take_report(Path(op.params["out"]))
        report = solve_bytes + radius_bytes
        if rc_solve or rc_radius or radius is None or solution is None:
            return Verdict(False, f"exit codes {rc_solve}/{rc_radius}: {err.strip()}", report)
        if "log_radius" in op.expect:
            ok = radius["log_radius"] == op.expect["log_radius"]
            return Verdict(ok, "" if ok else f"log_r = {radius['log_radius']}", report)
        k = op.expect["index"]
        got = next((c["val"] for c in solution["coeffs"] if c["n"] == k), None)
        want = op.expect["coeff"]
        ok = got is not None and [Fraction(x) for x in got] == [Fraction(x) for x in want]
        return Verdict(ok, "" if ok else f"coefficient {k}: {got} != {want}", report)


WORKLOADS = {w.name: w for w in (ExpSelftest(), FtRandom(), SystemCheck(), LongSeries())}
