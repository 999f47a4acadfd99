"""Command-line interface: tropicalize, check, initial, radius, solve-linear, verify-ft, selftest.

Exit codes: 0 success / all checks pass, 1 mathematical failure (a candidate
is not a solution, a monomial initial form exists, a report step fails),
2 usage or input errors.  All numeric output is exact-rational text; report
files are canonical JSON (stable key order, no timestamps), so identical
configuration and seed reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import files
from .diffpoly import derived_system, is_tropical_solution, tropicalize_poly
from .errors import InvalidRule, NotAClassicalSolution, TropdiffError, TruncationAmbiguous
from .initial import initial_system_monomial_check
from .parser import print_poly
from .radius import (
    RadiusRule,
    base_change,
    check_rule,
    describe_radius,
    fit_rule,
    radius_from_rule,
    radius_window_estimate,
)
from .semiring import NatValuation, TropNum, format_rational, parse_rational
from .series import sigma0, tropicalize_series
from .verify import (
    DEFAULT_SEED,
    default_window,
    reproduce_exponential_example,
    solve_linear,
    verify_ft,
)


def _order(p: Optional[int], order: Optional[int]) -> int:
    """m from --order after its range check, defaulted from p when unset."""
    if order is not None and order < 0:
        raise ValueError("order must be >= 0")
    return default_window(p, None, order)[1]


def _window(p: Optional[int], truncation: Optional[int], order: Optional[int]) -> tuple[int, int]:
    """(N, m) from --truncation and --order, unset ones defaulted from p.

    N, given or defaulted, is refused above files.MAX_TRUNCATION.
    """
    if truncation is not None and truncation < 0:
        raise ValueError("truncation must be >= 0")
    n = files.limit_truncation(default_window(p, truncation)[0])
    return n, _order(p, order)


def _write_json(path: Optional[str], payload: dict):
    if path:
        files.dump_json({"schema": files.SCHEMA_VERSION, **payload}, path)


def _report_line(rep, value: str, label: str) -> str:
    extra = " (truncation-limited)" if rep.truncation_limited else ""
    verdict = "OK  " if rep.vanishes else "FAIL"
    return (f"  [{verdict}] {label}: value {value}, "
            f"min attained {len(rep.attainment)}x{extra}")


def cmd_tropicalize(args) -> int:
    backend, nvars, truncation, polys = files.system_from_dict(files.load_json(args.system))
    records = []
    for f in polys:
        trop = tropicalize_poly(f).map(TropNum)
        grig = trop.map(sigma0)
        records.append({"input": print_poly(f), "rank2": print_poly(trop, backend.nat_val),
                        "grigoriev": print_poly(grig)})
        print(f"f       = {records[-1]['input']}")
        print(f"trop_v  = {records[-1]['rank2']}")
        print(f"trop_w  = {records[-1]['grigoriev']}")
    _write_json(args.json, {"command": "tropicalize", "field": files.field_to_dict(backend),
                            "vars": nvars, "truncation": truncation, "polynomials": records})
    return 0


def _derive_and_evaluate(args):
    """Load system and candidate, derive to order m, evaluate each equation once.

    Returns the report header, the derived families and their solution
    table, which `check` and `initial` both read their verdicts off, and the
    field's valuation unit.
    """
    backend, nvars, truncation, polys = files.system_from_dict(files.load_json(args.system))
    candidate = files.candidate_from_dict(files.load_json(args.candidate), backend.nat_val)
    if len(candidate) != nvars:
        raise ValueError(f"system has {nvars} variable(s), candidate has {len(candidate)}")
    m = _order(backend.p, args.order)
    families = [derived_system(f, m) for f in polys]
    solution = is_tropical_solution(
        [tropicalize_poly(g) for family in families for g in family], candidate)
    header = {"field": files.field_to_dict(backend), "vars": nvars,
              "truncation": truncation, "order": m}
    return header, families, solution, backend.nat_val


def cmd_check(args) -> int:
    header, families, report, nat_val = _derive_and_evaluate(args)
    labels = [(l, k) for l, family in enumerate(families) for k in range(len(family))]
    print(f"check: {len(families)} generator(s), derived to order m = {header['order']}, "
          f"truncation N = {header['truncation']}")
    values = [nat_val.to_text(rep.value) for rep in report.reports]
    for (l, k), rep, value in zip(labels, report.reports, values):
        print(_report_line(rep, value, f"generator {l}, d^{k}"))
    records = [{"generator": l, "order": k, "vanishes": rep.vanishes,
                "value": value, "attained": len(rep.attainment),
                "truncation_limited": rep.truncation_limited}
               for (l, k), rep, value in zip(labels, report.reports, values)]
    _write_json(args.json, {"command": "check", **header,
                            "all_vanish": report.all_vanish,
                            "truncation_limited": report.truncation_limited,
                            "equations": records})
    if report.all_vanish:
        qualifier = " (up to truncation)" if report.truncation_limited else ""
        print(f"verdict: tropical solution of the derived system{qualifier}")
        return 0
    l, k = labels[report.failing[0]]
    print(f"verdict: NOT a tropical solution; first failure at generator {l}, "
          f"derivative order {k}")
    return 1


def cmd_initial(args) -> int:
    header, families, solution, _ = _derive_and_evaluate(args)
    check = initial_system_monomial_check(families, solution)
    records = []
    for (l, k), form in check.initials:
        text = print_poly(form)
        records.append({"generator": l, "order": k, "initial_form": text,
                        "monomial": (l, k) in check.witnesses})
        print(f"in_S(d^{k} f_{l}) = {text}")
    _write_json(args.json, {"command": "initial", **header,
                            "verdict": check.verdict, "initial_forms": records})
    print(f"verdict: {check.verdict}")
    if not check.monomial_free:
        l, k = check.witnesses[0]
        print(f"monomial witness: generator {l}, derivative order {k}")
        return 1
    return 0


def _parse_rule_spec(spec: str, p: Optional[int], series) -> RadiusRule:
    """The rule of `--rule`, fitted or checked against `series`.

    A malformed spec is a usage error (ValueError); only a rule the window
    contradicts raises InvalidRule.
    """
    parts = [s.strip() for s in spec.split(",")]
    try:
        stride = p if parts[0] == "p" else int(parts[0])
    except ValueError:
        stride = 0
    if stride is None:
        raise ValueError("--rule p,... needs a field with a prime")
    if stride < 1:
        raise ValueError(f"the --rule stride must be p or a positive integer, not {parts[0]!r}")
    if len(parts) == 2 and parts[1] == "auto":
        return fit_rule(series, stride, p)
    if len(parts) != 4:
        raise ValueError("--rule takes 'd,auto' or 'd,q,offset,corr'")
    try:
        slope, offset = parse_rational(parts[1]), parse_rational(parts[2])
    except ValueError:
        raise ValueError(f"the --rule slope and offset must be rationals, not "
                         f"{parts[1]!r} and {parts[2]!r}") from None
    corr = {"corr": True, "nocorr": False, "1": True, "0": False}.get(parts[3])
    if corr is None:
        raise ValueError("the correction flag must be corr/nocorr")
    if corr and p is None:
        raise ValueError("a factorial correction in --rule needs a field with a prime")
    return check_rule(RadiusRule(stride, slope, offset, corr, p), series)


def cmd_radius(args) -> int:
    data = files.load_json(args.series)
    if "field" in data:
        backend = files.field_from_dict(data["field"])
        series = tropicalize_series(files.series_from_dict(data, backend))
        p = backend.p
    else:
        p = files.read_prime(data)
        series = files.trop_series_from_dict(data, NatValuation(p))
    if args.base:
        base = parse_rational(args.base)
        if base <= 1:
            raise ValueError("base must be > 1")
    elif p:
        base = Fraction(p)
    else:
        raise ValueError("no base given and the field has no prime")
    base2 = parse_rational(args.base2) if args.base2 else None
    if args.rule:
        estimate = radius_from_rule(_parse_rule_spec(args.rule, p, series))
    else:
        estimate = radius_window_estimate(series, args.window_start)
    print(describe_radius(estimate, base))
    payload = {"command": "radius", "kind": estimate.kind,
               "log_radius": estimate.log_str(),
               "base": format_rational(base),
               "truncation": series.truncation,
               "window": list(estimate.window) if estimate.window else None,
               "caveat": estimate.caveat}
    if base2 is not None:
        change = base_change(estimate, base, base2)
        rendered = (format_rational(change.new_log_radius)
                    if isinstance(change.new_log_radius, Fraction)
                    else str(change.new_log_radius))
        print(f"in base {format_rational(change.new_base)}: log_r = {rendered}"
              f"{'' if change.exact else ' (approximate)'}")
        payload["base_change"] = {"base": format_rational(change.new_base),
                                  "log_radius": rendered, "exact": change.exact}
    _write_json(args.json, payload)
    return 0


def cmd_solve_linear(args) -> int:
    ode = files.ode_from_dict(files.load_json(args.ode))
    sol = solve_linear(ode)
    backend = sol.backend
    print(f"solution of x' = g*x over {backend.describe()}, truncation {sol.truncation}")
    shown = 0
    for k, c in sol.terms:
        print(f"  t^{k}: {c}")
        shown += 1
        if shown >= 12 and k < sol.truncation - 1:
            print("  ...")
            break
    record = {"field": files.field_to_dict(backend), **files.series_to_dict(sol)}
    if args.out or args.json:  # encoded once, and the report holds the text
        record = files.dump_json(record, args.out)
    if args.out:
        print(f"series written to {args.out}")
    _write_json(args.json, {"command": "solve-linear", "solution": record})
    return 0


def cmd_verify_ft(args) -> int:
    n, m = _window(args.p, args.truncation, args.order)
    if args.count < 1:
        raise ValueError("count must be >= 1")
    report = verify_ft(args.p, args.count, n, m, args.seed)
    print(report.format_text())
    _write_json(args.json, {"command": "verify-ft", "seed": args.seed, **report.to_dict()})
    return 0 if report.passed else 1


def cmd_selftest(args) -> int:
    n, m = _window(args.p, args.truncation, args.order)
    report = reproduce_exponential_example(args.p, n, m)
    print(report.format_text())
    _write_json(args.json, {"command": "selftest", **report.to_dict()})
    return 0 if report.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    argparse trees are reference cycles, so a parser per call would leave
    its objects to the cyclic collector.
    """
    top = argparse.ArgumentParser(
        prog="tropdiff",
        description="Exact tropical differential algebra over valued power-series rings.")
    sub = top.add_subparsers(dest="subcommand", required=True)

    p_trop = sub.add_parser("tropicalize", help="tropicalize the polynomials of a system file")
    p_trop.add_argument("--system", required=True)
    p_trop.add_argument("--json", help="write a machine-readable report")
    p_trop.set_defaults(func=cmd_tropicalize)

    p_check = sub.add_parser("check", help="check a candidate against a derived tropical system")
    p_check.add_argument("--system", required=True)
    p_check.add_argument("--candidate", required=True)
    p_check.add_argument("--order", type=int, help="derive generators to this order (default 3p)")
    p_check.add_argument("--json")
    p_check.set_defaults(func=cmd_check)

    p_init = sub.add_parser("initial", help="initial forms of the derived system at a candidate")
    p_init.add_argument("--system", required=True)
    p_init.add_argument("--candidate", required=True)
    p_init.add_argument("--order", type=int)
    p_init.add_argument("--json")
    p_init.set_defaults(func=cmd_initial)

    p_rad = sub.add_parser("radius", help="tropical radius of convergence of a series file")
    p_rad.add_argument("--series", required=True)
    p_rad.add_argument("--rule", help="'d,q,offset,corr' or 'd,auto' (d may be the letter p)")
    p_rad.add_argument("--window-start", type=int, dest="window_start")
    p_rad.add_argument("--base", help="rational base > 1 (default: the field prime)")
    p_rad.add_argument("--base2", help="also express the radius in this base")
    p_rad.add_argument("--json")
    p_rad.set_defaults(func=cmd_radius)

    p_solve = sub.add_parser("solve-linear", help="solve x' = g*x exactly by recurrence")
    p_solve.add_argument("--ode", required=True)
    p_solve.add_argument("--out", help="write the solution as a series file")
    p_solve.add_argument("--json")
    p_solve.set_defaults(func=cmd_solve_linear)

    p_ft = sub.add_parser("verify-ft", help="fundamental-theorem checks on random linear ODEs")
    p_ft.add_argument("--p", type=int, default=3)
    p_ft.add_argument("--count", type=int, default=50)
    p_ft.add_argument("--truncation", type=int)
    p_ft.add_argument("--order", type=int)
    p_ft.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_ft.add_argument("--json")
    p_ft.set_defaults(func=cmd_verify_ft)

    p_self = sub.add_parser("selftest", help="reproduce the worked p-adic exponential example")
    p_self.add_argument("--p", type=int, default=3)
    p_self.add_argument("--truncation", type=int)
    p_self.add_argument("--order", type=int)
    p_self.add_argument("--json")
    p_self.set_defaults(func=cmd_selftest)
    return top


MATH_ERRORS = (NotAClassicalSolution, TruncationAmbiguous, InvalidRule)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MATH_ERRORS as exc:
        print(f"tropdiff: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, TropdiffError) as exc:
        print(f"tropdiff: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
