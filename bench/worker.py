"""One workload in one fresh process: set up, then a closed loop or a traced round.

Started by run.py as

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --spawn-ns T [--setup-only]

where T is the parent's time.monotonic_ns() just before the spawn, so that
set-up time runs from process start to the moment the first operation is
ready.  Prints one JSON object on its last line of output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def import_tropdiff():
    """Import tropdiff from this checkout's sources, never from anywhere else."""
    if not (SRC / "tropdiff" / "__init__.py").is_file():
        raise SystemExit(f"bench: no tropdiff sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tropdiff
    if Path(tropdiff.__file__).resolve().parent != SRC / "tropdiff":
        raise SystemExit(f"bench: imported tropdiff from {tropdiff.__file__}, not {SRC}")


def write_inputs(workload, seed: int, workdir: Path) -> str:
    """Generate and write the workload's input files; returns their SHA-256."""
    inputs = workload.generate(seed)
    digest = hashlib.sha256()
    for rel in sorted(inputs):
        path = workdir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(inputs[rel])
        digest.update(rel.encode() + b"\0" + inputs[rel])
    return digest.hexdigest()


def run_ops(workload, ops, seconds=None) -> dict:
    """Closed loop, one client: the next operation starts when the previous returns.

    Runs whole rounds of `ops` until the operations' own time, scaled to
    full machine speed (see speed.py), reaches `seconds`; a single round when
    `seconds` is None.  So every run does the same number of rounds however
    busy the machine is.  Only `execute` is timed; the known-answer check
    runs between operations.
    """
    latencies, raw, failures = [], [], []
    undecided = 0
    reports = hashlib.sha256()
    rounds = 0
    before = speed.reference_s()
    while True:
        for op in ops:
            start = time.perf_counter_ns()
            try:
                outcome, error = workload.execute(op), None
            except Exception:  # an unexpected error is a failed operation, not a crash
                outcome, error = None, traceback.format_exc(limit=1).strip()
            raw.append((time.perf_counter_ns() - start) / 1e9)
            after = speed.reference_s()
            latencies.append(raw[-1] * speed.REFERENCE_S * 2 / (before + after))
            before = after
            if error:
                failures.append(f"{op.label}: {error}")
                continue
            try:
                verdict = workload.verify(op, outcome)
            except Exception:
                failures.append(f"{op.label}: check raised {traceback.format_exc(limit=1).strip()}")
                continue
            if rounds == 0:
                reports.update(verdict.report)
            undecided += verdict.undecided
            if not verdict.ok:
                failures.append(f"{op.label}: {verdict.reason}")
        rounds += 1
        if seconds is None or sum(latencies) >= seconds:
            break
    return {"latencies": latencies, "raw_latencies": raw,
            "failed": len(failures), "failures": failures[:5],
            "undecided": undecided, "rounds": rounds, "reports_sha256": reports.hexdigest()}


def layer_metrics(tracer) -> dict:
    inclusive, own = tracer.times()
    counts = tracer.counts

    def ratio(name):
        distinct, calls = tracer.useful(name)
        return (distinct / calls if calls else 0.0), f"{distinct} distinct / {calls} calls"

    diff_ratio, diff_base = ratio("diffpoly.diff")
    trop_ratio, trop_base = ratio("series.trop_diff_calls")
    metrics = {
        "diffpoly.diff_calls": counts["diffpoly.diff_calls"],
        "diffpoly.diff_useful_ratio": diff_ratio,
        "diffpoly.diff_s": inclusive["diffpoly.diff"],
        "diffpoly.derived_system_s": inclusive["diffpoly.derived_system"],
        "diffpoly.f_lr_s": inclusive["diffpoly.f_lr"],
        "diffpoly.terms_out": counts["diffpoly.terms_out"],
        "diffpoly.eval_tropical_calls": counts["diffpoly.eval_tropical_calls"],
        "diffpoly.eval_tropical_s": inclusive["diffpoly.eval_tropical"],
        "diffpoly.eval_classical_s": inclusive["diffpoly.eval_classical"],
        "series.trop_diff_calls": counts["series.trop_diff_calls"],
        "series.trop_diff_useful_ratio": trop_ratio,
        "series.mul_calls": counts["series.mul_calls"],
        "series.derivative_calls": counts["series.derivative_calls"],
        "fields.mul_calls": counts["fields.mul_calls"],
        "fields.add_calls": counts["fields.add_calls"],
        "fields.max_bits": tracer.max_bits,
        "semiring.trop_ops": counts["semiring.trop_ops"],
        "initial.initial_form_calls": counts["initial.initial_form_calls"],
        "initial.initial_form_s": inclusive["initial.initial_form"],
        "initial.monomial_check_s": inclusive["initial.monomial_check"],
        "initial.ambiguous_count": counts["initial.ambiguous_count"],
        "verify.solve_linear_s": inclusive["verify.solve_linear"],
        "radius.s": inclusive["radius"],
        "files.load_s": inclusive["files.load"],
        "files.dump_s": inclusive["files.dump"],
        "parser.parse_s": inclusive["parser.parse"],
        "parser.print_s": inclusive["parser.print"],
        "cli.self_s": own["cli.main"],
    }
    notes = {"diffpoly.diff_useful_ratio": diff_base, "series.trop_diff_useful_ratio": trop_base}
    return metrics, notes


def traced_run(workload, ops, spans_path) -> dict:
    """The workload's fixed trace round, once untraced and once traced."""
    from tracing import Tracer

    ops = workload.trace_round(ops)
    plain = run_ops(workload, ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_ops(workload, ops)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    metrics, notes = layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = sum(traced["latencies"]) / sum(plain["latencies"])
    notes["trace.overhead_ratio"] = (f"{sum(traced['latencies']):.3f} s traced / "
                                     f"{sum(plain['latencies']):.3f} s untraced")
    return {**traced, "failed": plain["failed"] + traced["failed"],
            "failures": (plain["failures"] + traced["failures"])[:5],
            "attempted": len(plain["latencies"]) + len(traced["latencies"]),
            "reports_match": plain["reports_sha256"] == traced["reports_sha256"],
            "layers": metrics, "notes": notes, "spans": str(spans_path.relative_to(ROOT))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_tropdiff()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        digest = write_inputs(workload, args.seed, workdir)
        ops = workload.load(workdir)
        setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
        result = {"setup_s": setup_s, "reference_s": speed.reference_s(),
                  "inputs_sha256": digest, "ops": len(ops), "tail_pct": workload.TAIL_PCT}
        if args.trace:
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            result.update(traced_run(workload, ops, spans))
        elif not args.setup_only:
            result.update(run_ops(workload, ops, args.seconds))
            result["attempted"] = len(result["latencies"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
