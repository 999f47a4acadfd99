"""tropdiff benchmark: seeded workloads, end-to-end metrics, traced per-layer metrics.

    python3 bench/run.py --workload exp-selftest --seed 1 --seconds 12 --trace 0

Runs from the root of a checkout and uses the tropdiff sources under src/.
Every workload runs in fresh worker processes (bench/worker.py), one at a
time; each worker is single-threaded.  With --trace 0 the command prints the
end-to-end metrics, with --trace 1 the per-layer metrics; the names and
units are the ones BENCHMARK.json lists.  Without --workload it runs every
workload in turn.  The last line of output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 7  # set-up is timed in this many fresh processes; the median is reported
DEADLINE_S = 170  # every worker of one invocation ends within this


def spawn(workload: str, seed: int, seconds: float, trace: int, deadline: float,
          setup_only: bool = False) -> dict:
    """Run one worker; its set-up time comes back scaled to full machine speed
    by the reference loop timed just before the spawn and just after set-up."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    before = speed.reference_s()
    cmd += ["--spawn-ns", str(time.monotonic_ns())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"bench: {workload} did not finish in time")
    if proc.returncode != 0:
        raise SystemExit(f"bench: {workload} worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["raw_setup_s"] = result["setup_s"]
    result["setup_s"] *= speed.REFERENCE_S * 2 / (before + result["reference_s"])
    return result


def tail(per_op: list[float], pct: float) -> tuple[float, int]:
    """(latency, index) of the round's operation at percentile `pct` of the
    operations' median latencies (nearest rank).

    The round and `pct` are fixed per workload, so the rank does not depend
    on how many rounds a run holds, and a uniform change of speed keeps the
    same operation at it.
    """
    order = sorted(range(len(per_op)), key=per_op.__getitem__)
    i = order[max(math.ceil(pct / 100 * len(per_op)), 1) - 1]
    return per_op[i], i


def median_per_op(latencies: list[float], round_size: int) -> list[float]:
    """Each operation of the round at its median latency over the rounds run."""
    return [statistics.median(latencies[i::round_size]) for i in range(round_size)]


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict, dict]:
    workers = [spawn(workload, seed, seconds, 0, deadline, setup_only=True)
               for _ in range(SETUP_RUNS - 1)]
    run = spawn(workload, seed, seconds, 0, deadline)
    workers.append(run)
    setups = [w["setup_s"] for w in workers]
    lat, raw = run["latencies"], run["raw_latencies"]
    per_op = median_per_op(lat, run["ops"])
    pct = run["tail_pct"]
    tail_s, worst = tail(per_op, pct)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_s": statistics.median(per_op),
        "op_tail_s": tail_s,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {SETUP_RUNS} fresh processes; "
                   f"{statistics.median(w['raw_setup_s'] for w in workers):.4g} s unscaled",
        "ops_per_s": f"median of {run['rounds']} rounds of {run['ops']} operations; "
                     f"{len(raw) / sum(raw):.4g}/s unscaled over all {len(raw)}",
        "op_p50_s": f"median of {run['rounds']} rounds; {statistics.median(raw):.4g} s unscaled over all",
        "op_tail_s": f"p{pct:g} of {run['ops']} operations at their medians over "
                     f"{run['rounds']} rounds ({len(lat)} samples), operation {worst}; "
                     f"{tail(median_per_op(raw, run['ops']), pct)[0]:.4g} s unscaled",
        "failed_ratio": f"{run['failed'] / run['attempted']:.4g} ratio "
                        f"({run['failed']} of {run['attempted']}; "
                        f"{run['undecided']} truncation-qualified, not judged)",
    }
    return run, metrics, notes


def traced(workload: str, seed: int, seconds: float, deadline: float):
    run = spawn(workload, seed, seconds, 1, deadline)
    notes = dict(run["notes"])
    notes["spans"] = run["spans"]
    if not run["reports_match"]:
        run["failed"] += 1
        run["failures"].append("reports differ between the traced and the untraced pass")
    return run, run["layers"], notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload name; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="operation time to measure per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    unknown = set(names) - {w["name"] for w in spec["workloads"]}
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(sorted(unknown))}")

    measure = traced if args.trace else end_to_end
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        run, metrics, notes = measure(name, args.seed, seconds, deadline)
        missing = {m["name"] for m in wanted} ^ set(metrics)
        if missing:
            raise SystemExit(f"bench: metrics out of step with BENCHMARK.json: {sorted(missing)}")
        print(f"== {name}  seed {args.seed}  inputs sha256 {run['inputs_sha256']}")
        print(f"   reports sha256 {run['reports_sha256']}")
        for m in wanted:
            note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
            print(f"   {m['name']:<32} {metrics[m['name']]:>14.6g} {m['unit']}{note}")
        if not args.trace:
            print(f"   {'failed_ratio':<32} {notes['failed_ratio']}")
        for failure in run["failures"]:
            print(f"   FAILED {failure}")
        prefix = f"{name}." if len(names) > 1 else ""
        summary["metrics"].update({prefix + m["name"]: {"value": metrics[m["name"]],
                                                        "unit": m["unit"]} for m in wanted})
        summary["attempted"] += run["attempted"]
        summary["failed"] += run["failed"]
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
