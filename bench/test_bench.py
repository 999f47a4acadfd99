"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from run import median_per_op, tail  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import run_ops, write_inputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from tropdiff import fields, verify  # noqa: E402


def setup_ops(name: str, seed: int, workdir: Path):
    workload = WORKLOADS[name]
    write_inputs(workload, seed, workdir)
    return workload, workload.load(workdir)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    workload = WORKLOADS[name]
    first = write_inputs(workload, 7, tmp_path / "a")
    assert write_inputs(workload, 7, tmp_path / "b") == first
    assert write_inputs(workload, 8, tmp_path / "c") != first


def wrong_expectation(name: str, ops):
    """One cheap operation of the workload, and a copy expecting the wrong answer."""
    if name == "exp-selftest":
        op = next(op for op in ops if op.params["p"] == 3)
        return op, {**op.expect, "passed": False}
    op = ops[0]
    if name == "ft-random":
        return op, {**op.expect, "passed": False}
    if name == "system-check":  # the first candidate of a round is an exact solution
        return op, {**op.expect, "check": 1}
    return op, {**op.expect, "log_radius": "1"}  # long-series: exp series first


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrong_expected_verdict_fails(name, tmp_path):
    workload, ops = setup_ops(name, 1, tmp_path)
    op, wrong = wrong_expectation(name, ops)
    assert run_ops(workload, [op])["failed"] == 0
    op.expect = wrong
    result = run_ops(workload, [op])
    assert result["failed"] == 1 and len(result["latencies"]) == 1


def test_mutated_candidate_fails(tmp_path):
    workload, ops = setup_ops("system-check", 1, tmp_path)
    op = ops[0]
    assert "consistent" not in op.expect
    assert run_ops(workload, [op])["failed"] == 0
    path = Path(op.params["candidate"])
    data = json.loads(path.read_text())
    first = data["series"][0]["coeffs"][0]
    first["val"] = str(Fraction(first["val"]) + 1)
    path.write_text(json.dumps(data))
    assert run_ops(workload, [op])["failed"] == 1


def traced_counts(workload, ops):
    tracer = Tracer()
    tracer.install()
    try:
        run_ops(workload, ops)
    finally:
        tracer.uninstall()
    return dict(tracer.counts), {k: len(v) for k, v in tracer.keys.items()}, tracer.max_bits


def test_two_traced_runs_give_identical_counts(tmp_path):
    original = fields.FieldElem.__dict__["__mul__"]
    workload, ops = setup_ops("system-check", 3, tmp_path)
    first = traced_counts(workload, ops[:3])
    assert first[0]["diffpoly.diff_calls"] > 0 and first[0]["fields.mul_calls"] > 0
    assert traced_counts(workload, ops[:3]) == first
    assert fields.FieldElem.__dict__["__mul__"] is original


def test_verify_ft_default_inputs_diff_ratio():
    """The default `verify-ft --count 50` inputs: 2,700 diff calls on 450 inputs."""
    tracer = Tracer()
    tracer.install()
    try:
        assert verify.verify_ft(3, 50, 18, 9, verify.DEFAULT_SEED).passed
    finally:
        tracer.uninstall()
    assert tracer.useful("diffpoly.diff") == (450, 2700)


def rounds_of(round_latencies: list[float], rounds: int, scale: float) -> list[float]:
    """The samples of a closed-loop run: `rounds` rounds, scaled, with jitter."""
    rng = random.Random(rounds)
    return [x * scale * rng.uniform(0.97, 1.03) for _ in range(rounds) for x in round_latencies]


def test_tail_same_operation_when_twice_as_fast():
    # a round of 16 operations; the 2x faster run fits twice as many rounds
    base = [0.05] * 7 + [0.2] * 7 + [0.9] * 2
    random.Random(5).shuffle(base)
    slow = median_per_op(rounds_of(base, 4, 1.0), len(base))
    fast = median_per_op(rounds_of(base, 9, 0.5), len(base))
    for pct in (75, 90):
        (t_slow, op_slow), (t_fast, op_fast) = tail(slow, pct), tail(fast, pct)
        assert op_slow == op_fast
        assert 1.9 < t_slow / t_fast < 2.1


def test_tail_is_nearest_rank():
    assert tail([float(k) for k in range(40, 0, -1)], 75) == (30.0, 10)
    assert tail([3.0, 1.0, 2.0], 50) == (2.0, 2)


def test_exp_closed_form_checked_against_oracle(tmp_path):
    workload, ops = setup_ops("exp-selftest", 1, tmp_path)
    op = next(op for op in ops if op.params["p"] == 3)
    outcome = workload.execute(op)
    assert workload.verify(op, outcome).ok
    n, val = op.expect["trop"][1]
    op.expect = {**op.expect, "trop": ((0, Fraction(0)), (n, val + 1)) + op.expect["trop"][2:]}
    assert not workload.verify(op, outcome).ok


def test_median_per_op_takes_each_operation_over_rounds():
    # two operations per round, three rounds; the stalled 9.0 does not count
    assert median_per_op([1.5, 2.0, 1.0, 9.0, 1.2, 2.5], 2) == [1.2, 2.5]


def test_run_prints_contract_json():
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "ft-random",
                          "--seed", "3", "--seconds", "0.2"],
                         cwd=ROOT, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ft-random",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
