"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest -q benchmarks/test_smoke.py

Runs every workload for one second in both modes and checks the result line
against BENCHMARK.json, checks that a wrong expectation is counted as a
failed op rather than raised, and that a directory holding only the
benchmark's files makes it exit non-zero without a result.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert any(line.startswith("provenance ") for line in lines)
    if not trace:
        assert any(line.startswith("failed_ratio") for line in lines)


def test_wrong_expectation_is_counted_not_raised():
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import harness
    import workloads

    ops = workloads.point_queries(5, {})
    first = ops[0]  # ik, all branches, JSON, a point inside the ball
    argv = first.probe[1]
    L = float(argv[argv.index("-L") + 1])
    p = tuple(float(c) for c in argv[argv.index("-p") + 1].split(","))
    shell_point = workloads.sample_point(random.Random(0), L, "shell")
    # Expect the shell's eight solutions from a query that asked about p.
    wrong = harness.Op(first.label, first.run, lambda o: workloads._check_ik(o, shell_point, L, "json", None), first.probe)
    assert workloads._check_ik(first.run(), p, L, "json", None) == 1

    res = harness.run_pass([wrong] + ops[1:15], count=15)
    assert res.attempted == 15
    assert [f[0] for f in res.failures] == [0]
    assert res.items == 14


def test_bare_directory_exits_nonzero():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = _run(bare, WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
