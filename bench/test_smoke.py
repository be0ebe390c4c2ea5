"""Smoke test of the benchmark harness at toy sizes.

    python3 -m pytest bench/test_smoke.py      (from the root of the checkout)
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import reference  # noqa: E402


def _bench(cwd: pathlib.Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_workload_reports_every_declared_metric(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"] for m in declared} == set(result["metrics"])
    report = json.loads((ROOT / ".bench_out" / f"{workload}-trace{trace}.json").read_text())
    assert set(report["metrics"]) == set(result["metrics"])


def test_full_workloads_leave_ten_jobs_beyond_p90():
    for workload in gen.WORKLOADS:
        assert len(gen.build(workload, 5)) >= 101


def test_cross_check_catches_a_wrong_closed_form():
    jobs = gen.build("count-loop", 1, toy=True)
    assert reference.cross_check(jobs) == len(jobs)
    for job in jobs:
        if job.op == "run" and job.expect[0] == "halted":
            job.expect = ("halted", job.expect[1] + 1, job.expect[2])
            break
    with pytest.raises(reference.Mismatch):
        reference.cross_check(jobs)


def test_refuses_to_run_without_urm_sources():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _bench(bare, "count-loop", 0)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
