"""Tiny-scale self-test of the benchmark: every workload runs end to end,
emits every metric of BENCHMARK.json with its unit, and every checked
operation matches its oracle.  Takes a few minutes:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--scale", "0.05"],
        cwd=cwd, capture_output=True, text=True, timeout=400)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload: str, trace: int) -> None:
    p = run_bench(ROOT, workload, trace)
    assert p.returncode == 0, p.stderr[-4000:]
    out = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["failed"] == 0 and out["attempted"] >= 1 and out["correct"]
    want = BENCH["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in want}
    for m in want:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]


def test_fails_without_the_engine() -> None:
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = run_bench(bare, WORKLOADS[0], 0)
        assert p.returncode != 0
        assert '"metrics"' not in p.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
