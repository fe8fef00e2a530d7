"""Smoke test of the benchmark itself, on tiny nets.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs once untraced and once traced.  The test checks the
result line against BENCHMARK.json (every metric present, with its unit),
that no operation failed, and that within every traced operation the
spans' self times sum to no more than the operation's wall time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return

    spans_file = HERE / "_out" / f"{workload}-seed{SEED}-trace1.spans.jsonl"
    records = [json.loads(line) for line in spans_file.read_text().splitlines()]
    ops = {r["op"]: r["wall_s"] for r in records if r["type"] == "op"}
    spans = {r["id"]: r for r in records if r["type"] == "span"}
    assert ops and spans
    child = defaultdict(float)
    for s in spans.values():
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    self_sum = defaultdict(float)
    for sid, s in spans.items():
        own = s["end"] - s["start"] - child[sid]
        assert own >= -1e-9
        if s["op"] is not None:
            self_sum[s["op"]] += own
    for op, wall in ops.items():
        assert self_sum[op] <= wall + 1e-9


def test_fails_without_the_package(tmp_path):
    """Given only BENCHMARK.json and the benchmark's files, the run fails
    and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
