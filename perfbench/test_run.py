"""Self-test of the benchmark at its tiny size.

    python3 -m pytest perfbench

It checks the shape of the output and that every metric BENCHMARK.json names
is reported, never the timings.
"""
import array
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

SPEC = json.loads(run.SPEC_FILE.read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def tiny_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    result = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))
    if trace and workload == "scan-grid":
        crossed = {k: v["value"] for k, v in result["metrics"].items()
                   if k.startswith("crossed.") and k.endswith(".calls")}
        assert crossed and not any(crossed.values())


def test_self_time_counts_nested_calls_once():
    # outer [0, 100] holds power_image [10, 60], which holds power_image [20, 50]
    names = ["outer", "actions.power_image"]
    spans = array.array("q", [0, -1, 0, 100, 1, 0, 10, 60, 1, 4, 20, 50])
    totals = {}
    run.aggregate(names, spans, totals)
    assert totals["outer"] == {"calls": 1, "self_ns": 50, "incl_ns": 100}
    assert totals["actions.power_image"]["calls"] == 2
    assert totals["actions.power_image"]["self_ns"] == 50


def test_expected_key_drops_only_the_seed():
    argv = ["verify", "--seed", "5", "--theta", "1/5"]
    assert run.expected_key(argv) == "verify --theta 1/5"
    assert run.read_report(b"not json") is None
    assert run.outcome(0, None) is None
