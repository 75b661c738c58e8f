"""Smoke runs of the benchmark: every metric is printed, the result is JSON.

There is deliberately no timing gate here.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(trace):
    done = run(["--workload", "all", "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke"])
    assert done.returncode == 0, done.stderr
    *table, last = done.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    for workload in (w["name"] for w in SPEC["workloads"]):
        for metric in declared:
            printed = result["metrics"][f"{workload}.{metric['name']}"]
            assert printed["unit"] == metric["unit"]
            assert isinstance(printed["value"], (int, float))
            row = [line.split() for line in table
                   if line.split()[:2] == [workload, metric["name"]]]
            assert len(row) == 1 and row[0][3] == metric["unit"]
            assert int(row[0][4]) >= 1
        names = {metric["name"] for metric in declared}
        assert {m.split(".", 1)[1] for m in result["metrics"]
                if m.startswith(workload + ".")} == names


def test_single_workload_reports_exactly_the_declared_metrics():
    done = run(["--workload", "trees", "--seed", "4", "--seconds", "1",
                "--trace", "0", "--smoke"])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert result["attempted"] >= 1


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run(["--workload", "sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
