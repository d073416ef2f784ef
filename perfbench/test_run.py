"""Self-test of the benchmark at a tiny size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH_DIR = Path(__file__).resolve().parent
CONTRACT = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    for name, spec in workloads.SPECS.items():
        small = dataclasses.replace(spec, n=80, ops=min(spec.ops, 40), streams=2)
        monkeypatch.setitem(workloads.SPECS, name, small)


def bench(capsys, workload: str, trace: int) -> tuple[int, dict, str]:
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", str(trace)])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    return code, json.loads(lines[-1]), captured.out + captured.err


def test_contract_lists_every_workload():
    assert WORKLOADS == list(workloads.SPECS)
    assert CONTRACT["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace, kind):
    code, result, text = bench(capsys, workload, trace)
    assert code == 0, text
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in CONTRACT[kind]}
    for name, unit in units.items():
        assert any(line.split()[:1] == [name] and unit in line.split() for line in text.splitlines()), name
    for descriptor in ("workload.final_k", "workload.widest_front", "workload.delete_share", "failed_share"):
        assert descriptor in text


@pytest.mark.parametrize("trace", [0, 1])
def test_corrupted_partition_is_a_failure(capsys, monkeypatch, trace):
    real_pass = run.run_pass

    def corrupting(start, ops, approach):
        done = real_pass(start, ops, approach)
        if approach == "rtree":
            done.fs.fronts.append([done.fs.fronts[0].pop()])
        return done

    monkeypatch.setattr(run, "run_pass", corrupting)
    code, result, text = bench(capsys, "sort-m2", trace)
    assert code == 1
    assert not result["correct"]
    assert "rtree, after the workload: partition differs from full_sort by id" in text


def test_lookup_of_the_wrong_id_is_a_failed_operation(capsys, monkeypatch):
    monkeypatch.setitem(run.OPERATIONS["linear"], run.LOOKUP, lambda fs, sol, c: run.nd.Position(1, 1))
    code, result, text = bench(capsys, "churn-m3", 0)
    assert code == 1
    assert result["failed"] > 0 and not result["correct"]
    assert "linear lookup" in text


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sort-m2", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
