"""Tests of the benchmark runner: tiny-size smoke runs, exact repeats,
checks that bite, and refusal without simulator sources.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    DECLARED = json.load(handle)

WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]


def invoke(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@functools.lru_cache(maxsize=None)
def tiny_run(workload: str, trace: int, seed: int) -> dict:
    proc = invoke(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                   "--trace", str(trace), "--size", "tiny"])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_workloads_are_the_runners():
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_reports_every_declared_metric(workload, trace, section):
    result = tiny_run(workload, trace, 1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == 0  # fail_frac
    declared = {metric["name"]: metric["unit"] for metric in DECLARED[section]}
    reported = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert reported == declared
    if trace == 0:
        assert all(result["metrics"][name]["value"] > 0 for name in declared)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_metrics_repeat_exactly(workload):
    """Another seed (another cell order) gives the same modelled numbers
    and the same profiler call counts, bit for bit."""
    def deterministic(result):
        return {
            name: entry["value"]
            for name, entry in result["metrics"].items()
            if name in ("model_err_pct", "calls_total")
            or name.startswith("model.")
            or name.endswith(".calls")
        }

    for trace in (0, 1):
        first = deterministic(tiny_run(workload, trace, 1))
        assert first
        assert deterministic(tiny_run(workload, trace, 2)) == first


def test_checks_catch_a_wrong_result():
    sim = run.load_repro()
    cell = run.Cell("mlx", "rr", "strict")
    results = run.run_cell(sim, cell, fast=True)
    requested = run.REQUESTED["rr"][1]
    assert run.check_cell(sim, cell, results, requested, None) == []
    assert run.check_cell(sim, cell, results, requested + 1, None)
    moved = dict(results[0].to_dict(), cycles_per_packet=1.0)
    assert run.check_cell(sim, cell, results, requested, moved)


def test_refuses_without_simulator_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = invoke(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
