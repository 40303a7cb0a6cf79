"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

They run small versions of the workloads, so they take about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_package()

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNTS = ("solver.states", "solver.waves", "solver.solve.calls", "graphs.grow.calls")


def _reference():
    return json.loads(run.REFERENCE.read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(name, tmp_path, capsys):
    code, res = run.run_workload(name, 0, 0.0, 0, _reference(), small=True, workdir=tmp_path / "a")
    assert code == 0 and res["correct"] and res["failed"] == 0
    assert {k: u for k, (_, u) in res["metrics"].items()} == _units("end_to_end")
    assert all(v > 0 for v, _ in res["metrics"].values())

    code, res = run.run_workload(name, 0, 0.0, 1, _reference(), small=True, workdir=tmp_path / "b")
    assert code == 0 and res["correct"]
    assert {k: u for k, (_, u) in res["metrics"].items()} == _units("per_layer")


def test_corrupted_reference_counts_as_a_failure(tmp_path, capsys):
    ref = _reference()
    # the subdivided-tree scripts are the same at every size, so the small
    # certify pass runs a job the reference holds
    key = "verify --recipe subdivided:3,3 --script tell_2cop --ell 1 --format structured"
    ref["digests"][key][1] = "0" * 16
    code, res = run.run_workload("certify", 0, 0.0, 1, ref, small=True, workdir=tmp_path)
    assert code == 1 and not res["correct"]
    assert res["failed"] == 2  # the untraced and the traced run of that one job
    assert "FAILED certify/p0/subdivided/tell_2cop" in capsys.readouterr().err


@pytest.mark.parametrize("name", ("deep_solve", "census", "witness"))
def test_traced_counts_repeat_exactly(name, tmp_path, capsys):
    runs = [
        run.run_workload(name, 3, 0.0, 1, _reference(), small=True, workdir=tmp_path / str(k))[1]
        for k in range(2)
    ]
    first, second = ({c: r["metrics"][c][0] for c in COUNTS} for r in runs)
    assert first == second
    assert first["solver.states"] > 0 and first["graphs.grow.calls"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep_solve", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
