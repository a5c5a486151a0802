"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py

Every workload must emit every metric named in BENCHMARK.json with its
unit, the traced run's deterministic counts must repeat exactly across
two runs, and the benchmark must refuse to run without the package
source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402
from spans import DETERMINISTIC, SpanRecorder, per_layer_metrics  # noqa: E402


def run(workload: str, trace: int, run_py: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    argv = [sys.executable, str(run_py), "--workload", workload, "--seed", "5", "--seconds", "0.5"]
    argv += ["--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, proc.stderr
    return res


def check_names(res: dict, declared: list[dict]) -> None:
    assert set(res["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    res = result(run(workload, 0))
    check_names(res, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = result(run(workload, 1)), result(run(workload, 1))
    check_names(first, BENCH["per_layer"])
    for name in DETERMINISTIC:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_refuses_without_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_attribution():
    # build_delta_wave [0, 10] > solve_wave [1, 8] > front_f_array [2, 3]
    # and StepFn.eval_array [4, 5]: the front evaluation is contagion work
    # inside the solve; the step-function call belongs to stepfn.
    rec = SpanRecorder()
    spans = [
        ("contagion.build_delta_wave", 0, 10, -1),
        ("contagion.solve_wave", 1, 8, 0),
        ("contagion.front_f_array", 2, 3, 1),
        ("stepfn.StepFn.eval_array", 4, 5, 1),
    ]
    for name, start, end, parent in spans:
        rec.names.append(name)
        rec.starts.append(float(start))
        rec.ends.append(float(end))
        rec.parents.append(parent)
    m = per_layer_metrics(rec, SpanRecorder(), untraced_s=5.0, traced_s=6.0)
    assert m["contagion.build.s"] == 3.0
    assert m["contagion.solve.s"] == 6.0
    assert m["contagion.self.s"] == 9.0
    assert m["stepfn.eval_array.s"] == 1.0
    assert m["contagion.front_evals"] == 1 and m["contagion.solve.calls"] == 1
    assert m["trace.spans"] == 4 and m["trace.overhead_ratio"] == 1.2
