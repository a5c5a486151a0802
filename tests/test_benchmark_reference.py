"""The benchmark's recorded output digests, checked in tier-1.

``perfbench/run.py`` compares the outputs of a reference batch of each
workload with ``perfbench/reference.json``; without this test, drift in
those bytes would show only when the benchmark runs.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads.workloads()


@pytest.mark.parametrize("name", ["rupath-lattice", "ensemble-complete", "lattice-analyze"])
def test_benchmark_reference_digests_match(tmp_path, workloads, name):
    items, errors = workloads[name].check_reference(tmp_path, "full")
    assert items > 0 and errors == []


def test_every_panel_wave_passes_the_benchmark_check(tmp_path, workloads):
    # wave-build's own check on each panel game at eta = 0.15: thresholds
    # strictly increasing and within 1e-9 of the record, residuals >= -1e-9.
    wave = workloads["wave-build"]
    sweeps, evaluations = {}, 0
    for batch in wave.trace_batches(0, tmp_path, "full", ""):
        assert wave.run_batch(batch).errors == []
        doc = json.loads(batch.out.read_text())
        sweeps[batch.meta["game"]] = doc["sweeps"]
        evaluations += doc["evaluations"]
    assert [sweeps[g] for g in range(len(wave.panel))] == [94, 915, 830, 825]
    assert evaluations <= 7000  # guards the extrapolated Newton start (6,588 calls)
