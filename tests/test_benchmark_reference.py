"""The benchmark's recorded output digests, checked in tier-1.

``perfbench/run.py`` compares the outputs of a reference batch of each
workload with ``perfbench/reference.json``; without this test, drift in
those bytes would show only when the benchmark runs.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
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
    # The sweep and F-call counts and the thresholds' bits pin every b*
    # iterate: a change that moves any of them re-records them and says why.
    docs = {}
    for batch in wave.trace_batches(0, tmp_path, "full", ""):
        assert wave.run_batch(batch).errors == []
        docs[batch.meta["game"]] = json.loads(batch.out.read_text())
    docs = [docs[g] for g in range(len(wave.panel))]
    # Re-recorded when the pile shifts came in: they skip the sweeps that only move the pile forward.
    assert [doc["sweeps"] for doc in docs] == [65, 89, 88, 97]
    assert [doc["evaluations"] for doc in docs] == [209, 253, 287, 292]
    assert [doc["jumps"] for doc in docs] == [{"accepted": n, "rejected": 0} for n in (2, 5, 6, 6)]
    assert [doc["shifts"] for doc in docs] == [{"accepted": n, "rejected": m} for n, m in ((7, 3), (7, 4), (9, 4), (8, 3))]
    digest = hashlib.sha256(b"".join(np.array(doc["thresholds"]).tobytes() for doc in docs)).hexdigest()
    assert digest == "aaebe4e4193cd2fb6b4f02294eebc9d34475c3bee190fae82f81dab65e241677"
    # A shift is kept only where the next sweep confirms b*(w) >= w, and the
    # jumps land in the plain iteration's stopping window, which is under
    # 1e-10 wide, so the thresholds stay that close to the record.
    for doc, game in zip(docs, wave.panel):
        assert np.max(np.abs(np.array(doc["thresholds"]) - game["thresholds"])) <= 1e-10
