"""The benchmark's recorded output digests, checked in tier-1.

``perfbench/run.py`` compares the outputs of a reference batch of each
workload with ``perfbench/reference.json``; without this test, drift in
those bytes would show only when the benchmark runs.
"""

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
