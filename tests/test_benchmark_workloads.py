"""Guard for the benchmark's workloads.

``benchmarks/run.py`` drives the package through ``benchmarks/workloads.py``,
which reads detector results and CLI outputs by field name. A change to
those fields can crash the benchmark without failing any other test, so
this test loads the workloads from their file and runs one small pass of
each.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"

# the sizes benchmarks/tests/test_harness.py runs
TINY = {
    "dense_motion": {"frames": 40},
    "appearance": {"frames": 30},
    "long_stream": {"frames": 400, "period": 200, "event": 40},
    "cli_clip": {"frames": 100, "event": 40, "width": 640, "height": 360},
}


@pytest.fixture(scope="module")
def workloads():
    if not WORKLOADS.is_file():
        pytest.skip("benchmarks/ is not part of this checkout")
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_workload_has_a_tiny_size(workloads):
    assert set(TINY) == set(workloads.SIZES)


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_pass_runs_clean(workloads, name, tmp_path):
    workload = workloads.Workload(name, TINY[name])
    workload.setup(0, tmp_path)
    result = workload.run_pass()
    assert result.errors == []
    assert result.windows > 0
