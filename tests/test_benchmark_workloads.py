"""The benchmark's calls into arnorm, run at its smoke sizes.

``perfbench/workloads.py`` builds models, samples, tables and CLI runs
through the library's public constructors and functions.  Each workload
runs its fixtures, preparation, warm-up, one operation and every
correctness gate here, so a change to a signature the benchmark uses fails
in the test suite, not first in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


wl = _load_workloads()


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_workload_passes_its_gates_at_smoke_sizes(tmp_path, name):
    workload = wl.WORKLOADS[name](tmp_path, 7, wl.SMOKE)
    workload.fixtures()
    workload.prepare()
    workload.warm()
    data, failures = workload.check(0, workload.op(0))
    assert data
    assert failures == []
    assert workload.run_checks() == []
