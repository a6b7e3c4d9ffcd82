"""The benchmark's workloads must reproduce their recorded outputs: every
input of each workload's tiny pool runs here and is checked against
``perfbench/reference.json``, so that a change that moves a change instant
or an exponent fails before a benchmark run reports it."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the file executes.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_pool_matches_reference(name, tmp_path):
    reference = workloads.load_reference("tiny")[name]
    wl = workloads.Workload(name, "tiny", tmp_path)
    for key in range(wl.design.pool):
        wl.prepare(key)
        outputs = wl.outputs(wl.operation(key)())
        assert len(outputs) == len(reference[str(key)])
        for got, ref in zip(outputs, reference[str(key)]):
            assert workloads.mismatch(got, ref) is None
