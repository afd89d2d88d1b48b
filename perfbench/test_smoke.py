"""Smoke test: every workload runs at toy size and emits every declared metric."""

import json
from pathlib import Path

import pytest

from perfbench import workloads

DECLARED = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_every_declared_metric(workload, trace, tmp_path):
    result, details = workloads.run_workload(workloads.WORKLOADS[workload], seed=3,
                                             seconds=0.2, trace=trace,
                                             scale=workloads.TOY, work_dir=tmp_path)
    assert result["correct"], details["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert not list(tmp_path.iterdir()), "generated inputs are removed after set-up"
    assert len(details["digest"]) == 64
