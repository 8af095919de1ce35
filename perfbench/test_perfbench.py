"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

import json
from pathlib import Path

import pytest

import run

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_declared_metrics(workload, trace, tmp_path):
    lines = []
    result = run.run_workload(workload, seed=3, seconds=0, trace=trace, tiny=True,
                              out_dir=tmp_path, emit=lines.append)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
    reports = [line.split(" ", 1)[0] for line in lines]
    assert reports == ["env", "inputs", "latency", "outcomes", "raw"] + (["trace"] if trace else [])
    assert json.loads(lines[0].split(" ", 1)[1])["seed"] == 3


def _inputs(workload: str, seed: int) -> bytes:
    wl = run.load_program().WORKLOADS[workload](seed)
    items = wl.items(0) + wl.items(1)
    setup_texts = getattr(wl, "texts", [])
    return repr((setup_texts, [(i.texts, i.sizes, i.extra) for i in items])).encode()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_regenerates_identical_inputs(workload):
    first = _inputs(workload, 17)
    assert _inputs(workload, 17) == first
    assert _inputs(workload, 18) != first
