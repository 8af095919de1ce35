"""BENCH_trajectory.json, appended by hand, against the benchmark it records.

Every entry names its commit and what it measured, and holds one run per
workload of BENCHMARK.json for each of seeds 1-3.  Each run carries every
end-to-end metric and, beside them, the run's unscaled raw report line,
with the timing metrics that reference scaling would otherwise hide.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
ENTRIES = json.loads((ROOT / "BENCH_trajectory.json").read_text())["entries"]
SEEDS = (1, 2, 3)
RAW = {"ops_per_s", "latency_p50_ms", "latency_tail_ms", "cpu_ms_per_op", "setup_s"}


def test_record_has_entries():
    assert len(ENTRIES) >= 7


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda entry: entry.get("commit", "?"))
def test_entry_covers_the_benchmark(entry):
    assert entry.get("commit") and entry.get("what")
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    runs = sorted((run["workload"], run["seed"]) for run in entry["runs"])
    assert runs == sorted((w, seed) for w in workloads for seed in SEEDS)
    metrics = {m["name"] for m in BENCHMARK["end_to_end"]}
    for run in entry["runs"]:
        assert metrics <= set(run["metrics"]), (run["workload"], run["seed"])
        assert RAW <= set(run.get("raw", ())), (run["workload"], run["seed"])
