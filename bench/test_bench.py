"""Checks of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

A short traced run of each workload, made twice with one seed, must give an
identical exact-count fingerprint; a second seed must give other inputs.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
import run  # noqa: E402


def traced(workload: str, seed: int) -> dict:
    return run.child(["--workload", workload, "--seed", str(seed), "--seconds", "0.5", "--trace", "1"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_fingerprint_repeats_and_seeds_differ(workload):
    first, again = traced(workload, 11), traced(workload, 11)
    fingerprint = first["fingerprint"]
    assert fingerprint == again["fingerprint"]
    assert fingerprint["ops"] > 0 and fingerprint["failed"] == 0
    assert fingerprint["core.queries"] > 0
    if workload in ("towers", "koopman"):
        # every query these workloads answer goes through one resolve
        assert fingerprint["core.queries"] == fingerprint["core.resolve.calls"]
    other = traced(workload, 12)["fingerprint"]
    assert other["input_digest"] != fingerprint["input_digest"]


def test_metric_table_matches_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert listed == list(metrics.END_TO_END)
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == list(metrics.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("n, index, percentile", [(11, 0, 100 / 11), (100, 89, 90.0), (5, 4, 100.0)])
def test_tail_keeps_ten_samples_beyond(n, index, percentile):
    latencies = [float(i) for i in reversed(range(n))]
    value, at = metrics.tail(latencies)
    assert value == float(index) and at == pytest.approx(percentile)
