"""Smoke test of the benchmark harness at tiny sizes: output schema against
BENCHMARK.json, span structure, exactly repeating counts, and refusal to
run without the source tree."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import drgbench
from drgbench_layers import layer_profile
from drgbench_ops import TINY, WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(entries) -> dict:
    return {entry["name"]: entry["unit"] for entry in entries}


def _schema(result) -> dict:
    payload = json.loads(json.dumps(result.payload()))
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["correct"] is True and payload["failed"] == 0 and payload["attempted"] >= 1
    return {name: metric["unit"] for name, metric in payload["metrics"].items()}


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/drgbench.py"]


def test_measured_runs_report_every_end_to_end_metric():
    for name in WORKLOADS:
        result = drgbench.measure(name, seed=5, seconds=0, profile=TINY)
        assert _schema(result) == _units(SPEC["end_to_end"])
        assert all(metric["value"] > 0 for metric in result.metrics.values())


def test_traced_run_reports_every_layer_metric_and_counts_repeat(tmp_path):
    first = layer_profile(5, tmp_path, profile=TINY)
    assert _schema(first) == _units(SPEC["per_layer"])
    second = layer_profile(5, tmp_path, profile=TINY)
    for name, metric in first.metrics.items():
        if metric["unit"] == "count":
            assert second.metrics[name]["value"] == metric["value"], name
    funnel = sum(v["value"] for k, v in first.metrics.items() if k.startswith("scanner.funnel."))
    assert funnel > 0

    trace = json.loads((tmp_path / "spans-seed5.json").read_text(encoding="utf-8"))
    spans = trace["spans"]
    assert set(spans) == {"name", "start_us", "end_us", "parent", "op"}
    assert min(spans["op"]) >= 0 and max(spans["op"]) < len(trace["ops"])
    for i, parent in enumerate(spans["parent"]):
        assert spans["start_us"][i] <= spans["end_us"][i]
        if parent >= 0:
            assert spans["op"][parent] == spans["op"][i]
            assert spans["start_us"][parent] <= spans["start_us"][i] <= spans["end_us"][i] <= spans["end_us"][parent]
        else:
            assert trace["names"][spans["name"][i]] == "cli.main"


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/drgbench.py", "--workload", "scan-box", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
