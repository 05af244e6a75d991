"""Tiny runs of every workload, including their reference checks."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import worker
import workloads as wl
from spans import SpanRecorder

#: Class attributes shrunk so each workload runs in seconds.
SMALL = {
    "cold_query": {"FRAMES": 200},
    "warm_mix": {"FRAMES": 400, "CORPUS_FRAMES": 200},
    "live_window": {"INITIAL": 300, "WINDOW_SECONDS": 10.0,
                    "MAX_APPENDS": 10},
    "gateway_open": {"FRAMES": 600, "STREAM_INITIAL": 300, "WARMUP": 5},
}
OPS = 4


def small(name, monkeypatch):
    workload = wl.WORKLOADS[name]
    for attr, value in SMALL[name].items():
        monkeypatch.setattr(type(workload), attr, value)
    return workload


def run_small(workload, recorder=None):
    state = workload.build(3)
    try:
        timed = workload.run(state, OPS, recorder)
    finally:
        workload.close(state)
    return state, timed


@pytest.mark.parametrize("name", sorted(SMALL))
def test_workload_passes_its_reference_check(name, monkeypatch):
    workload = small(name, monkeypatch)
    state, timed = run_small(workload)
    assert len(timed.outcomes) == OPS
    assert all(o.error is None for o in timed.outcomes)
    failed, quality, chunks = worker.check(workload, state, timed)
    assert failed == []
    assert chunks and 0.0 < quality["precision_at_k"] <= 1.0
    assert quality["sim_speedup"] > 0

    # Corrupt every confirmed score: the check must notice.
    for outcome in timed.outcomes:
        for report in outcome.reports:
            report.answer_scores = [s + 1.0 for s in report.answer_scores]
    failed, _, _ = worker.check(workload, state, timed)
    assert failed


def test_same_seed_same_digest(monkeypatch):
    workload = small("cold_query", monkeypatch)
    digests = []
    for _ in range(2):
        state, timed = run_small(workload)
        digests.append(worker.digest(worker.check(workload, state, timed)[2]))
    assert digests[0] == digests[1]


def test_traced_run_reports_every_layer_metric(monkeypatch):
    workload = small("live_window", monkeypatch)
    recorder = SpanRecorder()
    touched = layers.install(recorder)
    try:
        state, timed = run_small(workload, recorder)
    finally:
        recorder.restore()
    metrics = layers.layer_metrics(recorder, touched, timed.extra)
    assert list(metrics) == [m[0] for m in layers.LAYER_METRICS]
    assert metrics["streaming.advance.self_s"] > 0
    assert metrics["windowed.rebuild_entry.self_s"] > 0
    assert metrics["streaming.fresh_inferred_frames"] > 0
    assert worker.uncovered(recorder, timed, "live_window") < 0.5


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    bench = Path(__file__).resolve().parents[1]
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "warm_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_workloads_and_metrics():
    bench = Path(__file__).resolve().parents[1]
    spec = json.loads((bench.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == \
        [m[0] for m in layers.LAYER_METRICS]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        worker.END_TO_END
