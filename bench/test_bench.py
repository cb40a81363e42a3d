"""The benchmark's own test: every workload at toy size (reduced space, few
epochs, few targets), in seconds.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import clock as timing  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def toy(workload: str, trace: bool) -> dict:
    return run.run_workload(workload, 5, 0.0, trace, toy=True)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request):
    return toy(request.param, True)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_printed_with_units(workload, capsys):
    record = toy(workload, False)
    assert record["correct"], record["problems"]
    assert record["iterations"] == timing.WINDOW
    # every repetition was cut into the same slices
    assert len(record["deploy_window_s"]) == 1
    assert all(len(calls) == 1 for calls in record["forward_calls"].values())
    assert record["deploy_window_s"][0] <= min(record["deploy_wall_s"])
    run._print_record(record)
    print(json.dumps(run.result_line(record)))
    lines = capsys.readouterr().out.splitlines()
    for name, unit in {**run.metric_units("end_to_end"), **run.PRINTED_ONLY}.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_metrics_printed_with_units(traced):
    assert traced["correct"], traced["problems"]
    result = run.result_line(traced)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_span_ledger_deltas_sum_to_run_totals(traced):
    sums = traced["span_ledger"]
    assert {k.split("-")[0] for k in sums} == {"train", "deploy"}
    for run_id, pair in sums.items():
        assert pair["spans"] == pair["ledger"], run_id
    assert any(pair["ledger"]["accuracy"] > 0 for pair in sums.values())


def test_spans_have_parents_and_layers(traced):
    path = run.RUNS_DIR / f"{traced['workload']}-seed5-spans.jsonl"
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    by_id = {s["id"]: s for s in spans}
    assert all(s["layer"] in tracing.LAYERS for s in spans)
    for s in spans:
        if s["parent"] is None:
            assert s["name"] == "pipeline.run"
        else:
            parent = by_id[s["parent"]]
            assert parent["run"] == s["run"]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]


def test_window_time_sums_per_slice_minima():
    def sample(*slices):
        return timing.Sample(wall=sum(slices), calls=3, stride=1,
                             slices=timing.array("d", slices))

    samples = [sample(1.0, 5.0, 2.0), sample(3.0, 1.0, 2.0), sample(2.0, 2.0, 1.0),
               sample(4.0, 1.0, 9.0)]
    assert timing.window_times(samples, 3) == [1.0 + 1.0 + 1.0, 2.0 + 1.0 + 1.0]
    # per window: program time over reference time; the median, in REF_SECONDS
    refs = [sample(0.5, 0.5, 0.5), sample(1.0, 1.0, 1.0), sample(0.5, 0.5, 0.5),
            sample(1.0, 1.0, 1.0)]
    assert timing.window_times(refs, 3) == [1.5, 1.5]
    assert timing.normalized_time(samples, refs, 3) == pytest.approx(
        timing.REF_SECONDS * (3.0 + 4.0) / 1.5 / 2)
    assert math.isnan(timing.normalized_time([], [], 3))
    assert timing.window_times(samples, 5) == [1.0 + 1.0 + 1.0]  # fewer samples than 5
    # slicing that differs within a window: its fastest whole-run wall time
    odd = timing.Sample(wall=2.5, calls=2, stride=2, slices=timing.array("d", [2.5]))
    assert timing.window_times([samples[0], odd], 3) == [2.5]


def test_injected_decision_mismatch_is_a_failure(monkeypatch):
    fleetopt = run._import_fleetopt()
    export = fleetopt.pipeline.export_report

    def tampered(report, out_dir, artifacts=None, persist_models=True):
        if not persist_models:  # the deploy run: flip the bit-width of one design
            row = report.rows[0]
            report.rows[0] = {**row, "design": [*row["design"][:-1], 1 - row["design"][-1]]}
        return export(report, out_dir, artifacts, persist_models)

    monkeypatch.setattr(fleetopt.pipeline, "export_report", tampered)
    record = toy("proxy-latency", False)
    assert not record["correct"]
    assert record["failed"] == record["attempted"] > 0
    assert any("differ from the training run" in p for p in record["problems"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "proxy-latency", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
