"""Tiny-size self-test of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py

It runs every workload on a few dozen images, checks that a traced run
reports every per-layer metric with counts that match the model's shapes,
and corrupts the engine's output to show that the correctness gate fires.
"""

from __future__ import annotations

import json
import os

import pytest

import workloads
from rescale_lab import kernels

TINY = workloads.Sizes(train_images=96, train_test_images=64, train_epochs=1,
                       sweep_images=64, finetune_images=512,
                       finetune_test_images=256, min_rounds=2)

# MACs of one desk-cnn-v1 forward pass per image, by weighted layer.
CONV1, DEPTHWISE, CONV2, DENSE = 28 * 28 * 8 * 9, 14 * 14 * 8 * 9, 14 * 14 * 16 * 8, 10 * 784


def run(name, tmp_path, trace=False):
    return workloads.run_workload(name, seed=1, seconds=0, trace=trace,
                                  sizes=TINY, out_dir=str(tmp_path))


def test_benchmark_json_names_every_metric():
    with open(os.path.join(os.path.dirname(workloads.HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_passes_its_checks(name, tmp_path):
    result = run(name, tmp_path)
    assert result.failures == []
    assert result.correct and result.failed == 0 and result.attempted > 0
    assert list(result.metrics) == list(workloads.END_TO_END)
    assert all(m["value"] > 0 for m in result.metrics.values())


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    result = run("sweep", tmp_path, trace=True)
    assert result.correct and result.traced_rounds == 1
    values = {k: v["value"] for k, v in result.metrics.items()}
    assert list(values) == list(workloads.PER_LAYER)

    widths = len(workloads.WIDTHS)
    # Reports cover the six layers with a rescale stage; replaying the layers
    # above each costs 0+1+2+3+4+6 = 16 engine layer calls per width.
    assert values["errmodel.layer_error_report.calls"] == 6 * widths
    assert values["errmodel.upstream_layer_calls"] == 16 * widths
    forward = CONV1 + DEPTHWISE + CONV2 + DENSE
    report = 6 * CONV1 + 4 * DEPTHWISE + 3 * CONV2 + DENSE
    assert values["kernels.macs"] == (
        (1 + widths) * TINY.sweep_images * forward + widths * TINY.sweep_images * report)
    assert all(values[f"kernels.L{i}.s"] > 0 for i in range(7))
    assert values["trainer.steps"] == 0
    assert 0.5 < values["trace.covered_frac"] <= 1.0

    # The spans on disk partition the traced round: self times add up to it.
    with open(result.trace_path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    assert header["meta"]["traced_rounds"] == 1
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_total = sum(end - start - child[i]
                     for i, (_, start, end, _) in enumerate(spans))
    roots = sum(end - start for _, start, end, parent in spans if parent < 0)
    assert self_total == pytest.approx(roots, rel=1e-9)
    assert roots == pytest.approx(values["trace.round_s"], rel=1e-9)


def test_corrupted_engine_output_fails_operations(tmp_path, monkeypatch):
    original = kernels.rescale_accumulator

    def off_by_one(acc, m, s):
        return original(acc, m, s) + 1

    monkeypatch.setattr(kernels, "rescale_accumulator", off_by_one)
    result = run("sweep", tmp_path)
    assert not result.correct
    assert result.failed > 0
    assert result.figures["ops_failed_frac"][0] == result.failed / result.attempted
    assert result.metrics["ops_ok_frac"]["value"] < 1.0
