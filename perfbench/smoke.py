"""Smoke test: a tiny run of each workload, untraced and traced.

Run from the repository root::

    python3 -m pytest -q perfbench/smoke.py

It checks the metric names against ``BENCHMARK.json``, the output checks,
and the shape of the span tree; it says nothing about speed.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from spans import self_times  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"] for metric in SPEC["per_layer"]}

TINY = {
    "resnet-serial": lambda trace: workloads.run_training(
        dataclasses.replace(
            workloads.RESNET_SERIAL,
            dataset_overrides={"num_train": 64, "num_test": 32},
            epochs=1,
            setup_reps=1,
        ),
        seed=3,
        seconds=0.0,
        trace=trace,
    ),
    "mlp-process": lambda trace: workloads.run_training(
        dataclasses.replace(
            workloads.MLP_PROCESS,
            dataset_overrides=dict(
                workloads.MLP_PROCESS.dataset_overrides, num_train=128, num_test=64
            ),
            epochs=1,
            setup_reps=1,
        ),
        seed=3,
        seconds=0.0,
        trace=trace,
    ),
    "serve-pool": lambda trace: workloads.run_serving(
        dataclasses.replace(
            workloads.SERVE_POOL,
            setup_reps=2,
            warmup_requests=10,
            block_requests=60,
            ladder_step_s=0.2,
            max_rate=140.0,
        ),
        seed=3,
        seconds=0.0,
        trace=trace,
    ),
}


def test_every_workload_is_declared():
    assert {w["name"] for w in SPEC["workloads"]} == set(TINY) == set(workloads.WORKLOADS)
    assert set(workloads.LAYER_METRICS) == PER_LAYER


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_reports_end_to_end_metrics(name):
    outcome = TINY[name](False)
    assert outcome.correct and outcome.failed == 0 and outcome.attempted >= 1
    assert set(outcome.metrics) == END_TO_END
    assert all(value > 0 for value in outcome.metrics.values())
    assert not outcome.spans


@pytest.mark.parametrize("name", ["resnet-serial", "mlp-process"])
def test_training_span_tree(name):
    outcome = TINY[name](True)
    assert outcome.correct
    assert set(outcome.metrics) == PER_LAYER
    spans = {span.span_id: span for span in outcome.spans}
    roots = [span for span in spans.values() if span.parent == -1]
    assert roots and {span.name for span in roots} == {"train"}
    for span in spans.values():
        assert span.start <= span.end
        if span.parent != -1:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
    names = {span.name for span in spans.values()}
    assert {"engine.evaluate", "optim.step_matrix", "gpusim.schedule", "nn.forward"} <= names
    if name == "resnet-serial":
        assert {"engine.compute_gradient", "nn.backward", "nn.gather", "data.batch"} <= names
        assert {"tensor.conv2d.fwd", "tensor.conv2d.bwd"} <= names
        assert outcome.metrics["tensor.conv2d.gflop"] > 0
        assert outcome.metrics["tensor.matmul.gflop"] > 0
    else:
        assert "engine.executor_wait" in names
        assert "engine.compute_gradient" not in names  # gradients run in the workers
        assert outcome.metrics["tensor.conv2d.gflop"] == 0
    # self times partition the root spans' wall time
    own = self_times(list(spans.values()))
    assert sum(own.values()) == pytest.approx(sum(r.end - r.start for r in roots), rel=1e-9)
    assert outcome.metrics["trace.self_sum_pct"] == pytest.approx(100.0, abs=0.5)


def test_serving_spans():
    outcome = TINY["serve-pool"](True)
    assert outcome.correct
    assert set(outcome.metrics) == PER_LAYER
    submits = [span for span in outcome.spans if span.name == "serve.submit"]
    publishes = [span for span in outcome.spans if span.name == "serve.publish"]
    assert sorted(span.group for span in submits) == list(range(60))
    assert publishes and all(isinstance(span.group, int) for span in publishes)
    assert outcome.metrics["serve.ring_rtt_ms"] > 0
    assert outcome.metrics["serve.batch_size_mean"] >= 1
