"""The benchmark's workloads: two training runs and one serving run.

Every end-to-end metric in ``BENCHMARK.json`` is reported by every workload;
``perfbench/README.md`` gives each metric's definition per workload.  The
per-layer metrics come from a traced run (``trace=True``) that alternates
untraced and traced repetitions, so ``trace.overhead_pct`` compares the two
on the same host in the same process.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.data.datasets import create_dataset
from repro.engine import CrossbowConfig, CrossbowTrainer
from repro.models.registry import create_model
from repro.nn.losses import CrossEntropyLoss
from repro.serve.scaling import PooledInferenceServer
from repro.tensor.tensor import Tensor, no_grad
from repro.utils.rng import RandomState, split_seed

from spans import (
    TENSOR_OPS,
    Installation,
    SpanRecorder,
    install_iteration_clock,
    install_serving_spans,
    install_training_spans,
    install_work_counters,
    summarise,
)

_perf = time.perf_counter


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    info: Dict[str, Any] = field(default_factory=dict)
    spans: List[Any] = field(default_factory=list)


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory (VmHWM) of this process plus its live child processes, in MB."""

    def hwm_kb(pid: int) -> int:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    pid = os.getpid()
    children: List[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as handle:
                children.extend(int(child) for child in handle.read().split())
    except OSError:
        pass
    return (hwm_kb(pid) + sum(hwm_kb(child) for child in set(children))) / 1024.0


# =========================================================================== training
@dataclass(frozen=True)
class TrainSpec:
    model: str
    model_overrides: Dict[str, Any]
    dataset: str
    dataset_overrides: Dict[str, Any]
    num_gpus: int
    replicas_per_gpu: int
    batch_size: int
    execution: str
    epochs: int
    #: None takes the model's default from repro.optim.schedules
    learning_rate: Optional[float] = None
    #: trainer constructions timed before the training repetitions (setup_s)
    setup_reps: int = 15


#: training repetitions per run at least, so that their z digests can be compared
MIN_REPS = 2


RESNET_SERIAL = TrainSpec(
    model="resnet32-scaled",
    model_overrides={},
    dataset="cifar10-scaled",
    dataset_overrides={"num_train": 512, "num_test": 256},
    num_gpus=2,
    replicas_per_gpu=2,
    batch_size=16,
    execution="serial",
    epochs=2,
)

# The blobs dataset has 4 classes, so the MLP is 128 -> 512 -> 512 -> 4 (P = 330,756).
# Its inputs have a scale of ~8, at which the MLP's default learning rate of
# 0.05 barely learns (test_acc ~0.31 over seeds 1-100) and diverges to a NaN
# loss on some seeds (118); 0.01 reaches test_acc ~0.67 with no NaN on seeds 1-400.
MLP_PROCESS = TrainSpec(
    model="mlp",
    model_overrides={"input_dim": 128, "hidden_sizes": (512, 512)},
    dataset="blobs",
    dataset_overrides={"input_dim": 128, "noise_scale": 8.0, "num_train": 1024, "num_test": 512},
    num_gpus=2,
    replicas_per_gpu=8,
    batch_size=8,
    execution="process",
    epochs=2,
    learning_rate=0.01,
)


def train_config(spec: TrainSpec, seed: int, execution: Optional[str] = None) -> CrossbowConfig:
    overrides = dict(spec.dataset_overrides, seed=split_seed(seed, "perfbench/dataset"))
    return CrossbowConfig(
        model_name=spec.model,
        dataset_name=spec.dataset,
        num_gpus=spec.num_gpus,
        replicas_per_gpu=spec.replicas_per_gpu,
        batch_size=spec.batch_size,
        learning_rate=spec.learning_rate,
        execution=execution or spec.execution,
        pipeline_depth=0,
        max_epochs=spec.epochs,
        target_accuracy=None,
        evaluate_every_epochs=1,
        seed=seed,
        dataset_overrides=overrides,
        model_overrides=dict(spec.model_overrides),
    )


@dataclass
class TrainRep:
    traced: bool
    setup_s: float
    wall_s: float
    iterations: int
    samples: int
    periods_ms: List[float]
    losses: List[float]
    test_acc: float
    z_sha: str
    rss_mb: float
    recorder: SpanRecorder


def z_digest(vector: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(vector, dtype=np.float32).tobytes()).hexdigest()


def train_once(
    spec: TrainSpec, seed: int, traced: bool, execution: Optional[str] = None
) -> TrainRep:
    recorder = SpanRecorder()
    with install_iteration_clock(recorder):
        tracing = install_training_spans(recorder) if traced else Installation()
        try:
            started = _perf()
            trainer = CrossbowTrainer(train_config(spec, seed, execution))
            setup_s = _perf() - started
            try:
                begun = _perf()
                result = trainer.train()
                wall_s = _perf() - begun
                rss_mb = peak_rss_mb()
                z = trainer.central_model_vector()
                iterations = trainer.sync_counters.iterations
                learners = len(trainer.learners)
            finally:
                trainer.close()
        finally:
            tracing.undo()
            recorder.close()
    ends = [begun] + recorder.iteration_ends
    records = result.metrics.records
    return TrainRep(
        traced=traced,
        setup_s=setup_s,
        wall_s=wall_s,
        iterations=iterations,
        samples=iterations * learners * spec.batch_size,
        periods_ms=[(b - a) * 1000.0 for a, b in zip(ends, ends[1:])],
        losses=[record.train_loss for record in records],
        test_acc=records[-1].test_accuracy,
        z_sha=z_digest(z),
        rss_mb=rss_mb,
        recorder=recorder,
    )


def work_per_iteration(spec: TrainSpec, seed: int) -> Dict[str, float]:
    """Computed (not timed) kernel work of one SMA iteration, from operand shapes.

    One forward and backward of a learner's batch is counted on a private
    model copy, then scaled by the learner count ``k``.  The fused
    ``step_matrix`` reads ``W``, ``U`` and ``z``/``z_prev`` and writes ``W``
    and ``z``/``z_prev``: ``(3 k P + 4 P)`` float32 values.
    """
    rng = RandomState(seed, name="perfbench/probe")
    model = create_model(spec.model, rng=rng, **spec.model_overrides)
    k = spec.num_gpus * spec.replicas_per_gpu
    P = model.num_parameters()
    dataset = create_dataset(spec.dataset, **train_config(spec, seed).dataset_overrides)
    images = dataset.train_images[: spec.batch_size]
    labels = dataset.train_labels[: spec.batch_size]
    recorder = SpanRecorder()
    with Installation() as installation:
        install_work_counters(recorder, installation)
        model.train(True)
        loss = CrossEntropyLoss()(model(Tensor(images)), labels)
        loss.backward()
    recorder.close()
    work = recorder.work
    return {
        "tensor.conv2d.gflop": k * (work["conv2d.fwd_flop"] + work["conv2d.bwd_flop"]) / 1e9,
        "tensor.matmul.gflop": k * (work["matmul.fwd_flop"] + work["matmul.bwd_flop"]) / 1e9,
        "tensor.conv2d.mb_moved": k * work["conv2d.bytes"] / 1e6,
        "optim.step_matrix_mb_moved": 4.0 * (3 * k * P + 4 * P) / 1e6,
    }


def time_setup(spec: TrainSpec, seed: int) -> float:
    started = _perf()
    trainer = CrossbowTrainer(train_config(spec, seed))
    elapsed = _perf() - started
    trainer.close()
    return elapsed


def run_training(spec: TrainSpec, seed: int, seconds: float, trace: bool) -> Outcome:
    started = _perf()
    setups = [time_setup(spec, seed) for _ in range(spec.setup_reps)]
    reps: List[TrainRep] = []
    while True:
        # The traced run alternates untraced and traced repetitions.
        reps.append(train_once(spec, seed, traced=trace and len(reps) % 2 == 1))
        elapsed = _perf() - started
        mean_rep = elapsed / len(reps)
        if len(reps) >= MIN_REPS and elapsed + mean_rep > seconds:
            break

    # ---- output checks: each failing check fails every iteration of the runs it covers
    failed_reps = {i for i, rep in enumerate(reps) if not all(map(math.isfinite, rep.losses))}
    digests = {rep.z_sha for rep in reps}
    if len(digests) != 1:
        failed_reps = set(range(len(reps)))
    twin_sha = None
    if spec.execution != "serial":
        # depth 0 is bit-identical to an untimed serial run of the same config
        twin_sha = train_once(spec, seed, traced=False, execution="serial").z_sha
        if digests != {twin_sha}:
            failed_reps = set(range(len(reps)))
    attempted = sum(rep.iterations for rep in reps)
    failed = sum(reps[i].iterations for i in failed_reps)

    untraced = [rep for rep in reps if not rep.traced]
    periods = [p for rep in untraced for p in rep.periods_ms]
    info = {
        "repetitions": len(reps),
        "iterations_per_rep": reps[0].iterations,
        "iteration_periods": len(periods),
        "final_loss": reps[0].losses[-1],
        "test_acc": reps[0].test_acc,
        "epoch_losses": reps[0].losses,
        "z_sha256": reps[0].z_sha,
        "serial_twin_sha256": twin_sha,
        "z_identical_across_reps": len(digests) == 1,
    }
    if not trace:
        # The host's speed shifts by up to 1.7x between repetitions (~6 s
        # each).  Means over repetitions follow the share of time spent at
        # each speed; a median over them jumps from one speed to the other.
        metrics = {
            "samples_per_s": sum(rep.samples for rep in untraced)
            / sum(rep.wall_s for rep in untraced),
            "latency_p50_ms": statistics.fmean(pct(rep.periods_ms, 50) for rep in untraced),
            "latency_p99_ms": pct(periods, 99),
            "ok_ratio": 1.0 - failed / attempted,
            "setup_s": statistics.median(setups + [rep.setup_s for rep in untraced]),
            "peak_rss_mb": max(rep.rss_mb for rep in reps),
        }
        return Outcome(not failed_reps, attempted, failed, metrics, info)

    traced = [rep for rep in reps if rep.traced]
    spans = [span for rep in traced for span in rep.recorder.spans]
    metrics = training_layers(traced, untraced, spans)
    metrics.update(work_per_iteration(spec, seed))
    return Outcome(not failed_reps, attempted, failed, metrics, info, spans)


def training_layers(traced: List[TrainRep], untraced: List[TrainRep], spans) -> Dict[str, float]:
    """Per-iteration layer metrics from the traced repetitions' spans."""
    table = summarise(spans)
    iterations = sum(rep.iterations for rep in traced)
    wall = sum(rep.wall_s for rep in traced)

    def ms(name: str) -> float:
        return table.get(name, {}).get("total_s", 0.0) * 1000.0 / iterations

    def per_iter(name: str) -> float:
        return table.get(name, {}).get("calls", 0.0) / iterations

    metrics = {name: 0.0 for name in LAYER_METRICS}
    for op in TENSOR_OPS:
        metrics[f"tensor.{op}.fwd_ms"] = ms(f"tensor.{op}.fwd")
        metrics[f"tensor.{op}.bwd_ms"] = ms(f"tensor.{op}.bwd")
    metrics["tensor.conv2d.calls"] = per_iter("tensor.conv2d.fwd")
    periods = [p for rep in traced for p in rep.periods_ms]
    traced_wall = statistics.median(rep.wall_s / rep.iterations for rep in traced)
    plain_wall = statistics.median(rep.wall_s / rep.iterations for rep in untraced)
    metrics.update(
        {
            "nn.forward_ms": ms("nn.forward"),
            "nn.backward_ms": ms("nn.backward"),
            "nn.gather_ms": ms("nn.gather"),
            "data.batch_ms": ms("data.batch"),
            "data.batches": per_iter("data.batch"),
            "engine.compute_gradient_ms": ms("engine.compute_gradient"),
            "engine.executor_wait_ms": ms("engine.executor_wait"),
            "engine.evaluate_ms": ms("engine.evaluate"),
            "engine.first_iter_ms": statistics.median(rep.periods_ms[0] for rep in traced),
            "engine.iter_ms_p50": pct(periods, 50),
            "engine.iter_ms_p95": pct(periods, 95),
            "optim.step_matrix_ms": ms("optim.step_matrix"),
            "gpusim.schedule_ms": ms("gpusim.schedule"),
            "trace.overhead_pct": (traced_wall - plain_wall) / plain_wall * 100.0,
            "trace.wall_ms": wall * 1000.0 / iterations,
            "trace.self_sum_pct": sum(row["self_s"] for row in table.values()) / wall * 100.0,
            "trace.unattributed_pct": table.get("train", {}).get("self_s", 0.0) / wall * 100.0,
        }
    )
    return metrics


# =========================================================================== serving
@dataclass(frozen=True)
class ServeSpec:
    workers: int = 2
    max_batch_size: int = 32
    max_latency_ms: float = 2.0
    distinct_inputs: int = 256
    setup_reps: int = 15
    warmup_requests: int = 100
    fixed_rate: float = 100.0
    #: requests per fixed-rate block: 1,000 leaves 10 beyond p99.  The run
    #: measures one block per ``seconds_per_block`` of --seconds (at least
    #: one) and reports the block with the lowest p99, the one host noise
    #: disturbed least.  A block takes 10 s; the rest goes to the ladder.
    block_requests: int = 1000
    seconds_per_block: float = 12.0
    latency_limit_ms: float = 100.0
    #: a backlog grows when the last quarter's p50 exceeds the first's by this much
    backlog_growth_ms: float = 20.0
    ladder_step_s: float = 1.5
    ladder_step: float = 20.0
    #: the ladder ends after this many failing steps in a row
    ladder_misses: int = 2
    #: a step is tried this often before it counts as failing
    ladder_attempts: int = 2
    #: a block or step whose generator sent requests later than this at p99
    #: measured a starved host, not the server (2-5 ms is usual)
    max_gen_late_ms: float = 10.0
    #: starved blocks, and starved steps, are run again up to this often per run
    reruns: int = 4
    max_rate: float = 1000.0
    request_timeout_s: float = 5.0
    #: float32 tolerance on logits: coalescing changes the batch a sample rides in
    logit_atol: float = 1e-4
    model_seed: int = 2019


SERVE_POOL = ServeSpec()


@dataclass
class Phase:
    rate: float
    latencies_ms: np.ndarray
    late_ms: np.ndarray
    failed: int

    @property
    def attempted(self) -> int:
        return int(self.latencies_ms.size)

    def starved(self, spec: ServeSpec) -> bool:
        return pct(self.late_ms, 99) > spec.max_gen_late_ms

    def meets_limit(self, spec: ServeSpec) -> bool:
        if self.failed or pct(self.latencies_ms, 99) > spec.latency_limit_ms:
            return False
        quarter = max(1, self.attempted // 4)
        growth = pct(self.latencies_ms[-quarter:], 50) - pct(self.latencies_ms[:quarter], 50)
        return growth <= spec.backlog_growth_ms


def _mark_done(done: np.ndarray, index: int, _future) -> None:
    done[index] = _perf()


def run_phase(
    server,
    spec: ServeSpec,
    inputs: np.ndarray,
    reference: np.ndarray,
    rate: float,
    count: int,
    rng: np.random.Generator,
    recorder: Optional[SpanRecorder] = None,
) -> Phase:
    """Open loop: ``count`` Poisson arrivals at ``rate``, each timed from its due time."""
    picks = rng.integers(0, len(inputs), size=count)
    due = _perf() + 0.005 + np.cumsum(rng.exponential(1.0 / rate, size=count))
    sent = np.zeros(count)
    done = np.full(count, np.nan)
    futures = []
    for i in range(count):
        wait = due[i] - _perf()
        if wait > 0:
            time.sleep(wait)
        sent[i] = _perf()
        if recorder is not None:
            recorder.iteration = i
        future = server.submit(inputs[picks[i] : picks[i] + 1])
        future.add_done_callback(functools.partial(_mark_done, done, i))
        futures.append(future)
    failed = np.zeros(count, dtype=bool)
    for i, future in enumerate(futures):
        try:
            logits = future.result(timeout=max(0.0, due[i] + spec.request_timeout_s - _perf()))
        except Exception:  # noqa: BLE001 - an error or a timeout is a failed request
            failed[i] = True
            continue
        expected = reference[picks[i]]
        if (
            logits.shape != (1,) + expected.shape
            or int(np.argmax(logits[0])) != int(np.argmax(expected))
            or float(np.max(np.abs(logits[0] - expected))) > spec.logit_atol
        ):
            failed[i] = True
    # done-callbacks may trail result() by a moment; a missing stamp is a timeout
    deadline = _perf() + 1.0
    while np.isnan(done).any() and _perf() < deadline:
        time.sleep(0.001)
    latencies = np.where(np.isnan(done), spec.request_timeout_s, done - due) * 1000.0
    failed |= latencies >= spec.request_timeout_s * 1000.0
    return Phase(rate, latencies, (sent - due) * 1000.0, int(failed.sum()))


def serving_model(spec: ServeSpec):
    rng = RandomState(spec.model_seed, name="perfbench/serve")
    return create_model("resnet32-scaled", rng=rng)


def reference_logits(model, inputs: np.ndarray) -> np.ndarray:
    """Inline single-sample forward of the served model, one request at a time."""
    reference = model.clone()
    reference.eval()
    with no_grad():
        return np.stack([reference(Tensor(inputs[i : i + 1])).data[0] for i in range(len(inputs))])


def build_server(spec: ServeSpec, model) -> PooledInferenceServer:
    server = PooledInferenceServer(
        model,
        sample_shape=(3, 16, 16),
        workers=spec.workers,
        max_batch_size=spec.max_batch_size,
        max_latency_ms=spec.max_latency_ms,
        admission_policy="none",
    )
    return server.start()


def ladder_rate(
    server, spec: ServeSpec, inputs, reference, seed: int
) -> Tuple[float, List[Phase]]:
    """The highest rate meeting the latency limit, from a rate ladder.

    Steps climb from the fixed rate by ``ladder_step`` until
    ``ladder_misses`` steps in a row miss the limit.  Near the knee a step
    passes or misses by chance, so the rate is the fixed rate plus one step
    per passing step: on a monotone ladder that is the highest passing rate,
    and a lucky or unlucky step moves it by one step, not to the ladder's end.
    """
    steps: List[Phase] = []
    passed = misses = 0
    spare = spec.reruns
    rate = spec.fixed_rate
    while misses < spec.ladder_misses and rate + spec.ladder_step <= spec.max_rate:
        rate += spec.ladder_step
        attempts = 0
        while attempts < spec.ladder_attempts:
            rng = np.random.default_rng([seed, int(rate), len(steps)])
            count = int(rate * spec.ladder_step_s)
            phase = run_phase(server, spec, inputs, reference, rate, count, rng)
            steps.append(phase)
            if phase.meets_limit(spec):
                passed, misses = passed + 1, 0
                break
            if phase.starved(spec) and spare:
                spare -= 1
            else:
                attempts += 1
        else:
            misses += 1
    return spec.fixed_rate + passed * spec.ladder_step, steps


def fixed_rate_blocks(server, spec: ServeSpec, inputs, reference, count: int, rng) -> List[Phase]:
    """``count`` blocks at the fixed rate, plus a rerun for each starved block."""
    blocks: List[Phase] = []
    fed = 0
    while fed < count and len(blocks) < count + spec.reruns:
        block = run_phase(
            server, spec, inputs, reference, spec.fixed_rate, spec.block_requests, rng
        )
        blocks.append(block)
        fed += not block.starved(spec)
    return blocks


def run_serving(spec: ServeSpec, seed: int, seconds: float, trace: bool) -> Outcome:
    model = serving_model(spec)
    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal((spec.distinct_inputs, 3, 16, 16)).astype(np.float32)
    reference = reference_logits(model, inputs)

    setups = []
    for _ in range(spec.setup_reps - 1):
        started = _perf()
        build_server(spec, model).close()
        setups.append(_perf() - started)
    started = _perf()
    server = build_server(spec, model)
    setups.append(_perf() - started)
    blocks = 1 if trace else max(1, int(seconds // spec.seconds_per_block))
    recorder = SpanRecorder() if trace else None
    try:
        rate = spec.fixed_rate
        warmup = run_phase(server, spec, inputs, reference, rate, spec.warmup_requests, rng)
        fixed = fixed_rate_blocks(server, spec, inputs, reference, blocks, rng)
        # read before the ladder: how far it climbs, and so how large its
        # coalesced batches grow, varies from run to run
        rss_mb = peak_rss_mb()
        if recorder is not None:
            with install_serving_spans(recorder):
                traced = run_phase(
                    server, spec, inputs, reference, rate, spec.block_requests, rng, recorder
                )
            recorder.close()
            ladder: List[Phase] = [traced]
        else:
            max_rate, ladder = ladder_rate(server, spec, inputs, reference, seed)
        stats = server.stats.summary()
        counters = server.counters.summary()
    finally:
        server.close()

    phases = [warmup] + fixed + ladder
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    # Host interference only adds latency: the block with the lowest p99 is
    # the least disturbed one, and the most repeatable view of the server.
    fed = [phase for phase in fixed if not phase.starved(spec)] or fixed
    best = min(fed, key=lambda phase: pct(phase.latencies_ms, 99))
    info = {
        "fixed_blocks": [
            {
                "requests": p.attempted,
                "p50_ms": pct(p.latencies_ms, 50),
                "p99_ms": pct(p.latencies_ms, 99),
                "gen_late_ms_p99": pct(p.late_ms, 99),
            }
            for p in fixed
        ],
        "gen_late_ms_p99": statistics.median(pct(phase.late_ms, 99) for phase in fixed),
        "ladder": [
            {
                "rate": p.rate,
                "p99_ms": pct(p.latencies_ms, 99),
                "failed": p.failed,
                "ok": p.meets_limit(spec),
                "starved": p.starved(spec),
            }
            for p in ([] if trace else ladder)
        ],
        "server_stats": stats,
        "counters": counters,
    }
    if recorder is None:
        metrics = {
            "samples_per_s": max_rate,
            "latency_p50_ms": pct(best.latencies_ms, 50),
            "latency_p99_ms": pct(best.latencies_ms, 99),
            "ok_ratio": 1.0 - failed / attempted,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss_mb,
        }
        return Outcome(failed == 0, attempted, failed, metrics, info)

    metrics = {name: 0.0 for name in LAYER_METRICS}
    table = summarise(recorder.spans)
    submits = table.get("serve.submit", {"calls": 0.0, "total_s": 0.0})
    publishes = table.get("serve.publish", {"calls": 0.0, "total_s": 0.0})
    rtts = [
        (recorder.ticket_collected[t] - published) * 1000.0
        for t, published in recorder.ticket_published.items()
        if t in recorder.ticket_collected
    ]
    plain_p50 = pct(best.latencies_ms, 50)
    metrics.update(
        {
            "serve.submit_us": submits["total_s"] * 1e6 / max(1.0, submits["calls"]),
            "serve.publish_ms": publishes["total_s"] * 1e3 / max(1.0, publishes["calls"]),
            "serve.ring_rtt_ms": statistics.fmean(rtts) if rtts else 0.0,
            "serve.batch_size_mean": stats["mean_batch_size"],
            "serve.queue_depth_p99": counters["queue_depth_p99"],
            "serve.gen_late_ms_p99": pct(traced.late_ms, 99),
            "trace.overhead_pct": (pct(traced.latencies_ms, 50) - plain_p50) / plain_p50 * 100.0,
        }
    )
    return Outcome(failed == 0, attempted, failed, metrics, info, recorder.spans)


#: every per-layer metric, in BENCHMARK.json order; a layer a workload does not
#: reach from the benchmark's process reads 0
LAYER_METRICS = (
    [f"tensor.{op}.{d}_ms" for op in TENSOR_OPS for d in ("fwd", "bwd")]
    + [
        "tensor.conv2d.calls",
        "tensor.conv2d.gflop",
        "tensor.matmul.gflop",
        "tensor.conv2d.mb_moved",
        "nn.forward_ms",
        "nn.backward_ms",
        "nn.gather_ms",
        "data.batch_ms",
        "data.batches",
        "engine.compute_gradient_ms",
        "engine.executor_wait_ms",
        "engine.first_iter_ms",
        "engine.evaluate_ms",
        "engine.iter_ms_p50",
        "engine.iter_ms_p95",
        "optim.step_matrix_ms",
        "optim.step_matrix_mb_moved",
        "gpusim.schedule_ms",
        "serve.submit_us",
        "serve.publish_ms",
        "serve.ring_rtt_ms",
        "serve.batch_size_mean",
        "serve.queue_depth_p99",
        "serve.gen_late_ms_p99",
        "trace.overhead_pct",
        "trace.wall_ms",
        "trace.self_sum_pct",
        "trace.unattributed_pct",
    ]
)

#: name -> callable(seed, seconds, trace) returning an Outcome
WORKLOADS = {
    "resnet-serial": functools.partial(run_training, RESNET_SERIAL),
    "mlp-process": functools.partial(run_training, MLP_PROCESS),
    "serve-pool": functools.partial(run_serving, SERVE_POOL),
}
