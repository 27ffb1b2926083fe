"""Span recorder for the traced benchmark run.

The recorder wraps, from outside, the public calls into each layer of the
``repro`` package (see the ``install_*`` functions) and records one span per call:
name, start, end, parent span and group id.  The group id ties the spans of
one training iteration (the SMA iteration counter) or one serving request or
ticket together.  Spans are kept in memory and written once, by
:func:`write_trace`, after the measured run has ended.

Only the process that installed the recorder records: a forked worker
inherits the wrapped classes, but the wrappers see an inactive recorder
there and call straight through.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Tuple

_perf = time.perf_counter

#: recorders that must stop recording in a forked child (os.register_at_fork
#: cannot be undone, so one hook serves every recorder)
_LIVE: List["SpanRecorder"] = []
_FORK_HOOK = False
#: span ids are unique across recorders, so the spans of several runs can be merged
_SPAN_IDS = itertools.count()


def _deactivate_in_child() -> None:
    for recorder in _LIVE:
        recorder.active = False


class Span:
    __slots__ = ("span_id", "name", "start", "end", "parent", "group")

    def __init__(self, span_id: int, name: str, start: float, parent: int, group: Any) -> None:
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.group = group


class SpanRecorder:
    """In-memory span store with one parent stack per thread."""


    def __init__(self) -> None:
        global _FORK_HOOK
        self.spans: List[Span] = []
        self.active = True
        #: group id given to spans opened by the training loop (the iteration)
        self.iteration = 0
        #: perf_counter instants at which an SMA iteration finished
        self.iteration_ends: List[float] = []
        #: computed work counts from tensor shapes (see install_work_counters)
        self.work: Dict[str, float] = defaultdict(float)
        #: publish end and collect instants per serving ticket
        self.ticket_published: Dict[int, float] = {}
        self.ticket_collected: Dict[int, float] = {}
        self._local = threading.local()
        if not _FORK_HOOK:
            os.register_at_fork(after_in_child=_deactivate_in_child)
            _FORK_HOOK = True
        _LIVE.append(self)

    def close(self) -> None:
        self.active = False
        if self in _LIVE:
            _LIVE.remove(self)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, group: Any = None) -> Span:
        stack = self._stack()
        parent = stack[-1].span_id if stack else -1
        if group is None:
            group = stack[-1].group if stack else self.iteration
        span = Span(next(_SPAN_IDS), name, _perf(), parent, group)
        self.spans.append(span)
        stack.append(span)
        return span

    def close_span(self, span: Span) -> None:
        span.end = _perf()
        self._stack().pop()


def wrap_call(recorder: SpanRecorder, name: str, fn: Callable):
    """``fn`` wrapped in a span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        span = recorder.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close_span(span)

    return wrapper


# --------------------------------------------------------------------------- work counts
def _conv_work(x, weight, stride, padding) -> Tuple[float, float, float]:
    """(flops, bytes in the forward kernel, bytes in the backward kernels) of one conv2d."""
    n, c, h, w = x.shape
    o, _, kh, kw = weight.shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    f, p = c * kh * kw, out_h * out_w
    flops = 2.0 * n * o * f * p
    # each kernel operand and result read or written once, float32
    fwd_bytes = 4.0 * (n * c * h * w + n * f * p + o * f + n * o * p)
    bwd_bytes = 4.0 * (n * o * p + n * f * p + o * f + o * f + n * f * p + n * c * h * w)
    return flops, fwd_bytes, bwd_bytes


def _count_conv(recorder: SpanRecorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def forward(self, x, weight, bias, stride, padding):
        if recorder.active:
            flops, fwd_bytes, bwd_bytes = _conv_work(x, weight, stride, padding)
            self._bench_work = (flops, bwd_bytes)
            recorder.work["conv2d.fwd_flop"] += flops
            recorder.work["conv2d.bytes"] += fwd_bytes
        return fn(self, x, weight, bias, stride, padding)

    return forward


def _count_conv_backward(recorder: SpanRecorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def backward(self, grad):
        work = getattr(self, "_bench_work", None)
        if recorder.active and work is not None:
            # grad_weight and grad_input are one GEMM each of the forward's size
            recorder.work["conv2d.bwd_flop"] += 2.0 * work[0]
            recorder.work["conv2d.bytes"] += work[1]
        return fn(self, grad)

    return backward


def _count_matmul(recorder: SpanRecorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def forward(self, a, b):
        out = fn(self, a, b)
        if recorder.active:
            flops = 2.0 * out.size * a.shape[-1]
            self._bench_work = flops
            recorder.work["matmul.fwd_flop"] += flops
        return out

    return forward


def _count_matmul_backward(recorder: SpanRecorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def backward(self, grad):
        flops = getattr(self, "_bench_work", None)
        if recorder.active and flops is not None:
            recorder.work["matmul.bwd_flop"] += 2.0 * flops
        return fn(self, grad)

    return backward


# --------------------------------------------------------------------------- installation
#: tensor.functional Function class -> metric bucket; unlisted classes are "other"
TENSOR_BUCKETS = {
    "_Conv2d": "conv2d",
    "_BatchNorm": "batch_norm",
    "_MaxPool2d": "pool",
    "_AvgPool2d": "pool",
    "_MatMul": "matmul",
    "_ReLU": "relu",
}
TENSOR_OPS = ("conv2d", "batch_norm", "pool", "matmul", "relu", "other")


class Installation:
    """Patched class attributes, restored by :meth:`undo` (also a context manager)."""


    def __init__(self) -> None:
        self._saved: List[Tuple[type, str, Any]] = []

    def patch(self, owner: type, attr: str, make: Callable[[Any], Any]) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Installation":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.undo()


def install_iteration_clock(recorder: SpanRecorder) -> Installation:
    """Timestamp each SMA iteration's end (the return of ``schedule_iteration``).

    The only hook the untraced run installs: one clock read per iteration,
    from which the iteration periods are taken.
    """
    from repro.engine.scheduler import TaskScheduler

    def make(fn):
        @functools.wraps(fn)
        def schedule_iteration(*args, **kwargs):
            result = fn(*args, **kwargs)
            if recorder.active:
                recorder.iteration_ends.append(_perf())
                recorder.iteration += 1
            return result

        return schedule_iteration

    installation = Installation()
    installation.patch(TaskScheduler, "schedule_iteration", make)
    return installation


def install_work_counters(recorder: SpanRecorder, installation: Installation) -> None:
    """Count conv2d and matmul work from the operand shapes of each call."""
    from repro.tensor import functional

    installation.patch(functional._Conv2d, "forward", lambda fn: _count_conv(recorder, fn))
    installation.patch(
        functional._Conv2d, "backward", lambda fn: _count_conv_backward(recorder, fn)
    )
    installation.patch(functional._MatMul, "forward", lambda fn: _count_matmul(recorder, fn))
    installation.patch(
        functional._MatMul, "backward", lambda fn: _count_matmul_backward(recorder, fn)
    )


def _root_module_call(recorder: SpanRecorder, fn: Callable) -> Callable:
    """Span only the outermost ``Module.__call__`` of a thread (the model's forward)."""

    @functools.wraps(fn)
    def __call__(self, *args, **kwargs):
        local = recorder._local
        if not recorder.active or getattr(local, "in_module", False):
            return fn(self, *args, **kwargs)
        local.in_module = True
        span = recorder.open("nn.forward")
        try:
            return fn(self, *args, **kwargs)
        finally:
            recorder.close_span(span)
            local.in_module = False

    return __call__


def _batch_iterator(recorder: SpanRecorder, fn: Callable) -> Callable:
    """Span each ``next()`` on the generator ``BatchPipeline.epoch_batches`` returns."""

    @functools.wraps(fn)
    def epoch_batches(*args, **kwargs) -> Iterator[Any]:
        batches = fn(*args, **kwargs)
        while True:
            span = recorder.open("data.batch") if recorder.active else None
            try:
                batch = next(batches)
            except StopIteration:
                return
            finally:
                if span is not None:
                    recorder.close_span(span)
            yield batch

    return epoch_batches


def _publish(recorder: SpanRecorder, fn: Callable) -> Callable:
    """Span ``InferencePool.publish`` under its ticket and note when the ticket left."""

    @functools.wraps(fn)
    def publish(self, ticket, images):
        if not recorder.active:
            return fn(self, ticket, images)
        span = recorder.open("serve.publish", group=ticket)
        try:
            return fn(self, ticket, images)
        finally:
            recorder.close_span(span)
            recorder.ticket_published[ticket] = span.end

    return publish


def _collect(recorder: SpanRecorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def collect(self, block=False):
        payloads = fn(self, block)
        if recorder.active and payloads:
            now = _perf()
            for payload in payloads:
                recorder.ticket_collected.setdefault(payload[0], now)
        return payloads

    return collect


def install_training_spans(recorder: SpanRecorder) -> Installation:
    """Wrap the public calls of tensor, nn, data, engine, optim and gpusim."""
    from repro.data.batching import BatchPipeline
    from repro.engine.crossbow import CrossbowTrainer
    from repro.engine.executor import ProcessExecutor
    from repro.engine.learner import Learner
    from repro.engine.scheduler import TaskScheduler
    from repro.nn.module import Module
    from repro.optim.sma import SMA
    from repro.tensor import functional
    from repro.tensor.tensor import Function, Tensor

    installation = Installation()
    for cls in vars(functional).values():
        if isinstance(cls, type) and issubclass(cls, Function) and cls is not Function:
            bucket = TENSOR_BUCKETS.get(cls.__name__, "other")
            for method, suffix in (("forward", "fwd"), ("backward", "bwd")):
                if method in cls.__dict__:
                    name = f"tensor.{bucket}.{suffix}"
                    installation.patch(
                        cls, method, lambda fn, name=name: wrap_call(recorder, name, fn)
                    )
    installation.patch(Module, "__call__", lambda fn: _root_module_call(recorder, fn))
    for owner, attr, name in (
        (Tensor, "backward", "nn.backward"),
        (Module, "gradient_vector", "nn.gather"),
        (Learner, "compute_gradient", "engine.compute_gradient"),
        (ProcessExecutor, "run_iteration", "engine.executor_wait"),
        (CrossbowTrainer, "evaluate", "engine.evaluate"),
        (CrossbowTrainer, "train", "train"),
        (SMA, "step_matrix", "optim.step_matrix"),
        (TaskScheduler, "schedule_iteration", "gpusim.schedule"),
    ):
        installation.patch(owner, attr, lambda fn, name=name: wrap_call(recorder, name, fn))
    installation.patch(BatchPipeline, "epoch_batches", lambda fn: _batch_iterator(recorder, fn))
    return installation


def install_serving_spans(recorder: SpanRecorder) -> Installation:
    """Wrap the front door's ``submit`` and the slot ring's ``publish``/``collect``."""
    from repro.serve.inference import InferenceServer
    from repro.serve.scaling import InferencePool

    installation = Installation()
    installation.patch(
        InferenceServer, "submit", lambda fn: wrap_call(recorder, "serve.submit", fn)
    )
    installation.patch(InferencePool, "publish", lambda fn: _publish(recorder, fn))
    installation.patch(InferencePool, "collect", lambda fn: _collect(recorder, fn))
    return installation


# --------------------------------------------------------------------------- analysis
def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its child spans cover (children nest, per thread)."""
    own = {span.span_id: span.end - span.start for span in spans}
    for span in spans:
        if span.parent in own:
            own[span.parent] -= span.end - span.start
    return own


def summarise(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0.0, "total_s": 0.0, "self_s": 0.0}
    )
    for span in spans:
        row = table[span.name]
        row["calls"] += 1
        row["total_s"] += span.end - span.start
        row["self_s"] += own[span.span_id]
    return dict(table)


def write_trace(path: str, spans: List[Span], summary: Dict[str, Any]) -> None:
    """Write the spans and their summary once, after the measured run."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    payload = {
        "summary": summary,
        "spans": [[s.span_id, s.name, s.start, s.end, s.parent, s.group] for s in spans],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, default=str)
