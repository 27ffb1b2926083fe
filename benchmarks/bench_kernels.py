"""Dense-kernel microbenchmark: throughput of the three ``(k, P)`` hot-path ops.

The ops are the fused ``step_matrix`` synchronisation, the flat gradient
gather (:meth:`~repro.nn.module.Module.gradient_vector`), and the batched-
evaluation forward (:class:`~repro.serve.pool.BatchedEvaluator`'s stacked
conv, ReLU and linear kernels).  One row per op with an ``ops_per_s``
throughput column feeds the CI regression gate, so a slower kernel fails the
build like any other perf regression.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro.nn.module import Module, Parameter
from repro.optim import SMA, SMAConfig
from repro.serve.pool import _stacked_conv2d

REPLICAS = 16
PARAMETERS = 65536
ITERATIONS = 60
SMOKE_ITERATIONS = 5

#: batched-evaluation workload: one conv + one linear layer at eval shapes
EVAL_BATCH = 64
CONV_FEATURES = 72  # in_channels * kh * kw
CONV_CHANNELS = 16
CONV_POSITIONS = 64  # oh * ow
LINEAR_IN = 256
LINEAR_OUT = 10


def _time_op(op, iterations: int) -> float:
    """Best-of-3 mean seconds per call (the op itself loops internally)."""
    op()  # warm-up: allocations, BLAS initialisation, einsum paths
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(iterations):
            op()
        best = min(best, (time.perf_counter() - started) / iterations)
    return best


def _step_matrix_op():
    rng = np.random.default_rng(7)
    initial = rng.standard_normal(PARAMETERS).astype(np.float32)
    weights = np.tile(initial, (REPLICAS, 1))
    updates = (0.01 * rng.standard_normal((REPLICAS, PARAMETERS))).astype(np.float32)
    sma = SMA(initial, REPLICAS, SMAConfig(momentum=0.9))
    return lambda: sma.step_matrix(weights, updates)


def _gather_op():
    rng = np.random.default_rng(8)
    sizes = [4096] * 15 + [PARAMETERS - 15 * 4096]
    model = Module()
    for index, size in enumerate(sizes):
        param = Parameter(np.zeros(size, dtype=np.float32))
        # one parameter without a gradient: the zero-fill path
        param.grad = None if index == 3 else rng.standard_normal(size).astype(np.float32)
        setattr(model, f"p{index}", param)
    out = np.empty(PARAMETERS, dtype=np.float32)
    return lambda: model.gradient_vector(out=out)


def _fused_forward_op():
    rng = np.random.default_rng(9)
    conv_weights = rng.standard_normal((REPLICAS, CONV_CHANNELS, CONV_FEATURES)).astype(
        np.float32
    )
    cols = rng.standard_normal((EVAL_BATCH, CONV_FEATURES, CONV_POSITIONS)).astype(np.float32)
    act = rng.standard_normal((EVAL_BATCH, LINEAR_IN)).astype(np.float32)
    linear_weights = rng.standard_normal((REPLICAS, LINEAR_IN, LINEAR_OUT)).astype(np.float32)
    bias = rng.standard_normal((REPLICAS, 1, LINEAR_OUT)).astype(np.float32)

    def op():
        conv_out = _stacked_conv2d(conv_weights, cols)
        return conv_out * (conv_out > 0), np.matmul(act, linear_weights) + bias

    return op


_OPS = {
    "step_matrix": _step_matrix_op,
    "gather": _gather_op,
    "fused_forward": _fused_forward_op,
}


def _kernel_rows(iterations: int) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for op_name, build in _OPS.items():
        seconds = _time_op(build(), iterations)
        rows.append(
            {
                "op": op_name,
                "k": REPLICAS,
                "ms_per_call": round(1e3 * seconds, 4),
                "ops_per_s": round(1.0 / seconds, 1),
            }
        )
    return rows


def test_kernel_throughput(report):
    rows = _kernel_rows(ITERATIONS)
    report("kernel_backends", rows)
    # Sanity, not a perf gate (that is check_bench_regression's job): every
    # op produced a finite positive throughput.
    assert len(rows) == len(_OPS)
    for row in rows:
        assert row["ops_per_s"] > 0.0


# ----------------------------------------------------------------------- CLI / smoke
def main(argv: Optional[List[str]] = None) -> int:
    import conftest

    args = conftest.bench_cli(__doc__, argv)
    iterations = SMOKE_ITERATIONS if args.smoke else ITERATIONS
    rows = _kernel_rows(iterations)
    conftest.standalone_report("kernel_backends_smoke" if args.smoke else "kernel_backends", rows)
    print(f"ok: {len(rows)} op rows measured")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
