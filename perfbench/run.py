"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload resnet-serial --seed 1 --seconds 36 --trace 0

The ``repro`` package is imported from ``src/`` next to this directory.  The
second-to-last line of standard output is an ``info`` object (environment,
output-check details); the last line is the result::

    {"correct": true, "attempted": 96, "failed": 0, "metrics": {"setup_s": {"value": 0.41, "unit": "s"}, ...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics and writes the spans to
``perfbench/results/``.  The benchmark never sets thread-count variables: it
records them as found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_variables": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def stop_helper_processes() -> None:
    """Reap finished workers and stop the shared-memory resource tracker, waiting for each."""
    import multiprocessing
    from multiprocessing import resource_tracker

    multiprocessing.active_children()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the repro package is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from repro.telemetry.recorder import get_recorder
    from spans import summarise, write_trace
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if get_recorder().enabled:
        print("perfbench: the telemetry recorder must be disabled", file=sys.stderr)
        return 2

    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    finally:
        stop_helper_processes()

    if get_recorder().enabled:
        print("perfbench: a workload enabled the telemetry recorder", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(outcome.metrics) != set(units):
        print(
            f"perfbench: metric names differ from BENCHMARK.json: "
            f"{sorted(set(outcome.metrics) ^ set(units))}",
            file=sys.stderr,
        )
        return 2
    if args.trace:
        path = HERE / "results" / f"trace-{args.workload}-seed{args.seed}.json"
        summary = {
            "metrics": outcome.metrics,
            "spans": summarise(outcome.spans),
            "info": outcome.info,
        }
        write_trace(str(path), outcome.spans, summary)
        outcome.info["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps({"info": dict(environment(), workload=args.workload, **outcome.info)}))
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": outcome.metrics[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
