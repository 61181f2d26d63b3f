"""One workload repetition in a fresh interpreter; prints one JSON line.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Timing starts after every import, so interpreter start-up and
imports stay out of ``wall_s``.  Usage::

    python3 e2ebench/worker.py --workload ec2_fig4 --seed 0 --trace 0
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import sys
import threading

import numpy as np

from spans import Tracer, per_layer
from workloads import WORKLOADS

import repro.experiments
from repro.experiments import degraded, ec2, parallel
from repro.experiments.ec2 import PAPER_BLOCKS_READ_PER_LOST


def guard_isolation() -> dict[str, int]:
    """Count ResultCache lookups, parallel_map calls and process starts.

    The benchmark calls the simulator directly, so all three must stay
    at zero: a cache hit would time a pickle load, a fan-out would time
    worker start-up.
    """
    seen = {"cache_lookups": 0, "parallel_map_calls": 0, "processes_started": 0}

    def counted(name, original):
        def call(*args, **kwargs):
            seen[name] += 1
            return original(*args, **kwargs)

        return call

    parallel.ResultCache.get = counted("cache_lookups", parallel.ResultCache.get)
    fan_out = counted("parallel_map_calls", parallel.parallel_map)
    for module in (parallel, ec2, degraded, repro.experiments):
        module.parallel_map = fan_out
    process = multiprocessing.process.BaseProcess
    process.start = counted("processes_started", process.start)
    return seen


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    seen = guard_isolation()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    run, kwargs = WORKLOADS[args.workload]
    result = run(seed=args.seed, tracer=tracer, **kwargs)
    if tracer:
        tracer.uninstall()

    isolation = [f"{name}: {count}" for name, count in seen.items() if count]
    if threading.active_count() != 1:
        isolation.append(f"{threading.active_count()} threads alive")
    print(
        json.dumps(
            {
                "wall_s": result.wall_s,
                "setup_s": result.setup_s,
                "run_s": result.run_s,
                "events": result.events,
                "reads": result.reads,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "accuracy": result.accuracy,
                "paper": PAPER_BLOCKS_READ_PER_LOST,
                "accuracy_validated": result.accuracy_validated,
                "ops": [vars(op) for op in result.ops],
                "isolation": isolation,
                "numpy": np.__version__,
                "python": sys.version.split()[0],
                "layers": per_layer(tracer, result) if tracer else {},
            }
        )
    )


if __name__ == "__main__":
    main()
