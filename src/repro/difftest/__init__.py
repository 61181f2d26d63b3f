"""Differential-testing and bench-gating framework for spec/engine pairs.

Five PRs hand-rolled the same architecture — keep the scalar seed
implementation as the executable *spec*, add a vectorized numpy
*engine*, prove element-identical outputs on shared schedules, and
gate a >=10x speedup in CI (Monte Carlo, codec,
BlockIndex, FlowTable, ReadService).  This package is that architecture
extracted, so the remaining scalar daemons cost a few dozen lines each
instead of a PR apiece:

* :mod:`~repro.difftest.schedule` — the :class:`Schedule` protocol and
  :class:`ArraySchedule` base generalizing PR 5's ``ReadSchedule``:
  pull all of a subsystem's randomness into plain arrays once, feed the
  identical arrays to both implementations.
* :mod:`~repro.difftest.registry` — the inventory of spec/engine pairs
  (spec, engine, CI gate): metadata for reprolint and the bench gate.
  Production code never selects through it; each subsystem calls its
  engine, and the spec stays a test oracle.
* :mod:`~repro.difftest.compare` — the element-identical assertion
  helpers (exact counts, bit-identical float lists, NaN-aware stats)
  previously copy-pasted across the per-subsystem test files.
* :mod:`~repro.difftest.bench` — the bench gate: time spec vs engine on
  a shared workload, verify the outputs agree, assert a speedup floor,
  and emit machine-readable metrics for ``BENCH_results.json`` (which
  ``benchmarks/check_bench_regression.py`` holds against the committed
  baseline).
"""

from .bench import BenchRecord, gate_speedup, timed
from .compare import (
    DifferentialMismatch,
    assert_bit_identical,
    assert_element_identical,
    assert_exact_counts,
    assert_stats_close,
)
from .registry import (
    EnginePair,
    engine_matrix,
    engine_pair,
    register_engine_pair,
)
from .schedule import (
    ArraySchedule,
    Schedule,
    require_nonnegative,
    require_sorted,
    require_within,
    spawn_streams,
)

from . import pairs as _pairs  # registers the eleven spec/engine pairs

del _pairs

__all__ = [
    "ArraySchedule",
    "BenchRecord",
    "DifferentialMismatch",
    "EnginePair",
    "Schedule",
    "assert_bit_identical",
    "assert_element_identical",
    "assert_exact_counts",
    "assert_stats_close",
    "engine_matrix",
    "engine_pair",
    "gate_speedup",
    "register_engine_pair",
    "require_nonnegative",
    "require_sorted",
    "require_within",
    "spawn_streams",
    "timed",
]
