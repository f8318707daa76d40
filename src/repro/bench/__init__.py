"""First-class perf trajectory: unified bench reports and regression gates.

Every perf gate in ``benchmarks/`` writes its ``BENCH_*.json`` through
:func:`repro.bench.write_bench_report` (one ``repro-bench/1`` envelope,
:mod:`~repro.bench.writer`), and ``repro bench compare OLD NEW``
(:mod:`~repro.bench.compare`) diffs two trajectory points — normalizing
the legacy per-gate schemas the repo checked in before this package —
failing CI when a shared headline metric regresses beyond the band.
"""

from __future__ import annotations

from repro.bench.compare import (
    DEFAULT_BAND,
    BenchReport,
    CompareResult,
    compare_reports,
    load_report,
    trajectory_table,
)
from repro.bench.writer import (
    BENCH_SCHEMA,
    DIRECTIONS,
    headline_metric,
    write_bench_report,
)

__all__ = [
    "BENCH_SCHEMA",
    "DEFAULT_BAND",
    "DIRECTIONS",
    "BenchReport",
    "CompareResult",
    "compare_reports",
    "headline_metric",
    "load_report",
    "trajectory_table",
    "write_bench_report",
]
