"""Shared experiment configuration.

The defaults are the paper's setup: the eight-benchmark suite, the 64K
gshare predictor (2^16 two-bit counters, 16-bit history), CIR tables with
2^16 entries of 16-bit CIRs initialized to all ones.  Experiments that
deviate (Fig. 10's 4K predictor and small tables, Fig. 11's
initializations) derive modified copies.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.workloads.ibs import DEFAULT_TRACE_LENGTH, benchmark_names
from repro.workloads.spec_like import spec_benchmark_names


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments."""

    #: Benchmarks included in the composite (paper: the full IBS suite).
    #: Keyed per sweep: each benchmark name goes into its own StreamKey.
    benchmarks: Tuple[str, ...] = tuple(benchmark_names())
    #: Dynamic conditional branches simulated per benchmark.
    trace_length: int = DEFAULT_TRACE_LENGTH
    #: Workload generation seed.
    seed: int = 0
    #: Underlying gshare size (entries of 2-bit counters).
    predictor_entries: int = 1 << 16
    #: Underlying gshare global-history width.
    predictor_history_bits: int = 16
    #: Confidence-table index width (table has 2**ct_index_bits entries).
    ct_index_bits: int = 16
    #: CIR width n.  Consumed by the confidence tables built *from* the
    #: cached predictor streams, never by the cached sweep itself.
    cir_bits: int = 16
    #: Reference x position for headline numbers (the paper quotes 20 %).
    #: Report formatting only; does not affect any simulated stream.
    headline_percent: float = 20.0
    #: Worker processes for sweep/experiment fan-out (1 = fully serial).
    #: Results are merged deterministically, so reports are identical
    #: regardless of the value; workers share the persistent stream cache.
    #: An execution knob, so it stays out of every cache key.
    jobs: int = 1
    #: Branches per streaming chunk (None = monolithic).  All table state
    #: carries across chunk boundaries, so every statistic is identical
    #: for any chunk size; the value only bounds peak working-set memory.
    #: Composes with ``jobs``: parallel workers sweep through the
    #: per-chunk cache tier too.  Keys the chunk *tier* (ChunkStreamKey),
    #: not the sweep: outputs are identical for any value.
    chunk_size: Optional[int] = None
    #: Retries granted to a failing/timed-out parallel worker task before
    #: the runner aborts (deterministic errors) or degrades to the serial
    #: path (timeouts).  Ignored when ``jobs == 1``.  A fault-handling
    #: knob: results are identical, so it stays out of every cache key.
    max_retries: int = 2
    #: Seconds to wait for one parallel worker task before it is counted
    #: as timed out and retried (None = wait indefinitely).  A
    #: fault-handling knob, kept out of every cache key.
    task_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        """Fail fast on knobs that would silently mis-shard work.

        Programmatic construction gets exactly the messages the CLI
        prints, so a bad ``jobs=0`` fails identically from both entries.
        """
        if self.trace_length < 1:
            raise ValueError("--length must be >= 1")
        known = benchmark_names() + spec_benchmark_names()
        for name in self.benchmarks:
            if name not in known:
                raise ValueError(
                    f"unknown benchmark {name!r}; expected one of {known}"
                )
        if self.jobs < 1:
            raise ValueError("--jobs must be >= 1")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("--chunk-size must be >= 1")
        if self.max_retries < 0:
            raise ValueError("--max-retries must be >= 0")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("--task-timeout must be > 0")

    def scaled(self, **overrides) -> "ExperimentConfig":
        """A copy with the given fields replaced."""
        return dataclasses.replace(self, **overrides)

    @property
    def small_predictor(self) -> "ExperimentConfig":
        """The Section 5.3 configuration: 4K gshare, 12-bit history."""
        return self.scaled(
            predictor_entries=1 << 12,
            predictor_history_bits=12,
            ct_index_bits=12,
        )


#: The paper's default setup.
DEFAULT_CONFIG = ExperimentConfig()

#: A reduced setup for unit tests and quick smoke runs.
SMOKE_CONFIG = ExperimentConfig(
    benchmarks=("jpeg_play", "gcc"),
    trace_length=12_000,
)
