"""Ablation — trace-length (warmup) sensitivity.

The paper simulates full IBS traces (tens of millions of branches); this
reproduction defaults to 160k per benchmark.  Several quantities are
warmup-sensitive — most visibly the zero bucket's branch share, since a
2^16-entry CT needs many accesses per entry before saturated histories
dominate.  This ablation sweeps the trace length and reports, per length:
the suite misprediction rate, the headline capture of the best one-level
method, and the zero bucket share — quantifying how the reproduction's
numbers drift toward the paper's as traces lengthen (EXPERIMENTS.md's
deviations 1-2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.analysis.curves import ConfidenceCurve
from repro.analysis.weighting import equal_weight_combine
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.runner import one_level_pattern_statistics

DEFAULT_LENGTHS: Tuple[int, ...] = (20_000, 40_000, 80_000, 160_000)


@dataclass(frozen=True)
class LengthSample:
    """The warmup-sensitive quantities at one trace length."""

    trace_length: int
    misprediction_rate: float
    captured_at_headline: float
    zero_bucket_branch_percent: float


@dataclass(frozen=True)
class TraceLengthResult:
    """Sweep of warmup-sensitive quantities over trace lengths."""

    samples: List[LengthSample]
    headline_percent: float

    @property
    def by_length(self) -> Dict[int, LengthSample]:
        return {sample.trace_length: sample for sample in self.samples}

    @property
    def misprediction_rate_decreases(self) -> bool:
        """Longer traces amortize cold misses: the rate must not rise."""
        rates = [sample.misprediction_rate for sample in self.samples]
        return all(a >= b - 0.002 for a, b in zip(rates, rates[1:]))

    @property
    def zero_bucket_grows(self) -> bool:
        """Longer traces saturate more CT entries."""
        shares = [sample.zero_bucket_branch_percent for sample in self.samples]
        return all(a <= b + 1.0 for a, b in zip(shares, shares[1:]))

    def format(self) -> str:
        lines = ["Ablation — trace-length (warmup) sensitivity"]
        for sample in self.samples:
            lines.append(
                f"length {sample.trace_length:7d}: misprediction "
                f"{sample.misprediction_rate:.2%}, capture @"
                f"{self.headline_percent:g}% = {sample.captured_at_headline:5.1f}%, "
                f"zero bucket {sample.zero_bucket_branch_percent:5.1f}% of branches"
            )
        lines.append(
            f"misprediction rate non-increasing: {self.misprediction_rate_decreases}"
        )
        lines.append(f"zero bucket non-shrinking: {self.zero_bucket_grows}")
        return "\n".join(lines)

    __str__ = format


def _sample(config: ExperimentConfig, length: int) -> LengthSample:
    """The warmup-sensitive quantities at one trace length.

    A function of its own so the per-benchmark statistics are dropped
    before the next (longer) length's grid runs.
    """
    scaled = config.scaled(trace_length=length)
    per_benchmark = one_level_pattern_statistics(scaled, "pc_xor_bhr")
    statistics = equal_weight_combine(per_benchmark)
    curve = ConfidenceCurve.from_statistics(statistics)
    return LengthSample(
        trace_length=length,
        # Every branch lands in one CIR bucket, so each benchmark's
        # statistics carry its predictor misprediction rate exactly; the
        # streams need not be read again.
        misprediction_rate=float(
            np.mean([per_benchmark[n].misprediction_rate for n in scaled.benchmarks])
        ),
        captured_at_headline=curve.mispredictions_captured_at(
            scaled.headline_percent
        ),
        zero_bucket_branch_percent=(
            100.0 * float(statistics.counts[0]) / statistics.total
        ),
    )


def run(
    config: ExperimentConfig = DEFAULT_CONFIG,
    lengths: Tuple[int, ...] = DEFAULT_LENGTHS,
) -> TraceLengthResult:
    """Sweep the per-benchmark trace length."""
    return TraceLengthResult(
        samples=[_sample(config, length) for length in lengths],
        headline_percent=config.headline_percent,
    )
