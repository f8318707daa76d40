"""Extension — cross-validated (leave-one-out) reduction design.

The paper's methodology note (§1): "we propose using benchmarks to
collect prediction accuracy data.  This data can then be used to design
logic ... once implemented, the confidence logic is used for all
programs."  The figures, however, evaluate the ideal reduction on the
*same* data it was sorted on — an optimism the paper itself flags.

This extension quantifies that optimism with leave-one-out cross
validation of the one-level BHRxorPC method: for each benchmark, the CIR
patterns are ranked by misprediction rate measured on the *other seven*
benchmarks, the resulting fixed order is applied to the held-out
benchmark, and the capture at the headline point is compared to the
self-tuned (within-benchmark ideal) order.

Finding (and the experiment's assertion): the tuned minterm order
*overfits* — raw 16-bit CIR patterns are too program-specific to
transfer — while the structural resetting-counter reduction, which
depends only on the position of the most recent misprediction, applies
identically to every program and outperforms the transferred minterm
logic.  That is a quantitative argument for the paper's §5 move from
ideal reductions to simple structural ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.analysis.buckets import BucketStatistics
from repro.analysis.curves import ConfidenceCurve
from repro.analysis.weighting import equal_weight_combine
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.runner import one_level_pattern_statistics


@dataclass(frozen=True)
class CrossValidationResult:
    """Self-tuned vs transferred vs structural capture per benchmark."""

    self_tuned: Dict[str, float]
    cross_validated: Dict[str, float]
    resetting: Dict[str, float]
    headline_percent: float

    @property
    def mean_gap(self) -> float:
        """Mean capture loss from designing on other benchmarks' data."""
        gaps = [
            self.self_tuned[name] - self.cross_validated[name]
            for name in self.self_tuned
        ]
        return sum(gaps) / len(gaps) if gaps else 0.0

    @property
    def structural_beats_transferred(self) -> bool:
        """The paper's §5 case: the fixed structural reduction outperforms
        the minterm logic tuned on *other* programs, on average."""
        mean_resetting = sum(self.resetting.values()) / len(self.resetting)
        mean_crossed = sum(self.cross_validated.values()) / len(
            self.cross_validated
        )
        return mean_resetting > mean_crossed

    def format(self) -> str:
        lines = [
            "Extension — leave-one-out reduction design "
            f"(capture @ {self.headline_percent:g}%)",
            f"{'benchmark':12s} {'self-tuned':>11s} {'transferred':>12s} "
            f"{'resetting':>10s}",
        ]
        for name in self.self_tuned:
            lines.append(
                f"{name:12s} {self.self_tuned[name]:11.1f} "
                f"{self.cross_validated[name]:12.1f} "
                f"{self.resetting[name]:10.1f}"
            )
        lines.append(
            f"mean overfit gap (self-tuned - transferred): {self.mean_gap:.1f} points"
        )
        lines.append(
            "fixed structural reduction beats transferred minterm logic: "
            f"{self.structural_beats_transferred}"
        )
        return "\n".join(lines)

    __str__ = format


def _empirical_order(statistics: BucketStatistics) -> np.ndarray:
    """Occupied buckets by descending misprediction rate (ties by id)."""
    rates = statistics.rates()
    occupied = np.flatnonzero(statistics.counts > 0)
    return occupied[np.lexsort((occupied, -rates[occupied]))]


def check_config(config: ExperimentConfig) -> None:
    """Reject suites too small to hold one benchmark out of."""
    if len(config.benchmarks) < 2:
        raise ValueError(
            "extension-crossval: leave-one-out cross-validation needs at "
            "least two benchmarks"
        )


def run(config: ExperimentConfig = DEFAULT_CONFIG) -> CrossValidationResult:
    """Leave-one-out evaluation of the ideal reduction's pattern order."""
    from repro.core.reduction import ResettingCountReduction

    check_config(config)
    per_benchmark = one_level_pattern_statistics(config, "pc_xor_bhr")
    reduction = ResettingCountReduction(config.cir_bits)
    reduction_lut = reduction.vectorized(
        np.arange(1 << config.cir_bits, dtype=np.int64)
    )
    self_tuned: Dict[str, float] = {}
    cross_validated: Dict[str, float] = {}
    resetting: Dict[str, float] = {}
    for held_out, statistics in per_benchmark.items():
        own_curve = ConfidenceCurve.from_statistics(statistics, name=held_out)
        self_tuned[held_out] = own_curve.mispredictions_captured_at(
            config.headline_percent
        )
        training = {
            name: stats
            for name, stats in per_benchmark.items()
            if name != held_out
        }
        design_order = _empirical_order(equal_weight_combine(training))
        # Patterns the training data never produced get no minterm in the
        # designed logic: they default to the high-confidence side, i.e.
        # the end of the order.
        seen = np.zeros(statistics.num_buckets, dtype=bool)
        seen[design_order] = True
        unseen = np.flatnonzero(~seen)
        full_order = np.concatenate((design_order, unseen))
        transferred_curve = ConfidenceCurve.from_statistics(
            statistics, order=full_order.tolist(), name=f"{held_out}:xval"
        )
        cross_validated[held_out] = transferred_curve.mispredictions_captured_at(
            config.headline_percent
        )
        resetting_curve = ConfidenceCurve.from_statistics(
            statistics.regrouped(reduction_lut, num_buckets=reduction.num_buckets),
            order=reduction.bucket_order,
            name=f"{held_out}:reset",
        )
        resetting[held_out] = resetting_curve.mispredictions_captured_at(
            config.headline_percent
        )
    return CrossValidationResult(
        self_tuned=self_tuned,
        cross_validated=cross_validated,
        resetting=resetting,
        headline_percent=config.headline_percent,
    )
