"""Branch prediction reverser (paper application 4).

"If the confidence in a branch prediction can be determined to be less
than 50%, then the prediction should be reversed."

This module answers the operative question honestly: does any confidence
bucket actually mispredict more than half the time?  The evaluation
splits each benchmark's trace into a *training* half (bucket
misprediction rates are measured) and an *evaluation* half (buckets whose
training rate exceeds ``reverse_threshold`` get their predictions
reversed), so the reverser is never tuned on the data it is scored on.

With the paper's recommended resetting-counter estimator, the count-0
bucket mispredicts well below 50 % (Table 1 shows .376), so reversal is
expected to *hurt* — matching the paper's caution that the reverser
"looks promising, but a key issue will be whether the cost/performance
of a predictor plus reverser is better than ... a more powerful
predictor".  Raw CIR patterns, however, contain individual buckets above
50 %, which is where a reverser can eke out gains; both estimators are
reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.indexing import make_index
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.runner import ones_init, suite_streams
from repro.sim.fast import cir_pattern_stream, resetting_counter_stream


@dataclass(frozen=True)
class ReverserReport:
    """Accuracy with and without reversal, per estimator flavour."""

    reverse_threshold: float
    baseline_accuracy: float
    #: Accuracy after reversing low-confidence resetting-counter buckets.
    counter_reversed_accuracy: float
    #: Accuracy after reversing >50%-rate raw-CIR-pattern buckets.
    pattern_reversed_accuracy: float
    #: Fraction of evaluation branches reversed, per flavour.
    counter_reversed_fraction: float
    pattern_reversed_fraction: float
    #: Per-benchmark accuracy gain of the raw-CIR-pattern reverser.
    per_benchmark: Dict[str, float]

    @property
    def counter_reversal_helps(self) -> bool:
        return self.counter_reversed_accuracy > self.baseline_accuracy

    @property
    def pattern_reversal_helps(self) -> bool:
        return self.pattern_reversed_accuracy > self.baseline_accuracy

    def format(self) -> str:
        def verdict(accuracy: float, fraction: float) -> str:
            if fraction == 0.0:
                return "no bucket exceeds the threshold; reverser inert"
            return "helps" if accuracy > self.baseline_accuracy else "hurts"

        lines = [
            "Branch prediction reverser (train/evaluate split)",
            f"baseline accuracy: {self.baseline_accuracy:.4f}",
            f"resetting-counter reverser: {self.counter_reversed_accuracy:.4f} "
            f"({self.counter_reversed_fraction:.2%} reversed) -> "
            f"{verdict(self.counter_reversed_accuracy, self.counter_reversed_fraction)}",
            f"raw-CIR-pattern reverser:   {self.pattern_reversed_accuracy:.4f} "
            f"({self.pattern_reversed_fraction:.2%} reversed) -> "
            f"{verdict(self.pattern_reversed_accuracy, self.pattern_reversed_fraction)}",
        ]
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        """JSON-serializable record (application, headline, per_benchmark)."""
        return {
            "application": "reverser",
            "headline": {
                "reverse_threshold": self.reverse_threshold,
                "baseline_accuracy": self.baseline_accuracy,
                "counter_reversed_accuracy": self.counter_reversed_accuracy,
                "pattern_reversed_accuracy": self.pattern_reversed_accuracy,
                "counter_reversed_fraction": self.counter_reversed_fraction,
                "pattern_reversed_fraction": self.pattern_reversed_fraction,
            },
            "per_benchmark": dict(self.per_benchmark),
        }

    __str__ = format


def _reversed_accuracy(
    train_buckets: np.ndarray,
    train_correct: np.ndarray,
    eval_buckets: np.ndarray,
    eval_correct: np.ndarray,
    num_buckets: int,
    reverse_threshold: float,
) -> "tuple[float, float]":
    """(evaluation accuracy after reversal, fraction reversed)."""
    counts = np.bincount(train_buckets, minlength=num_buckets)
    mispredicts = np.bincount(
        train_buckets,
        weights=(train_correct == 0).astype(np.float64),
        minlength=num_buckets,
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        rates = np.where(counts > 0, mispredicts / counts, 0.0)
    reverse_bucket = rates > reverse_threshold
    reversed_mask = reverse_bucket[eval_buckets]
    # Reversing flips correctness: a reversed correct prediction becomes
    # wrong; a reversed misprediction becomes right.
    effective_correct = np.where(reversed_mask, 1 - eval_correct, eval_correct)
    accuracy = float(effective_correct.mean()) if eval_correct.size else 0.0
    fraction = float(reversed_mask.mean()) if eval_correct.size else 0.0
    return accuracy, fraction


def evaluate_reverser(
    config: ExperimentConfig = DEFAULT_CONFIG,
    reverse_threshold: float = 0.5,
    counter_maximum: int = 16,
    benchmarks: Optional["tuple[str, ...]"] = None,
) -> ReverserReport:
    """Evaluate reversal policies over the suite with a train/test split."""
    if benchmarks is not None:
        config = config.scaled(benchmarks=tuple(benchmarks))
    index_function = make_index("pc_xor_bhr", config.ct_index_bits)
    init = ones_init(config)

    eval_total = 0
    eval_correct_total = 0
    counter_correct_total = 0.0
    pattern_correct_total = 0.0
    counter_reversed_total = 0.0
    pattern_reversed_total = 0.0
    per_benchmark_gain: Dict[str, float] = {}

    for name, streams in suite_streams(config).items():
        gcirs = np.zeros(streams.num_branches, dtype=np.int64)
        indices = index_function.vectorized(streams.pcs, streams.bhrs, gcirs)
        counters = resetting_counter_stream(
            indices, streams.correct, maximum=counter_maximum
        )
        patterns = cir_pattern_stream(
            indices, streams.correct, config.cir_bits, init
        )
        correct = streams.correct.astype(np.int64)
        half = streams.num_branches // 2

        counter_accuracy, counter_fraction = _reversed_accuracy(
            counters[:half], correct[:half], counters[half:], correct[half:],
            counter_maximum + 1, reverse_threshold,
        )
        pattern_accuracy, pattern_fraction = _reversed_accuracy(
            patterns[:half], correct[:half], patterns[half:], correct[half:],
            1 << config.cir_bits, reverse_threshold,
        )
        eval_n = streams.num_branches - half
        eval_correct = int(correct[half:].sum())

        eval_total += eval_n
        eval_correct_total += eval_correct
        counter_correct_total += counter_accuracy * eval_n
        pattern_correct_total += pattern_accuracy * eval_n
        counter_reversed_total += counter_fraction * eval_n
        pattern_reversed_total += pattern_fraction * eval_n
        per_benchmark_gain[name] = pattern_accuracy - eval_correct / eval_n

    return ReverserReport(
        reverse_threshold=reverse_threshold,
        baseline_accuracy=eval_correct_total / eval_total if eval_total else 0.0,
        counter_reversed_accuracy=(
            counter_correct_total / eval_total if eval_total else 0.0
        ),
        pattern_reversed_accuracy=(
            pattern_correct_total / eval_total if eval_total else 0.0
        ),
        counter_reversed_fraction=(
            counter_reversed_total / eval_total if eval_total else 0.0
        ),
        pattern_reversed_fraction=(
            pattern_reversed_total / eval_total if eval_total else 0.0
        ),
        per_benchmark=per_benchmark_gain,
    )
