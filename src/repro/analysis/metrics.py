"""Confidence quality metrics.

The paper evaluates mechanisms via curves; the follow-on literature
(Grunwald, Klauser, Manne & Pleszkun, "Confidence Estimation for
Speculation Control", ISCA 1998) distilled the same information into four
standard metrics over the 2x2 contingency of (confidence signal x
prediction correctness).  They are provided here both as extra validation
of this reproduction and because the application models in
:mod:`repro.apps` are naturally expressed with them.

With HC/LC = high/low confidence and C/I = correct/incorrect prediction:

* **SENS** (sensitivity)  = LC∧I / I — fraction of mispredictions flagged
  low confidence (the y-axis of the paper's curves, as a fraction);
* **SPEC** (specificity)  = HC∧C / C — fraction of correct predictions
  flagged high confidence;
* **PVP** (predictive value of a positive) = HC∧C / HC — accuracy of the
  high-confidence set;
* **PVN** (predictive value of a negative) = LC∧I / LC — misprediction
  rate of the low-confidence set.  The reverser application needs
  PVN > 0.5 to profit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.analysis.buckets import BucketStatistics


@dataclass(frozen=True)
class ConfusionCounts:
    """The 2x2 contingency of confidence signal versus correctness."""

    high_correct: float
    high_incorrect: float
    low_correct: float
    low_incorrect: float

    def __post_init__(self) -> None:
        for label in ("high_correct", "high_incorrect", "low_correct", "low_incorrect"):
            if getattr(self, label) < 0:
                raise ValueError(f"{label} must be non-negative")

    @property
    def total(self) -> float:
        return (
            self.high_correct
            + self.high_incorrect
            + self.low_correct
            + self.low_incorrect
        )

    @property
    def low_fraction(self) -> float:
        """Fraction of dynamic branches flagged low confidence."""
        total = self.total
        return (self.low_correct + self.low_incorrect) / total if total else 0.0

    @property
    def sensitivity(self) -> float:
        """SENS: fraction of mispredictions flagged low confidence."""
        incorrect = self.high_incorrect + self.low_incorrect
        return self.low_incorrect / incorrect if incorrect else 0.0

    @property
    def specificity(self) -> float:
        """SPEC: fraction of correct predictions flagged high confidence."""
        correct = self.high_correct + self.low_correct
        return self.high_correct / correct if correct else 0.0

    @property
    def predictive_value_positive(self) -> float:
        """PVP: accuracy within the high-confidence set."""
        high = self.high_correct + self.high_incorrect
        return self.high_correct / high if high else 0.0

    @property
    def predictive_value_negative(self) -> float:
        """PVN: misprediction rate within the low-confidence set."""
        low = self.low_correct + self.low_incorrect
        return self.low_incorrect / low if low else 0.0


def _sequential_sum(values: np.ndarray) -> float:
    """``0.0 + values[0] + values[1] + ...`` added left to right.

    ``np.sum`` adds pairwise, which rounds fractional (weighted)
    statistics differently from a running total; an accumulate keeps
    every bit of the bucket-order sum.
    """
    return float(np.cumsum(np.concatenate(([0.0], values)))[-1])


def confidence_metrics(
    statistics: BucketStatistics, low_buckets: Iterable[int]
) -> ConfusionCounts:
    """Collapse bucket statistics into a confusion table for a threshold.

    ``low_buckets`` is the set of buckets treated as low confidence
    (typically from
    :meth:`repro.analysis.curves.ConfidenceCurve.low_confidence_buckets`).
    """
    low = frozenset(low_buckets)
    out_of_range = [b for b in low if not 0 <= b < statistics.num_buckets]
    if out_of_range:
        raise ValueError(f"low buckets out of range: {sorted(out_of_range)}")
    in_low = np.zeros(statistics.num_buckets, dtype=bool)
    in_low[list(low)] = True
    executed = statistics.counts != 0
    corrects = statistics.counts - statistics.mispredicts
    low_mask = executed & in_low
    high_mask = executed & ~in_low
    low_correct = _sequential_sum(corrects[low_mask])
    low_incorrect = _sequential_sum(statistics.mispredicts[low_mask])
    high_correct = _sequential_sum(corrects[high_mask])
    high_incorrect = _sequential_sum(statistics.mispredicts[high_mask])
    return ConfusionCounts(high_correct, high_incorrect, low_correct, low_incorrect)
