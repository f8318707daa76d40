"""Confidence curves (the paper's Figs. 2, 5-11).

A curve is built from bucket statistics plus an ordering:

* **empirical** ordering sorts buckets by observed misprediction rate,
  highest first — the paper's idealized "optimal reduction function"
  (each data point defines a candidate low/high confidence split);
* an **explicit** ordering (from an ORDERED estimator, e.g. resetting
  counter values 0..16) evaluates a practical reduction function: points
  appear in the declared least-confident-first order, whatever their
  observed rates.

Each curve point (x, y) reads: the ``x`` percent least-confident dynamic
branches capture ``y`` percent of all mispredictions.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
import numpy.typing as npt

from repro.analysis.buckets import BucketStatistics


@dataclass(frozen=True)
class CurvePoint:
    """One cumulative point on a confidence curve."""

    #: Cumulative percent of dynamic branches (0-100].
    dynamic_percent: float
    #: Cumulative percent of mispredictions captured (0-100].
    misprediction_percent: float
    #: The bucket whose inclusion produced this point.
    bucket: int
    #: This bucket's own misprediction rate.
    bucket_rate: float


class ConfidenceCurve:
    """Cumulative mispredictions versus cumulative dynamic branches.

    A curve is stored as four parallel columns (x, y, bucket, bucket
    rate); :class:`CurvePoint` objects are built only when :attr:`points`
    is read.
    """

    def __init__(self, name: str, points: Sequence[CurvePoint]) -> None:
        points = list(points)
        xs = [point.dynamic_percent for point in points]
        if len(xs) > 1:
            x_column = np.asarray(xs, dtype=np.float64)
            if (x_column[:-1] > x_column[1:] + 1e-9).any():
                raise ValueError("curve points must have non-decreasing x")
        self._name = name
        self._xs = xs
        self._ys = [point.misprediction_percent for point in points]
        self._buckets = [point.bucket for point in points]
        self._rates = [point.bucket_rate for point in points]

    @classmethod
    def _from_columns(
        cls,
        name: str,
        xs: List[float],
        ys: List[float],
        buckets: List[int],
        rates: List[float],
    ) -> "ConfidenceCurve":
        """Adopt already-checked columns without building any point."""
        curve = cls.__new__(cls)
        curve._name = name
        curve._xs = xs
        curve._ys = ys
        curve._buckets = buckets
        curve._rates = rates
        return curve

    # ----- construction -----------------------------------------------------

    @classmethod
    def from_statistics(
        cls,
        statistics: BucketStatistics,
        order: Optional[Sequence[int]] = None,
        name: str = "",
    ) -> "ConfidenceCurve":
        """Build a curve from bucket statistics.

        ``order`` is the least-confident-first bucket order; ``None``
        selects the empirical (ideal) order: descending observed
        misprediction rate, ties broken by bucket id for determinism.
        Buckets with zero executions contribute no points.
        """
        counts = statistics.counts
        mispredicts = statistics.mispredicts
        if order is None:
            rates = statistics.rates()
            occupied = np.flatnonzero(counts > 0)
            order_arr = occupied[np.lexsort((occupied, -rates[occupied]))]
        else:
            order_arr = np.asarray(list(order), dtype=np.int64)
            if order_arr.size and (
                order_arr.min() < 0 or order_arr.max() >= statistics.num_buckets
            ):
                raise ValueError("order contains bucket ids out of range")
            if order_arr.size and np.bincount(order_arr).max() > 1:
                raise ValueError("order contains duplicate bucket ids")
            order_arr = order_arr[counts[order_arr] > 0]

        total = counts.sum()
        total_mispredicts = mispredicts.sum()
        if total == 0:
            return cls(name, [])
        ordered_counts = counts[order_arr]
        ordered_mispredicts = mispredicts[order_arr]
        xs = 100.0 * np.cumsum(ordered_counts) / total
        if total_mispredicts > 0:
            ys = 100.0 * np.cumsum(ordered_mispredicts) / total_mispredicts
        else:
            ys = np.full(order_arr.size, 100.0)
        return cls._from_columns(
            name,
            xs.tolist(),
            ys.tolist(),
            order_arr.tolist(),
            (ordered_mispredicts / ordered_counts).tolist(),
        )

    # ----- access -----------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def points(self) -> List[CurvePoint]:
        return [
            CurvePoint(*fields)
            for fields in zip(self._xs, self._ys, self._buckets, self._rates)
        ]

    def __len__(self) -> int:
        return len(self._xs)

    def as_series(
        self,
    ) -> "tuple[npt.NDArray[np.float64], npt.NDArray[np.float64]]":
        """(x, y) arrays including the implicit origin."""
        xs = np.concatenate(([0.0], np.asarray(self._xs, dtype=np.float64)))
        ys = np.concatenate(([0.0], np.asarray(self._ys, dtype=np.float64)))
        return xs, ys

    # ----- queries ----------------------------------------------------------

    def mispredictions_captured_at(self, dynamic_percent: float) -> float:
        """Percent of mispredictions captured by the ``dynamic_percent``
        least-confident branches (linear interpolation between points,
        through the origin).

        This is the paper's headline query shape: "20 percent of the
        branches concentrate X percent of the mispredictions".
        """
        if not 0.0 <= dynamic_percent <= 100.0:
            raise ValueError(f"dynamic_percent must be in [0, 100], got {dynamic_percent}")
        if not self._xs:
            return 0.0
        xs, ys = [0.0] + self._xs, [0.0] + self._ys
        position = bisect.bisect_left(xs, dynamic_percent)
        if position >= len(xs):
            return ys[-1]
        if xs[position] == dynamic_percent or position == 0:
            return ys[position]
        x0, x1 = xs[position - 1], xs[position]
        y0, y1 = ys[position - 1], ys[position]
        if x1 == x0:
            return y1
        return y0 + (y1 - y0) * (dynamic_percent - x0) / (x1 - x0)

    def low_confidence_buckets(self, max_dynamic_percent: float) -> List[int]:
        """The largest least-confident bucket prefix whose dynamic-branch
        share does not exceed ``max_dynamic_percent``.

        This is how an offline curve is turned into an online threshold
        (see :class:`repro.core.threshold.ThresholdConfidence`).
        """
        limit = max_dynamic_percent + 1e-9
        for position, x in enumerate(self._xs):
            if x > limit:
                return self._buckets[:position]
        return list(self._buckets)

    def knee(self) -> CurvePoint:
        """The curve's knee: the point farthest above the diagonal.

        The paper reads curves by their knees ("the steeper the initial
        slope and the farther to the left the knee occurs, the better").
        The knee is where the marginal value of enlarging the low
        confidence set starts to fall below average — a natural operating
        point for threshold selection.
        """
        if not self._xs:
            raise ValueError("cannot locate the knee of an empty curve")
        xs, ys = self._xs, self._ys
        best = max(range(len(xs)), key=lambda i: ys[i] - xs[i])
        return CurvePoint(xs[best], ys[best], self._buckets[best], self._rates[best])

    def area_under_curve(self) -> float:
        """Trapezoidal area under the curve, normalized to [0, 1].

        1.0 would mean all mispredictions in an infinitesimal branch set;
        the diagonal (no information) scores 0.5.  A convenient scalar for
        comparing mechanisms.
        """
        xs, ys = self.as_series()
        if xs[-1] < 100.0:
            xs = np.concatenate((xs, [100.0]))
            ys = np.concatenate((ys, [100.0]))
        # Trapezoidal rule (numpy.trapz was removed in numpy 2).
        area = float(np.sum((xs[1:] - xs[:-1]) * (ys[1:] + ys[:-1]) / 2.0))
        return area / (100.0 * 100.0)

    def sparsified(self, min_spacing_percent: float = 2.5) -> "ConfidenceCurve":
        """Drop points closer than ``min_spacing_percent`` to the previous
        kept point (the paper plots "only those points that differ from a
        previous point by 2.5 percent").  The final point is always kept.
        """
        xs, ys = self._xs, self._ys
        if not xs:
            return ConfidenceCurve(self._name, [])
        kept = [0]
        for position in range(1, len(xs) - 1):
            previous = kept[-1]
            if (
                xs[position] - xs[previous] >= min_spacing_percent
                or ys[position] - ys[previous] >= min_spacing_percent
            ):
                kept.append(position)
        if len(xs) > 1:
            kept.append(len(xs) - 1)
        return ConfidenceCurve._from_columns(
            self._name,
            [xs[i] for i in kept],
            [ys[i] for i in kept],
            [self._buckets[i] for i in kept],
            [self._rates[i] for i in kept],
        )

    def __repr__(self) -> str:
        return f"ConfidenceCurve(name={self._name!r}, points={len(self)})"
