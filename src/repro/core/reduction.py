"""Reduction functions (paper Sections 3.1 and 5.1).

A reduction function maps the CIR read from the table to a small value
from which the binary confidence signal is derived.  The paper studies:

* the **ideal** reduction — minterms chosen per CIR pattern from profiled
  misprediction rates.  In this library that is not a class here but the
  *analysis default* for EMPIRICAL estimators: :mod:`repro.analysis.curves`
  sorts raw patterns by observed misprediction rate, which is exactly the
  optimal reduction the paper describes;
* **ones counting** — :class:`OnesCountReduction`;
* **resetting counting** — :class:`ResettingCountReduction`, a pure
  function of the CIR (the position of the most recent misprediction),
  matching the hardware resetting counter of
  :class:`repro.core.counters.ResettingCounterConfidence`;
* (**saturating counting** is *not* a function of the CIR — it needs its
  own state — so it lives in :mod:`repro.core.counters` only.)

:class:`ReducedEstimator` composes any CIR-bucket estimator with a
reduction, yielding an ORDERED estimator whose buckets are the reduced
values.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np

from repro.core.base import BucketSemantics, ConfidenceEstimator
from repro.utils.bits import lowest_set_bit, popcount
from repro.utils.validation import check_in_range


class Reduction(abc.ABC):
    """Maps an n-bit CIR pattern to a reduced bucket value."""

    def __init__(self, cir_bits: int) -> None:
        self._cir_bits = check_in_range(cir_bits, 1, 24, "cir_bits")
        self._lut = self._build_lut()

    @property
    def cir_bits(self) -> int:
        return self._cir_bits

    def _build_lut(self) -> np.ndarray:
        """Tabulate :meth:`reduce_pattern` over every pattern.

        The built-in reductions override this with a closed form; the
        scalar :meth:`reduce_pattern` stays their oracle.
        """
        patterns = 1 << self._cir_bits
        return np.fromiter(
            (self.reduce_pattern(p) for p in range(patterns)),
            dtype=np.int64,
            count=patterns,
        )

    @abc.abstractmethod
    def reduce_pattern(self, pattern: int) -> int:
        """Reduce one CIR pattern (pure function)."""

    def __call__(self, pattern: int) -> int:
        return int(self._lut[pattern])

    def vectorized(self, patterns: np.ndarray) -> np.ndarray:
        """Reduce a whole pattern stream at once."""
        return self._lut[patterns]

    @property
    @abc.abstractmethod
    def num_buckets(self) -> int:
        """Exclusive upper bound on reduced values."""

    @property
    @abc.abstractmethod
    def bucket_order(self) -> Sequence[int]:
        """Reduced buckets ordered least-confident first."""

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short name used in curve labels (paper style, e.g. ``1Cnt``)."""


class IdentityReduction(Reduction):
    """Pass the raw pattern through (useful for plumbing and tests).

    The identity has no meaningful a-priori order, so its ``bucket_order``
    is simply numeric; analyses of raw patterns should prefer the
    EMPIRICAL path instead.
    """

    def reduce_pattern(self, pattern: int) -> int:
        return pattern

    def _build_lut(self) -> np.ndarray:
        return np.arange(1 << self._cir_bits, dtype=np.int64)

    @property
    def num_buckets(self) -> int:
        return 1 << self._cir_bits

    @property
    def bucket_order(self) -> Sequence[int]:
        return range(self.num_buckets)

    @property
    def name(self) -> str:
        return "Identity"


class OnesCountReduction(Reduction):
    """Count the ones in the CIR (paper Section 5.1, "Ones Counting").

    More ones = more recent mispredictions = lower confidence, so the
    least-confident-first order is descending count.
    """

    def reduce_pattern(self, pattern: int) -> int:
        return popcount(pattern)

    def _build_lut(self) -> np.ndarray:
        # Patterns [2^k, 2^(k+1)) are patterns [0, 2^k) plus bit k.
        lut = np.zeros(1, dtype=np.int64)
        for _ in range(self._cir_bits):
            lut = np.concatenate((lut, lut + 1))
        return lut

    @property
    def num_buckets(self) -> int:
        return self._cir_bits + 1

    @property
    def bucket_order(self) -> Sequence[int]:
        return range(self._cir_bits, -1, -1)

    @property
    def name(self) -> str:
        return "1Cnt"


class ResettingCountReduction(Reduction):
    """Distance to the most recent misprediction, saturated (paper "Reset").

    For a CIR with bit 0 = most recent, the number of correct predictions
    since the last misprediction is the index of the lowest set bit; an
    all-zeros CIR means at least ``cir_bits`` corrects, which saturates at
    ``maximum``.  With an all-ones initial CIR this is bit-for-bit the
    hardware resetting counter of
    :class:`repro.core.counters.ResettingCounterConfidence` (a property
    the test suite asserts).
    """

    def __init__(self, cir_bits: int, maximum: Optional[int] = None) -> None:
        if maximum is None:
            maximum = cir_bits
        self._maximum = check_in_range(maximum, 1, cir_bits, "maximum")
        super().__init__(cir_bits)

    @property
    def maximum(self) -> int:
        return self._maximum

    def reduce_pattern(self, pattern: int) -> int:
        position = lowest_set_bit(pattern)
        if position < 0:
            return self._maximum
        return min(position, self._maximum)

    def _build_lut(self) -> np.ndarray:
        patterns = np.arange(1 << self._cir_bits, dtype=np.int64)
        # frexp(2^k) = (0.5, k + 1) exactly; frexp(0) = (0.0, 0).
        _, exponent = np.frexp((patterns & -patterns).astype(np.float64))
        position = exponent.astype(np.int64) - 1
        position[0] = self._maximum
        return np.minimum(position, self._maximum)

    @property
    def num_buckets(self) -> int:
        return self._maximum + 1

    @property
    def bucket_order(self) -> Sequence[int]:
        return range(self._maximum + 1)

    @property
    def name(self) -> str:
        return "Reset"


class ReducedEstimator(ConfidenceEstimator):
    """A CIR-bucket estimator viewed through a reduction function.

    The wrapped estimator must emit raw CIR patterns of the reduction's
    width (e.g. :class:`repro.core.one_level.OneLevelConfidence` with
    matching ``cir_bits``).
    """

    def __init__(self, base: ConfidenceEstimator, reduction: Reduction) -> None:
        if base.num_buckets != (1 << reduction.cir_bits):
            raise ValueError(
                f"reduction expects {1 << reduction.cir_bits} patterns but the "
                f"base estimator emits {base.num_buckets} buckets"
            )
        self._base = base
        self._reduction = reduction
        self.name = f"{base.name}.{reduction.name}"

    @property
    def base(self) -> ConfidenceEstimator:
        return self._base

    @property
    def reduction(self) -> Reduction:
        return self._reduction

    def lookup(self, pc: int, bhr: int, gcir: int) -> int:
        return self._reduction(self._base.lookup(pc, bhr, gcir))

    def update(self, pc: int, bhr: int, gcir: int, correct: bool) -> None:
        self._base.update(pc, bhr, gcir, correct)

    def reset(self) -> None:
        self._base.reset()

    @property
    def num_buckets(self) -> int:
        return self._reduction.num_buckets

    @property
    def semantics(self) -> BucketSemantics:
        return BucketSemantics.ORDERED

    @property
    def bucket_order(self) -> Sequence[int]:
        return self._reduction.bucket_order

    @property
    def storage_bits(self) -> int:
        # The reduction itself is combinational logic; state cost is the
        # base table's.
        return self._base.storage_bits
