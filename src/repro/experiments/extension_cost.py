"""Extension — cost/performance of confidence mechanisms (paper §5.3).

The paper's cost discussion is qualitative ("the cost of the confidence
method is twice the underlying predictor"; resetting counters give "an
essentially logarithmic reduction in table space").  This extension makes
it quantitative: for a range of mechanisms it tabulates storage bits
against mispredictions captured at the headline point, on both predictor
configurations.

Mechanisms covered: full-CIR one-level tables (ideal reduction),
resetting-counter tables (5-bit entries), and a sweep of resetting-table
sizes — enough to reproduce §5.3's "twice the underlying predictor"
observation and to expose the CIR→counter saving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.curves import ConfidenceCurve
from repro.analysis.weighting import equal_weight_combine
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.runner import (
    one_level_pattern_statistics,
    resetting_counter_statistics,
)
from repro.utils.bits import log2_exact


_CIR_TABLE = "one-level CIR table"
_COUNTER_TABLE = "resetting counters"


def _full_table_label(kind: str, entries: int, bits: int) -> str:
    """``"<kind> (64K x 16b)"`` for a full ``ct_index_bits``-sized table."""
    size = f"{entries >> 10}K" if entries % 1024 == 0 else str(entries)
    return f"{kind} ({size} x {bits}b)"


@dataclass(frozen=True)
class CostPoint:
    """One mechanism's cost/performance sample."""

    label: str
    storage_bits: int
    captured_at_headline: float

    @property
    def storage_kib(self) -> float:
        return self.storage_bits / 8.0 / 1024.0


@dataclass(frozen=True)
class CostResult:
    """Cost/performance table plus the §5.3 observations."""

    points: List[CostPoint]
    headline_percent: float
    predictor_storage_bits: int
    #: Geometry of the full-size tables, which names their points.
    table_entries: int
    cir_bits: int
    counter_bits: int

    def point(self, label: str) -> CostPoint:
        for point in self.points:
            if point.label == label:
                return point
        raise KeyError(f"no cost point labelled {label!r}")

    @property
    def counter_saving_factor(self) -> float:
        """Storage ratio of the full-CIR table to the counter table."""
        cir = self.point(
            _full_table_label(_CIR_TABLE, self.table_entries, self.cir_bits)
        )
        counter = self.point(
            _full_table_label(_COUNTER_TABLE, self.table_entries, self.counter_bits)
        )
        return cir.storage_bits / counter.storage_bits

    def format(self) -> str:
        lines = [
            "Extension — cost/performance (capture @ "
            f"{self.headline_percent:g}% vs storage)",
            f"underlying predictor: {self.predictor_storage_bits / 8192:.0f} KiB",
        ]
        for point in self.points:
            lines.append(
                f"{point.label:34s} {point.storage_kib:8.1f} KiB   "
                f"{point.captured_at_headline:5.1f}%"
            )
        lines.append(
            f"CIR-table -> resetting-counter storage saving: "
            f"{self.counter_saving_factor:.1f}x (paper: 'essentially logarithmic')"
        )
        return "\n".join(lines)

    __str__ = format


def run(config: ExperimentConfig = DEFAULT_CONFIG) -> CostResult:
    """Tabulate storage against headline capture for key mechanisms."""
    headline = config.headline_percent
    points: List[CostPoint] = []

    def capture(statistics, order) -> float:
        curve = ConfidenceCurve.from_statistics(
            equal_weight_combine(statistics), order=order
        )
        return curve.mispredictions_captured_at(headline)

    entries = 1 << config.ct_index_bits
    cir_bits = config.cir_bits
    counter_bits = (cir_bits).bit_length()  # 0..16 counters -> 5 bits

    points.append(
        CostPoint(
            label=_full_table_label(_CIR_TABLE, entries, cir_bits),
            storage_bits=entries * cir_bits,
            captured_at_headline=capture(
                one_level_pattern_statistics(config, "pc_xor_bhr"), None
            ),
        )
    )
    points.append(
        CostPoint(
            label=_full_table_label(_COUNTER_TABLE, entries, counter_bits),
            storage_bits=entries * counter_bits,
            captured_at_headline=capture(
                resetting_counter_statistics(config, maximum=cir_bits),
                range(cir_bits + 1),
            ),
        )
    )
    for size in (4096, 1024, 256):
        points.append(
            CostPoint(
                label=f"{_COUNTER_TABLE} ({size} x {counter_bits}b)",
                storage_bits=size * counter_bits,
                captured_at_headline=capture(
                    resetting_counter_statistics(
                        config, maximum=cir_bits, ct_index_bits=log2_exact(size)
                    ),
                    range(cir_bits + 1),
                ),
            )
        )

    return CostResult(
        points=points,
        headline_percent=headline,
        predictor_storage_bits=2 * config.predictor_entries,
        table_entries=entries,
        cir_bits=cir_bits,
        counter_bits=counter_bits,
    )
