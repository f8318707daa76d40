"""Confidence-driven hybrid predictor selection (paper application 3).

Hybrid predictors (McFarling) select between two component predictors
with an ad-hoc chooser table.  The paper suggests that comparing the
components' *confidence* signals could yield a more systematic selector.

This module simulates, over one pass per benchmark:

* the two components — a bimodal predictor (PC-indexed 2-bit counters)
  and a gshare predictor;
* the McFarling baseline — a PC-indexed 2-bit chooser trained toward the
  component that was right when they disagree in correctness;
* the confidence selector — a resetting counter per component (indexed
  the same way as that component, tracking *that component's*
  correctness) selecting the component with the higher counter, ties to
  gshare.

The report gives all four accuracies.  Expected: both hybrids beat both
components, and the confidence selector is competitive with (the paper
hopes: near-optimal versus) the chooser.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional

from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.sim.chunked import _WEAKLY_TAKEN
from repro.utils.bits import bit_mask
from repro.workloads.ibs import load_benchmark

_CHOOSER_NEUTRAL = 2


@dataclass(frozen=True)
class HybridAccuracies:
    """Prediction accuracies of the four schemes on one benchmark."""

    bimodal: float
    gshare: float
    chooser_hybrid: float
    confidence_hybrid: float


@dataclass(frozen=True)
class HybridSelectorReport:
    """Suite-level comparison of hybrid selection schemes."""

    per_benchmark: Dict[str, HybridAccuracies]

    def _mean(self, attribute: str) -> float:
        values = [getattr(acc, attribute) for acc in self.per_benchmark.values()]
        return sum(values) / len(values) if values else 0.0

    @property
    def mean_bimodal(self) -> float:
        return self._mean("bimodal")

    @property
    def mean_gshare(self) -> float:
        return self._mean("gshare")

    @property
    def mean_chooser(self) -> float:
        return self._mean("chooser_hybrid")

    @property
    def mean_confidence(self) -> float:
        return self._mean("confidence_hybrid")

    @property
    def confidence_selector_competitive(self) -> bool:
        """Within half a point of the McFarling chooser, suite-wide."""
        return self.mean_confidence >= self.mean_chooser - 0.005

    def format(self) -> str:
        lines = [
            "Hybrid predictor selection (bimodal + gshare components)",
            f"{'benchmark':12s} {'bimodal':>9s} {'gshare':>9s} "
            f"{'chooser':>9s} {'confid.':>9s}",
        ]
        for name, acc in self.per_benchmark.items():
            lines.append(
                f"{name:12s} {acc.bimodal:9.4f} {acc.gshare:9.4f} "
                f"{acc.chooser_hybrid:9.4f} {acc.confidence_hybrid:9.4f}"
            )
        lines.append(
            f"{'MEAN':12s} {self.mean_bimodal:9.4f} {self.mean_gshare:9.4f} "
            f"{self.mean_chooser:9.4f} {self.mean_confidence:9.4f}"
        )
        lines.append(
            "confidence selector competitive with chooser: "
            f"{self.confidence_selector_competitive}"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        """JSON-serializable record (application, headline, per_benchmark)."""
        return {
            "application": "hybrid-selector",
            "headline": {
                "mean_bimodal": self.mean_bimodal,
                "mean_gshare": self.mean_gshare,
                "mean_chooser": self.mean_chooser,
                "mean_confidence": self.mean_confidence,
                "confidence_selector_competitive": (
                    self.confidence_selector_competitive
                ),
            },
            "per_benchmark": {
                name: dataclasses.asdict(acc)
                for name, acc in self.per_benchmark.items()
            },
        }

    __str__ = format


def _simulate_benchmark(
    name: str,
    length: int,
    seed: int,
    bimodal_entries: int,
    gshare_entries: int,
    gshare_history_bits: int,
    counter_maximum: int,
) -> HybridAccuracies:
    """One fused pass: both components, chooser, per-component confidence."""
    trace = load_benchmark(name, length, seed)
    bimodal_mask = bimodal_entries - 1
    gshare_mask = gshare_entries - 1
    history_mask = bit_mask(gshare_history_bits)

    bimodal_table = [_WEAKLY_TAKEN] * bimodal_entries
    gshare_table = [_WEAKLY_TAKEN] * gshare_entries
    chooser_table = [_CHOOSER_NEUTRAL] * bimodal_entries
    bimodal_confidence = [0] * bimodal_entries
    gshare_confidence = [0] * gshare_entries

    bimodal_correct = 0
    gshare_correct = 0
    chooser_correct = 0
    confidence_correct = 0

    pcs = trace.pcs.tolist()
    outcomes = trace.outcomes.tolist()
    bhr = 0
    for pc, outcome in zip(pcs, outcomes):
        pc_index = (pc >> 2) & bimodal_mask
        gshare_index = ((pc >> 2) ^ (bhr & history_mask)) & gshare_mask

        bimodal_prediction = bimodal_table[pc_index] >> 1
        gshare_prediction = gshare_table[gshare_index] >> 1

        bimodal_hit = bimodal_prediction == outcome
        gshare_hit = gshare_prediction == outcome
        bimodal_correct += bimodal_hit
        gshare_correct += gshare_hit

        # McFarling chooser: counter >= neutral selects gshare.
        chooser_value = chooser_table[pc_index]
        chooser_prediction = (
            gshare_prediction if chooser_value >= _CHOOSER_NEUTRAL
            else bimodal_prediction
        )
        chooser_correct += chooser_prediction == outcome

        # Confidence selector: higher resetting counter wins, tie -> gshare.
        if gshare_confidence[gshare_index] >= bimodal_confidence[pc_index]:
            confidence_prediction = gshare_prediction
        else:
            confidence_prediction = bimodal_prediction
        confidence_correct += confidence_prediction == outcome

        # --- training -----------------------------------------------------
        if gshare_hit and not bimodal_hit:
            if chooser_value < 3:
                chooser_table[pc_index] = chooser_value + 1
        elif bimodal_hit and not gshare_hit:
            if chooser_value > 0:
                chooser_table[pc_index] = chooser_value - 1

        value = bimodal_table[pc_index]
        if outcome:
            if value < 3:
                bimodal_table[pc_index] = value + 1
        elif value > 0:
            bimodal_table[pc_index] = value - 1
        value = gshare_table[gshare_index]
        if outcome:
            if value < 3:
                gshare_table[gshare_index] = value + 1
        elif value > 0:
            gshare_table[gshare_index] = value - 1

        if bimodal_hit:
            if bimodal_confidence[pc_index] < counter_maximum:
                bimodal_confidence[pc_index] += 1
        else:
            bimodal_confidence[pc_index] = 0
        if gshare_hit:
            if gshare_confidence[gshare_index] < counter_maximum:
                gshare_confidence[gshare_index] += 1
        else:
            gshare_confidence[gshare_index] = 0

        bhr = (bhr << 1) | outcome

    n = len(trace)
    return HybridAccuracies(
        bimodal=bimodal_correct / n,
        gshare=gshare_correct / n,
        chooser_hybrid=chooser_correct / n,
        confidence_hybrid=confidence_correct / n,
    )


def evaluate_hybrid_selector(
    config: ExperimentConfig = DEFAULT_CONFIG,
    bimodal_entries: int = 4096,
    counter_maximum: int = 16,
    benchmarks: Optional["tuple[str, ...]"] = None,
) -> HybridSelectorReport:
    """Compare selection schemes across the suite."""
    names = benchmarks if benchmarks is not None else config.benchmarks
    per_benchmark = {
        name: _simulate_benchmark(
            name,
            config.trace_length,
            config.seed,
            bimodal_entries=bimodal_entries,
            gshare_entries=config.predictor_entries,
            gshare_history_bits=config.predictor_history_bits,
            counter_maximum=counter_maximum,
        )
        for name in names
    }
    return HybridSelectorReport(per_benchmark=per_benchmark)
