"""Ablation — confidence-table state across context switches.

Section 5.4 raises, without studying, the alternative of "not
initializing the CIRs between context switches", and conjectures that
"one could probably leave the CIRs at their current values at the time of
a context switch, except the oldest bit which should be initialized at 1".

This ablation models context switches every ``flush_interval`` dynamic
branches and compares:

* ``reinit`` — full re-initialization to all ones (flush);
* ``keep`` — table untouched across switches;
* ``keep_lastbit`` — keep values, set the oldest bit (the conjecture).

Expected: ``keep_lastbit`` performs at least as well as the full flush
(supporting the conjecture's "simplify the initialization hardware and
provide good performance").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.analysis.buckets import BucketStatistics
from repro.analysis.curves import ConfidenceCurve
from repro.analysis.weighting import equal_weight_combine
from repro.core.indexing import make_index
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.runner import ones_init, suite_streams
from repro.sim.fast import cir_pattern_stream_with_flushes

POLICIES = ("reinit", "keep", "keep_lastbit")

#: Simulated quantum between context switches, in dynamic branches.
DEFAULT_FLUSH_INTERVAL = 20_000


@dataclass(frozen=True)
class ContextSwitchResult:
    """One curve per context-switch policy."""

    curves: Dict[str, ConfidenceCurve]
    flush_interval: int
    headline_percent: float
    at_headline: Dict[str, float]

    @property
    def conjecture_holds(self) -> bool:
        """keep_lastbit should be within a point of (or above) full reinit."""
        return (
            self.at_headline["keep_lastbit"] >= self.at_headline["reinit"] - 1.0
        )

    def format(self) -> str:
        lines = [
            "Ablation — context-switch policies "
            f"(switch every {self.flush_interval} branches)"
        ]
        for policy, value in self.at_headline.items():
            lines.append(
                f"{policy:14s} captures {value:5.1f}% @ {self.headline_percent:g}%"
            )
        lines.append(f"paper's lastbit conjecture holds: {self.conjecture_holds}")
        return "\n".join(lines)

    __str__ = format


def run(
    config: ExperimentConfig = DEFAULT_CONFIG,
    flush_interval: int = DEFAULT_FLUSH_INTERVAL,
) -> ContextSwitchResult:
    """Compare context-switch policies on the best one-level method."""
    index_function = make_index("pc_xor_bhr", config.ct_index_bits)
    table_entries = index_function.table_entries
    base_init = ones_init(config)
    # Policies loop outside benchmarks so that only one policy's
    # 2**cir_bits-bucket statistics per benchmark are alive at a time.
    inputs = {
        name: (
            index_function.vectorized(
                streams.pcs,
                streams.bhrs,
                np.zeros(streams.num_branches, dtype=np.int64),
            ),
            streams.correct,
        )
        for name, streams in suite_streams(config).items()
    }
    curves: Dict[str, ConfidenceCurve] = {}
    at_headline: Dict[str, float] = {}
    for policy in POLICIES:
        per_benchmark: Dict[str, BucketStatistics] = {}
        for name, (indices, correct) in inputs.items():
            patterns = cir_pattern_stream_with_flushes(
                indices,
                correct,
                cir_bits=config.cir_bits,
                table_entries=table_entries,
                flush_interval=flush_interval,
                policy=policy,
                base_init=base_init,
            )
            per_benchmark[name] = BucketStatistics.from_streams(
                patterns, correct, num_buckets=1 << config.cir_bits
            )
        curve = ConfidenceCurve.from_statistics(
            equal_weight_combine(per_benchmark), name=policy
        )
        curves[policy] = curve
        at_headline[policy] = curve.mispredictions_captured_at(config.headline_percent)
    return ContextSwitchResult(
        curves=curves,
        flush_interval=flush_interval,
        headline_percent=config.headline_percent,
        at_headline=at_headline,
    )
