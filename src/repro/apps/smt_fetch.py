"""SMT fetch gating by branch confidence (paper application 2).

In a simultaneous multithreading processor, instruction fetch is the
critical shared resource (Tullsen et al., 1996).  Fetching down a
speculative path that turns out to be mispredicted wastes fetch slots
another thread could have used.  The paper proposes prioritizing threads
whose unresolved branches were predicted with *high* confidence.

Model: each branch opens a speculation window of ``resolve_latency``
fetch slots for its thread.  Without gating, all window slots are wasted
when the branch was mispredicted.  With confidence gating, a thread
fetches through high-confidence branches as usual but *stalls* behind a
low-confidence branch, giving its slots to other threads: a mispredicted
low-confidence branch wastes nothing; a correctly-predicted one costs
the thread ``stall_cost`` slots of its own progress (the other threads
absorb the bandwidth, so the machine-level cost is smaller — modelled by
``recovered_fraction``).

The report compares wasted-slot fractions and net useful fetch
throughput for the gated and ungated policies across the suite, treating
the benchmarks as co-scheduled threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.indexing import make_index
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.runner import suite_streams
from repro.sim.fast import resetting_counter_stream


@dataclass(frozen=True)
class SMTFetchReport:
    """Fetch-efficiency comparison, ungated versus confidence-gated."""

    gate_threshold: int
    #: Fraction of fetch slots wasted on wrong paths without gating.
    ungated_waste_fraction: float
    #: Fraction wasted with confidence gating.
    gated_waste_fraction: float
    #: Useful slots per issued slot, both policies.
    ungated_efficiency: float
    gated_efficiency: float
    #: Fraction of branches that stall fetch under gating.
    gated_stall_fraction: float
    #: Per-benchmark relative useful-fetch gain from gating.
    per_benchmark: Dict[str, float]

    @property
    def efficiency_gain(self) -> float:
        """Relative useful-fetch improvement from gating."""
        if self.ungated_efficiency == 0:
            return 0.0
        return self.gated_efficiency / self.ungated_efficiency - 1.0

    def format(self) -> str:
        lines = [
            "SMT fetch gating (resetting counters, BHRxorPC)",
            f"gate on counter <= {self.gate_threshold}: "
            f"{self.gated_stall_fraction:.1%} of branches stall fetch",
            f"wrong-path fetch waste: {self.ungated_waste_fraction:.1%} ungated "
            f"-> {self.gated_waste_fraction:.1%} gated",
            f"useful fetch efficiency: {self.ungated_efficiency:.3f} -> "
            f"{self.gated_efficiency:.3f} ({self.efficiency_gain:+.1%})",
        ]
        for name, gain in self.per_benchmark.items():
            lines.append(f"  {name:12s} gain {gain:+.1%}")
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        """JSON-serializable record (application, headline, per_benchmark)."""
        return {
            "application": "smt-fetch",
            "headline": {
                "gate_threshold": self.gate_threshold,
                "ungated_waste_fraction": self.ungated_waste_fraction,
                "gated_waste_fraction": self.gated_waste_fraction,
                "ungated_efficiency": self.ungated_efficiency,
                "gated_efficiency": self.gated_efficiency,
                "gated_stall_fraction": self.gated_stall_fraction,
                "efficiency_gain": self.efficiency_gain,
            },
            "per_benchmark": dict(self.per_benchmark),
        }

    __str__ = format


def evaluate_smt_fetch(
    config: ExperimentConfig = DEFAULT_CONFIG,
    gate_threshold: int = 7,
    counter_maximum: int = 16,
    resolve_latency: float = 8.0,
    instructions_per_branch: float = 5.0,
    stall_cost: float = 2.0,
    recovered_fraction: float = 0.75,
    benchmarks: Optional["tuple[str, ...]"] = None,
) -> SMTFetchReport:
    """Evaluate confidence-gated fetch over the suite-as-threads.

    Accounting per dynamic branch (in fetch slots):

    * useful work: ``instructions_per_branch`` slots;
    * ungated: a mispredicted branch wastes ``resolve_latency`` slots;
    * gated: low-confidence branches stall — a *correct* low-confidence
      branch costs ``stall_cost * (1 - recovered_fraction)`` machine
      slots (most of the bandwidth is soaked up by sibling threads);
      a mispredicted low-confidence branch wastes nothing; mispredicted
      high-confidence branches waste ``resolve_latency`` as before.
    """
    if benchmarks is not None:
        config = config.scaled(benchmarks=tuple(benchmarks))
    if not 0 <= gate_threshold <= counter_maximum:
        raise ValueError(
            f"gate_threshold must be within [0, {counter_maximum}], "
            f"got {gate_threshold}"
        )
    index_function = make_index("pc_xor_bhr", config.ct_index_bits)

    total_useful = 0.0
    ungated_waste = 0.0
    gated_waste = 0.0
    total_branches = 0
    stalled = 0
    per_benchmark: Dict[str, float] = {}

    for name, streams in suite_streams(config).items():
        gcirs = np.zeros(streams.num_branches, dtype=np.int64)
        indices = index_function.vectorized(streams.pcs, streams.bhrs, gcirs)
        counters = resetting_counter_stream(
            indices, streams.correct, maximum=counter_maximum
        )
        low_confidence = counters <= gate_threshold
        mispredicted = streams.correct == 0

        n = streams.num_branches
        useful = n * instructions_per_branch
        bench_ungated_waste = float(mispredicted.sum()) * resolve_latency
        gated_stall_penalty = (
            float((low_confidence & ~mispredicted).sum())
            * stall_cost
            * (1.0 - recovered_fraction)
        )
        bench_gated_waste = (
            float((mispredicted & ~low_confidence).sum()) * resolve_latency
            + gated_stall_penalty
        )

        bench_ungated_eff = useful / (useful + bench_ungated_waste)
        bench_gated_eff = useful / (useful + bench_gated_waste)
        per_benchmark[name] = bench_gated_eff / bench_ungated_eff - 1.0

        total_useful += useful
        ungated_waste += bench_ungated_waste
        gated_waste += bench_gated_waste
        total_branches += n
        stalled += int(low_confidence.sum())

    return SMTFetchReport(
        gate_threshold=gate_threshold,
        ungated_waste_fraction=ungated_waste / (total_useful + ungated_waste),
        gated_waste_fraction=gated_waste / (total_useful + gated_waste),
        ungated_efficiency=total_useful / (total_useful + ungated_waste),
        gated_efficiency=total_useful / (total_useful + gated_waste),
        gated_stall_fraction=stalled / total_branches if total_branches else 0.0,
        per_benchmark=per_benchmark,
    )
