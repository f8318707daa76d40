"""Synthetic workload substrate — the IBS suite substitute.

The paper evaluates on the (proprietary) Mach IBS traces.  This package
replaces them with *synthetic programs*: explicit control-flow structures
whose conditional branches follow configurable behaviour models.  The
models span the branch populations that drive the paper's results:

* loop back-edges (long taken runs, one not-taken exit),
* strongly biased data-dependent branches,
* branches correlated with the outcomes of earlier branches (the
  population gshare and BHR-indexed confidence tables exploit),
* periodic per-branch patterns (the local-predictor-friendly population),
* phase-changing branches (bias shifts over time),
* bursty two-state Markov branches,
* genuinely hard near-random branches (where mispredictions concentrate).

:mod:`repro.workloads.ibs` composes these into eight benchmarks named
after the IBS programs, with mixes tuned so the aggregate misprediction
rates and confidence-curve shapes land near the paper's (see
EXPERIMENTS.md for paper-vs-measured numbers).
"""

from repro._exports import lazy_exports

#: Where each public name lives (:mod:`repro._exports`).
_EXPORTS = {
    **dict.fromkeys(
        ("BiasedBehavior", "BranchBehavior", "ContextDependentBehavior",
         "CorrelatedBehavior", "ExecutionContext", "MarkovBehavior", "PatternBehavior",
         "PhasedBehavior", "TripSource"),
        "repro.workloads.behaviors",
    ),
    **dict.fromkeys(
        ("IBS_BENCHMARKS", "benchmark_names", "load_benchmark", "load_suite"),
        "repro.workloads.ibs",
    ),
    **dict.fromkeys(
        ("Block", "Emit", "If", "Loop", "Node", "Site", "SyntheticProgram"),
        "repro.workloads.program",
    ),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)
