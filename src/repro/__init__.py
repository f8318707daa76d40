"""repro — Assigning Confidence to Conditional Branch Predictions.

A from-scratch reproduction of Jacobsen, Rotenberg & Smith (MICRO-29,
1996).  The library provides:

* branch-prediction **confidence mechanisms** (:mod:`repro.core`): static
  profile confidence, one- and two-level CIR tables, reduction functions,
  and counter-based practical implementations;
* the **substrates** they run on: branch predictors
  (:mod:`repro.predictors`), a synthetic IBS-style workload suite
  (:mod:`repro.workloads`), and trace tooling (:mod:`repro.traces`);
* **simulation engines** (:mod:`repro.sim`) — a reference engine and a
  validated vectorized fast path;
* **analysis** (:mod:`repro.analysis`) — confidence curves, Table 1,
  benchmark weighting, quality metrics, plotting/export;
* **applications** (:mod:`repro.apps`) — dual-path execution, SMT fetch
  gating, the prediction reverser, and the confidence-driven hybrid
  selector;
* **experiments** (:mod:`repro.experiments`) — one module per paper
  figure/table, regenerating every reported result.

Quickstart
----------
>>> from repro import quick_confidence_curve
>>> curve = quick_confidence_curve("jpeg_play", length=20_000)
>>> 0.0 <= curve.mispredictions_captured_at(20.0) <= 100.0
True
"""

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.analysis.curves import ConfidenceCurve

#: Where each lazily imported public name lives.  Importing ``repro``
#: loads nothing else, so a stdlib-only subpackage (``repro.analysis.lint``)
#: starts without numpy; a name is imported on first access.
_EXPORTS = {
    **dict.fromkeys(
        ("BucketStatistics", "ConfidenceCurve", "Table1", "build_table1",
         "confidence_metrics", "equal_weight_combine"),
        "repro.analysis",
    ),
    **dict.fromkeys(
        ("confidence_curve", "list_experiments", "predictor_streams", "run_experiment"),
        "repro.api",
    ),
    **dict.fromkeys(
        ("CIR", "CIRTable", "ConfidenceEstimator", "ConfidenceSignal",
         "OneLevelConfidence", "ReducedEstimator", "ResettingCounterConfidence",
         "SaturatingCounterConfidence", "StaticProfileConfidence",
         "ThresholdConfidence", "TwoLevelConfidence", "make_index"),
        "repro.core",
    ),
    **dict.fromkeys(
        ("BimodalPredictor", "BranchPredictor", "GsharePredictor", "HybridPredictor",
         "LocalPredictor", "StaticPredictor", "make_paper_predictor"),
        "repro.predictors",
    ),
    "simulate": "repro.sim",
    **dict.fromkeys(("Trace", "load_trace", "save_trace"), "repro.traces"),
    **dict.fromkeys(("benchmark_names", "load_benchmark", "load_suite"), "repro.workloads"),
}


def __getattr__(name: str) -> Any:
    """Import a public name from its home module on first access (PEP 562)."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


__version__ = "1.0.0"

__all__ = [
    "__version__",
    # stable facade (repro.api)
    "run_experiment",
    "predictor_streams",
    "confidence_curve",
    "list_experiments",
    # core
    "ConfidenceEstimator",
    "ConfidenceSignal",
    "CIR",
    "CIRTable",
    "OneLevelConfidence",
    "TwoLevelConfidence",
    "ReducedEstimator",
    "SaturatingCounterConfidence",
    "ResettingCounterConfidence",
    "StaticProfileConfidence",
    "ThresholdConfidence",
    "make_index",
    # predictors
    "BranchPredictor",
    "GsharePredictor",
    "BimodalPredictor",
    "LocalPredictor",
    "HybridPredictor",
    "StaticPredictor",
    "make_paper_predictor",
    # sim / traces / workloads
    "simulate",
    "Trace",
    "save_trace",
    "load_trace",
    "benchmark_names",
    "load_benchmark",
    "load_suite",
    # analysis
    "BucketStatistics",
    "ConfidenceCurve",
    "Table1",
    "build_table1",
    "equal_weight_combine",
    "confidence_metrics",
    # convenience
    "quick_confidence_curve",
]


def quick_confidence_curve(
    benchmark: str = "jpeg_play",
    length: int = 50_000,
    seed: int = 0,
) -> "ConfidenceCurve":
    """One-call demo: the best one-level confidence curve for a benchmark.

    Runs the paper's large gshare over the named synthetic benchmark with
    a PC-xor-BHR one-level CIR table (ideal reduction) and returns the
    confidence curve.
    """
    from repro.analysis.buckets import BucketStatistics
    from repro.analysis.curves import ConfidenceCurve
    from repro.core.indexing import make_index
    from repro.sim.fast import cir_pattern_stream, predictor_streams
    from repro.utils.bits import bit_mask
    from repro.workloads.ibs import load_benchmark

    trace = load_benchmark(benchmark, length, seed)
    streams = predictor_streams(trace)
    index = make_index("pc_xor_bhr", 16)
    indices = index.vectorized(streams.pcs, streams.bhrs, streams.bhrs * 0)
    patterns = cir_pattern_stream(
        indices, streams.correct, cir_bits=16, init_patterns=bit_mask(16)
    )
    statistics = BucketStatistics.from_streams(
        patterns, streams.correct, num_buckets=1 << 16
    )
    return ConfidenceCurve.from_statistics(statistics, name=f"{benchmark}:BHRxorPC")
