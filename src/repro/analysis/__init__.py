"""Analysis of confidence-estimator bucket statistics.

The paper's central artifact is the *confidence curve*: buckets sorted by
misprediction rate (highest first), plotted as cumulative % of
mispredictions (y) versus cumulative % of dynamic branches (x).  This
package builds those curves from simulation bucket statistics, combines
benchmarks with the paper's equal-branch-count weighting, generates
Table 1, computes the follow-on literature's confidence quality metrics,
and renders ASCII plots / CSV exports.
"""

from typing import Any

#: Where each public name lives.  Importing the package loads none of
#: them, so ``repro.analysis.lint`` (stdlib only) starts without numpy; a
#: name is imported on first access.
_EXPORTS = {
    "BucketStatistics": "repro.analysis.buckets",
    **dict.fromkeys(
        ("CurveDelta", "crossovers", "dominates", "sample_delta"), "repro.analysis.compare"
    ),
    **dict.fromkeys(("ConfidenceCurve", "CurvePoint"), "repro.analysis.curves"),
    **dict.fromkeys(("curves_to_csv", "table_to_csv"), "repro.analysis.export"),
    **dict.fromkeys(("ConfusionCounts", "confidence_metrics"), "repro.analysis.metrics"),
    **dict.fromkeys(("ascii_curve_plot", "format_curve_table"), "repro.analysis.plotting"),
    **dict.fromkeys(("Table1", "Table1Row", "build_table1"), "repro.analysis.table1"),
    **dict.fromkeys(
        ("concat_normalized", "equal_weight_combine"), "repro.analysis.weighting"
    ),
}


def __getattr__(name: str) -> Any:
    """Import a public name from its home module on first access (PEP 562)."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.analysis' has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


__all__ = [
    "BucketStatistics",
    "ConfidenceCurve",
    "CurvePoint",
    "equal_weight_combine",
    "concat_normalized",
    "Table1",
    "Table1Row",
    "build_table1",
    "ConfusionCounts",
    "confidence_metrics",
    "CurveDelta",
    "sample_delta",
    "dominates",
    "crossovers",
    "ascii_curve_plot",
    "format_curve_table",
    "curves_to_csv",
    "table_to_csv",
]
