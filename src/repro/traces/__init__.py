"""Conditional-branch trace substrate.

A :class:`~repro.traces.trace.Trace` is the unit of simulation input: a
numpy-backed sequence of ``(pc, outcome)`` records for the dynamic
conditional branches of one benchmark run.  The paper's IBS traces are
proprietary; this package holds the trace *container* and tooling, while
:mod:`repro.workloads` synthesizes the traces themselves.
"""

from repro._exports import lazy_exports

#: Where each public name lives (:mod:`repro._exports`).
_EXPORTS = {
    "TraceBuilder": "repro.traces.builder",
    **dict.fromkeys(("load_trace", "save_trace"), "repro.traces.io"),
    **dict.fromkeys(
        ("StaticBranchProfile", "TraceStatistics", "compute_statistics",
         "static_branch_profile"),
        "repro.traces.statistics",
    ),
    **dict.fromkeys(("NOT_TAKEN", "TAKEN", "Trace"), "repro.traces.trace"),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)
