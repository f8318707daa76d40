"""Trace-driven simulation engines.

Two engines compute identical statistics:

* :mod:`repro.sim.engine` — the reference implementation: plain objects,
  one Python loop, semantics that read directly off the paper.  Used by
  the unit tests as ground truth and for small runs.
* The kernels of :mod:`repro.sim.chunked` — the production path: a
  vectorized gshare sweep producing correctness/BHR streams (memoized
  per benchmark+predictor) and one grouped CIR scan for every
  confidence table, run by :class:`repro.sim.batched.GridObserver` and
  by the per-branch callers in :mod:`repro.sim.fast`.  Property tests
  assert exact equivalence with the reference engine.
"""

from repro._exports import lazy_exports

#: Where each public name lives (:mod:`repro._exports`).
_EXPORTS = {
    **dict.fromkeys(("cached_predictor_streams", "clear_stream_cache"), "repro.sim.cache"),
    **dict.fromkeys(
        ("StreamKey", "clear_disk_cache", "disk_cache_stats", "load_cached_streams",
         "store_cached_streams", "stream_cache_dir"),
        "repro.sim.diskcache",
    ),
    **dict.fromkeys(("EstimatorRun", "SimulationResult", "simulate"), "repro.sim.engine"),
    **dict.fromkeys(
        ("PredictorStreams", "cir_pattern_stream", "predictor_streams",
         "resetting_counter_stream", "saturating_counter_stream",
         "two_level_pattern_stream"),
        "repro.sim.fast",
    ),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = list(_EXPORTS)
