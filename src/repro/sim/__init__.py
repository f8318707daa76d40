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

from repro.sim.cache import cached_predictor_streams, clear_stream_cache
from repro.sim.diskcache import (
    StreamKey,
    clear_disk_cache,
    disk_cache_stats,
    load_cached_streams,
    store_cached_streams,
    stream_cache_dir,
)
from repro.sim.engine import EstimatorRun, SimulationResult, simulate
from repro.sim.fast import (
    PredictorStreams,
    cir_pattern_stream,
    predictor_streams,
    resetting_counter_stream,
    saturating_counter_stream,
    two_level_pattern_stream,
)

__all__ = [
    "simulate",
    "SimulationResult",
    "EstimatorRun",
    "predictor_streams",
    "PredictorStreams",
    "cir_pattern_stream",
    "two_level_pattern_stream",
    "saturating_counter_stream",
    "resetting_counter_stream",
    "cached_predictor_streams",
    "clear_stream_cache",
    "StreamKey",
    "stream_cache_dir",
    "store_cached_streams",
    "load_cached_streams",
    "disk_cache_stats",
    "clear_disk_cache",
]
