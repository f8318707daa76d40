"""Extension — the applications on the pipeline timing model.

:mod:`repro.apps` charges fixed per-event penalties; here the same two
applications run on :mod:`repro.pipeline`, where costs emerge from fetch
bandwidth, resolution latency, and squash semantics:

* **dual-path**: per-benchmark IPC of the speculative frontend without
  forking versus forking on a resetting-counter low-confidence signal.
  Expected: IPC improves, most on the worst-predicted benchmarks.
* **SMT**: four threads sharing one fetch port, ungated versus gated on
  counter-0 confidence.  Expected (and consistent with the follow-on
  pipeline-gating literature): gating substantially reduces *wasted
  fetch slots* — the efficiency/energy win the paper's application 2
  targets — while raw throughput stays within a small band of ungated,
  because a stalled thread forfeits speculative runahead that sibling
  threads only partially absorb.

Timing never feeds back into prediction or confidence, so both runs
read the runner's cached predictor streams (the dual-path traces are the
keys ``ablation-trace-length`` fills at the same length) and the
vectorized resetting-counter tables, and only the fetch/resolve
recurrence runs per branch (:mod:`repro.pipeline.timing`).  The object
models (:class:`~repro.pipeline.SpeculativeFrontend`,
:func:`~repro.pipeline.simulate_smt`) compute identical reports while
every history and index width is at most the frontend's 16-bit BHR; the
test suite checks that.  Runs default to quarter-length traces; the
qualitative questions (does confidence-directed speculation win?) are
insensitive to length.

The result is a store entry (:mod:`repro.sim.diskcache`, under
``sweep_results/``), keyed by the ``describe()`` of every input
:class:`~repro.sim.diskcache.StreamKey` plus the frontend geometry, both
confidence-index widths, the module constants and
:data:`PIPELINE_RESULT_FORMAT`.  A warm run reads that entry and returns
before any stream is loaded or any timing loop runs; execution knobs
(``jobs``, ``chunk_size``, retries, timeouts) and ``headline_percent``
stay out of the key.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

from repro import observability
from repro.core.indexing import make_index
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.runner import suite_stream_keys, suite_streams
from repro.pipeline import FrontendConfig, frontend_timing, smt_timing
from repro.sim.diskcache import ENTRY_SUFFIX, EntryFamily, cache_enabled, get, put, sweep_cache_dir
from repro.sim.fast import PredictorStreams, resetting_counter_stream

#: Default per-benchmark length for the (per-branch Python) timing loops.
PIPELINE_TRACE_LENGTH = 40_000

#: Resetting-counter values treated as low confidence for dual-path forks.
LOW_COUNTER_VALUES = tuple(range(4))

#: Tighter low set for SMT gating (stalling is expensive; gate only on
#: the riskiest bucket).
SMT_LOW_COUNTER_VALUES = (0,)

#: Threads sharing the fetch port in the SMT run.
SMT_THREADS = 4

#: Saturation value of the resetting counters behind both signals.
COUNTER_MAXIMUM = 16

#: Version of the cached result.  Bump it whenever
#: :mod:`repro.pipeline.timing` (or how this module drives it) changes,
#: so entries computed by the old model miss instead of being replayed.
PIPELINE_RESULT_FORMAT = 1

#: Counter names and crash-site label of cached pipeline results.
PIPELINE = EntryFamily("store_pipeline", "pipeline_cache.disk_hits", "pipeline_cache.disk_misses",
                       "pipeline_cache.disk_corrupt", "pipeline_cache.stores",
                       "pipeline_cache.store_errors")


@dataclass(frozen=True)
class PipelineResult:
    """IPC / throughput outcomes of the pipeline-model applications."""

    dual_path_ipc: Dict[str, "tuple[float, float]"]
    smt_ungated_throughput: float
    smt_gated_throughput: float
    smt_ungated_waste: float
    smt_gated_waste: float
    headline_percent: float

    @property
    def mean_dual_path_speedup(self) -> float:
        ratios = [
            forked / baseline
            for baseline, forked in self.dual_path_ipc.values()
            if baseline > 0
        ]
        return sum(ratios) / len(ratios) if ratios else 0.0

    @property
    def smt_gating_gain(self) -> float:
        if self.smt_ungated_throughput == 0:
            return 0.0
        return self.smt_gated_throughput / self.smt_ungated_throughput - 1.0

    def format(self) -> str:
        lines = ["Extension — applications on the pipeline timing model"]
        lines.append("dual-path IPC (baseline -> forked):")
        for name, (baseline, forked) in self.dual_path_ipc.items():
            lines.append(
                f"  {name:12s} {baseline:5.3f} -> {forked:5.3f} "
                f"({forked / baseline - 1:+.1%})"
            )
        lines.append(
            f"mean dual-path speedup: {self.mean_dual_path_speedup:.3f}x"
        )
        lines.append(
            f"SMT ({SMT_THREADS} threads): fetch waste "
            f"{self.smt_ungated_waste:.1%} -> {self.smt_gated_waste:.1%} with "
            f"gating; throughput {self.smt_ungated_throughput:.3f} -> "
            f"{self.smt_gated_throughput:.3f} insn/cycle "
            f"({self.smt_gating_gain:+.1%})"
        )
        return "\n".join(lines)

    __str__ = format


def _low_confidence(
    streams: PredictorStreams, index_bits: int, low_values: "tuple[int, ...]"
) -> np.ndarray:
    """Per-branch LOW signal of a BHRxorPC resetting-counter table."""
    indices = make_index("pc_xor_bhr", index_bits).vectorized(
        streams.pcs, streams.bhrs, 0
    )
    counters = resetting_counter_stream(
        indices, streams.correct, maximum=COUNTER_MAXIMUM, initial=0
    )
    return np.isin(counters, low_values)


def _smt_config(config: ExperimentConfig, trace_length: int) -> ExperimentConfig:
    """The SMT threads' suite: the first :data:`SMT_THREADS` benchmarks on
    the Section 5.3 geometry (4K gshare, 12-bit history and index)."""
    return config.scaled(trace_length=trace_length).small_predictor.scaled(
        benchmarks=config.benchmarks[:SMT_THREADS]
    )


def pipeline_key(config: ExperimentConfig, trace_length: int) -> Dict[str, Any]:
    """Everything the result depends on, as plain JSON-ready data."""
    pipeline_config = config.scaled(trace_length=trace_length)
    smt_config = _smt_config(config, trace_length)
    return {
        "dual_path": [key.describe() for key in suite_stream_keys(pipeline_config)],
        "smt": [key.describe() for key in suite_stream_keys(smt_config)],
        "frontend": dataclasses.asdict(FrontendConfig()),
        "ct_index_bits": [config.ct_index_bits, smt_config.ct_index_bits],
        "low_counter_values": list(LOW_COUNTER_VALUES),
        "smt_low_counter_values": list(SMT_LOW_COUNTER_VALUES),
        "smt_threads": SMT_THREADS,
        "counter_maximum": COUNTER_MAXIMUM,
        "format": PIPELINE_RESULT_FORMAT,
    }


def _entry_path(key: Dict[str, Any]) -> Path:
    """Store path of the result under ``key``."""
    digest = hashlib.sha256(json.dumps(key, sort_keys=True).encode("utf-8")).hexdigest()
    return sweep_cache_dir() / f"pipeline-{digest[:16]}{ENTRY_SUFFIX}"


def _load_result(
    config: ExperimentConfig, key: Dict[str, Any]
) -> Optional[PipelineResult]:
    """The cached result under ``key``, or None on a miss or damage."""
    names = list(dict.fromkeys(config.benchmarks))

    def decode(arrays: Dict[str, np.ndarray], fields: Dict[str, Any]) -> PipelineResult:
        dual_path, smt = arrays["dual_path_ipc"], arrays["smt"]
        if (
            fields["benchmarks"] != names
            or dual_path.dtype != np.float64 or dual_path.shape != (len(names), 2)
            or smt.dtype != np.float64 or smt.shape != (4,)
        ):
            raise ValueError("pipeline cache entry does not match its key")
        ungated_throughput, gated_throughput, ungated_waste, gated_waste = smt.tolist()
        return PipelineResult(
            dual_path_ipc={
                name: (baseline, forked)
                for name, (baseline, forked) in zip(names, dual_path.tolist())
            },
            smt_ungated_throughput=ungated_throughput,
            smt_gated_throughput=gated_throughput,
            smt_ungated_waste=ungated_waste,
            smt_gated_waste=gated_waste,
            headline_percent=config.headline_percent,
        )

    return get(PIPELINE, _entry_path(key), key, decode)


def _store_result(key: Dict[str, Any], result: PipelineResult) -> None:
    """Publish ``result``'s numbers under ``key`` (float64, bit-exact)."""
    arrays = {
        "dual_path_ipc": np.array(
            list(result.dual_path_ipc.values()), dtype=np.float64
        ).reshape(-1, 2),
        "smt": np.array(
            [
                result.smt_ungated_throughput,
                result.smt_gated_throughput,
                result.smt_ungated_waste,
                result.smt_gated_waste,
            ],
            dtype=np.float64,
        ),
    }
    fields = {"benchmarks": list(result.dual_path_ipc)}
    put(PIPELINE, _entry_path(key), key, arrays, fields)


def run(
    config: ExperimentConfig = DEFAULT_CONFIG,
    trace_length: int = PIPELINE_TRACE_LENGTH,
) -> PipelineResult:
    """Run both pipeline applications over the configured suite.

    A result cached under :func:`pipeline_key` is returned without
    loading a stream; a miss simulates and stores it.
    """
    if not cache_enabled():
        return _simulate(config, trace_length)
    key = pipeline_key(config, trace_length)
    cached = _load_result(config, key)
    if cached is not None:
        return cached
    result = _simulate(config, trace_length)
    _store_result(key, result)
    return result


def _simulate(config: ExperimentConfig, trace_length: int) -> PipelineResult:
    """Both applications on the timing model, from the suite's streams."""
    frontend_config = FrontendConfig()
    pipeline_config = config.scaled(trace_length=trace_length)
    dual_path_ipc: Dict[str, "tuple[float, float]"] = {}
    for name, streams in suite_streams(pipeline_config).items():
        low = _low_confidence(streams, config.ct_index_bits, LOW_COUNTER_VALUES)
        with observability.timed("pipeline.seconds"):
            baseline = frontend_timing(
                frontend_config, streams.pcs, streams.correct
            )
            forked = frontend_timing(
                frontend_config, streams.pcs, streams.correct, low
            )
        dual_path_ipc[name] = (baseline.ipc, forked.ipc)

    smt_config = _smt_config(config, trace_length)
    threads = [
        (
            streams.pcs,
            streams.correct,
            _low_confidence(
                streams, smt_config.ct_index_bits, SMT_LOW_COUNTER_VALUES
            ),
        )
        for streams in suite_streams(smt_config).values()
    ]
    with observability.timed("pipeline.seconds"):
        ungated = smt_timing(frontend_config, threads, gated=False)
        gated = smt_timing(frontend_config, threads, gated=True)

    return PipelineResult(
        dual_path_ipc=dual_path_ipc,
        smt_ungated_throughput=ungated.throughput,
        smt_gated_throughput=gated.throughput,
        smt_ungated_waste=ungated.waste_fraction,
        smt_gated_waste=gated.waste_fraction,
        headline_percent=config.headline_percent,
    )
