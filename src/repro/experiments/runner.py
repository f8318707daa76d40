"""Shared stream/statistics helpers for the experiment modules.

Every confidence statistic goes through one path:
:func:`sweep_grid_prefixes` runs a :class:`~repro.sim.batched.GridObserver`
over each benchmark's predictor stream chunks (a ``None`` chunk size is
one whole-trace chunk), behind the sweep-result disk tier.  One pass
over the longest requested length serves every shorter one: a trace of
``L`` branches is a prefix of any longer trace of the same benchmark and
seed, and the statistics are sums over branches, so a snapshot taken
after ``L`` branches equals a fresh sweep at length ``L``.
:func:`sweep_grid` is the one-length case, and a single-mechanism helper
is just a grid of one.  The helpers return *per-benchmark* statistics
dictionaries; experiments combine them with the paper's
equal-branch-count weighting.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import observability
from repro.analysis.buckets import BucketStatistics
from repro.core.indexing import IndexFunction, make_index
from repro.experiments.config import ExperimentConfig
from repro.sim.batched import GridObserver, SweepSpec, grid_digest
from repro.sim.cache import (
    cached_predictor_streams,
    has_disk_entry,
    iter_cached_stream_chunks,
    load_sweep_results,
    store_sweep_results,
    sweep_result_key,
    warm_stream_entries,
)
from repro.sim.chunked import StreamChunk
from repro.sim.diskcache import SweepKey, cache_enabled
from repro.sim.fast import PredictorStreams
from repro.utils.bits import bit_mask
from repro.utils.resilient import resilient_map

#: Initial CIR patterns by policy name, resolved per (entries, cir_bits).
InitSpec = "int | np.ndarray"


def _stream_request(config: ExperimentConfig, benchmark: str) -> Dict:
    """Keyword arguments of the cached sweep for one suite benchmark."""
    return {
        "benchmark": benchmark,
        "length": config.trace_length,
        "seed": config.seed,
        "entries": config.predictor_entries,
        "history_bits": config.predictor_history_bits,
        "bhr_record_bits": max(config.predictor_history_bits, config.ct_index_bits),
        "gcir_bits": config.ct_index_bits,
    }


def warm_streams(config: ExperimentConfig, requests: Sequence[Dict]) -> None:
    """Sweep the cold stream requests into the store on the pool.

    With ``jobs > 1`` and the store enabled, every request without a
    disk entry goes to :func:`repro.sim.cache.warm_stream_entries` in a
    fault-tolerant pool, keyed by benchmark, when at least two are cold;
    workers return nothing and callers then load the entries from disk.
    Warm requests never pay pool start-up, and with the store disabled
    there is nothing to share, so the caller sweeps in-process.
    """
    if config.jobs <= 1 or not cache_enabled():
        return
    cold = [
        request for request in requests
        if not has_disk_entry(chunk_size=config.chunk_size, **request)
    ]
    if len(cold) < 2:
        return
    resilient_map(
        warm_stream_entries,
        [(config.chunk_size, request) for request in cold],
        jobs=min(config.jobs, len(cold)),
        keys=[request["benchmark"] for request in cold],
        max_retries=config.max_retries,
        task_timeout=config.task_timeout,
    )


def suite_streams(config: ExperimentConfig) -> Dict[str, PredictorStreams]:
    """Predictor streams for every benchmark in the config's suite.

    With ``config.jobs > 1`` the cold sweeps are warmed into the store
    on the pool first (:func:`warm_streams`); every stream is then served
    by the serial cache path, in benchmark order, so the returned mapping
    is identical to a serial run.  ``chunk_size`` composes with ``jobs``:
    workers and the parent route disk traffic through the per-chunk tier.
    """
    requests = [_stream_request(config, name) for name in config.benchmarks]
    with observability.timed("suite_streams.seconds"):
        warm_streams(config, requests)
        results = [
            cached_predictor_streams(chunk_size=config.chunk_size, **request)
            for request in requests
        ]
    return dict(zip(config.benchmarks, results))


def suite_stream_chunks(config: ExperimentConfig, benchmark: str):
    """Predictor stream chunks of one suite benchmark.

    A generator over :class:`~repro.sim.chunked.StreamChunk`.  A chunk
    size of ``None`` yields one whole-trace chunk from the whole-trace
    cache tier; any other size is backed by the per-chunk disk tier, so
    warm iterations replay from disk without sweeping and without ever
    materializing the full streams.
    """
    return iter_cached_stream_chunks(
        chunk_size=config.chunk_size, **_stream_request(config, benchmark)
    )


def suite_misprediction_rate(config: ExperimentConfig) -> float:
    """Equal-weighted suite misprediction rate of the underlying predictor."""
    rates = [s.misprediction_rate for s in suite_streams(config).values()]
    return float(np.mean(rates)) if rates else 0.0


def ones_init(config: ExperimentConfig) -> int:
    """The paper's default CT initialization (all CIR bits set)."""
    return bit_mask(config.cir_bits)


def one_level_pattern_statistics(
    config: ExperimentConfig,
    index_kind: str = "pc_xor_bhr",
    init_patterns: Optional[InitSpec] = None,
    index_function: Optional[IndexFunction] = None,
) -> Dict[str, BucketStatistics]:
    """Raw CIR-pattern bucket statistics of a one-level mechanism.

    One entry per benchmark; buckets are the 2**cir_bits CIR patterns.
    ``index_kind`` picks a paper index ("pc", "bhr", "pc_xor_bhr");
    ``index_function`` overrides it with an arbitrary
    :class:`~repro.core.indexing.IndexFunction` (for the ablations).
    ``init_patterns`` defaults to the paper's all-ones initialization.
    """
    return sweep_grid(
        config,
        [one_level_pattern_spec(config, index_kind, init_patterns, index_function)],
    )[0]


def one_level_pattern_spec(
    config: ExperimentConfig,
    index_kind: str = "pc_xor_bhr",
    init_patterns: Optional[InitSpec] = None,
    index_function: Optional[IndexFunction] = None,
) -> SweepSpec:
    """The grid spec :func:`one_level_pattern_statistics` evaluates."""
    if index_function is None:
        index_function = make_index(index_kind, config.ct_index_bits)
    return SweepSpec.pattern(index_function, config.cir_bits, init=init_patterns)


def two_level_pattern_statistics(
    config: ExperimentConfig,
    first_index_kind: str = "pc_xor_bhr",
    second_use_pc: bool = False,
    second_use_bhr: bool = False,
    first_index_function: Optional[IndexFunction] = None,
) -> Dict[str, BucketStatistics]:
    """Second-level CIR-pattern statistics of a two-level mechanism."""
    if first_index_function is None:
        first_index_function = make_index(first_index_kind, config.ct_index_bits)
    spec = SweepSpec.two_level(
        first_index_function,
        config.cir_bits,
        second_use_pc=second_use_pc,
        second_use_bhr=second_use_bhr,
    )
    return sweep_grid(config, [spec])[0]


def resetting_counter_statistics(
    config: ExperimentConfig,
    maximum: int = 16,
    index_kind: str = "pc_xor_bhr",
    ct_index_bits: Optional[int] = None,
    index_function: Optional[IndexFunction] = None,
) -> Dict[str, BucketStatistics]:
    """Resetting-counter bucket statistics (buckets = counter values)."""
    if index_function is None:
        if ct_index_bits is None:
            ct_index_bits = config.ct_index_bits
        index_function = make_index(index_kind, ct_index_bits)
    return sweep_grid(config, [SweepSpec.resetting(index_function, maximum)])[0]


def saturating_counter_statistics(
    config: ExperimentConfig,
    maximum: int = 16,
    index_kind: str = "pc_xor_bhr",
    index_function: Optional[IndexFunction] = None,
) -> Dict[str, BucketStatistics]:
    """Saturating-counter bucket statistics (buckets = counter values)."""
    if index_function is None:
        index_function = make_index(index_kind, config.ct_index_bits)
    return sweep_grid(config, [SweepSpec.saturating(index_function, maximum)])[0]


def static_branch_statistics(
    config: ExperimentConfig,
) -> Dict[str, BucketStatistics]:
    """Per-static-branch statistics (buckets = dense per-benchmark PC rank).

    One fold over each benchmark's chunks: every chunk's PCs merge into
    the sorted set of static branches seen so far, whose running counts
    ride along as ``np.bincount`` weights.
    """
    statistics: Dict[str, BucketStatistics] = {}
    for name in config.benchmarks:
        pcs = np.zeros(0, dtype=np.int64)
        counts = np.zeros(0, dtype=np.float64)
        mispredicts = np.zeros(0, dtype=np.float64)
        for chunk in suite_stream_chunks(config, name):
            pcs, inverse = np.unique(
                np.concatenate((pcs, chunk.pcs)), return_inverse=True
            )
            counts = np.bincount(
                inverse,
                weights=np.concatenate(
                    (counts, np.ones(chunk.num_branches, dtype=np.float64))
                ),
                minlength=pcs.size,
            )
            mispredicts = np.bincount(
                inverse,
                weights=np.concatenate(
                    (mispredicts, (chunk.correct == 0).astype(np.float64))
                ),
                minlength=pcs.size,
            )
        statistics[name] = BucketStatistics(counts, mispredicts)
    return statistics


def sweep_grid(
    config: ExperimentConfig, specs: Sequence[SweepSpec]
) -> List[Dict[str, BucketStatistics]]:
    """Evaluate a grid of confidence-table specs over the config's suite.

    Returns one per-benchmark statistics dict per spec, in spec order:
    the one-length case of :func:`sweep_grid_prefixes`.
    """
    length = config.trace_length
    return sweep_grid_prefixes(config, specs, (length,))[length]


def sweep_grid_prefixes(
    config: ExperimentConfig, specs: Sequence[SweepSpec], lengths: Sequence[int]
) -> Dict[int, List[Dict[str, BucketStatistics]]]:
    """Evaluate a grid of specs over the suite at several trace lengths.

    Returns, per length, one per-benchmark statistics dict per spec, in
    spec order; ``config.trace_length`` is ignored.  Each (benchmark,
    length) result is content-keyed by (stream request, grid digest) in
    the sweep-result disk tier, so repeat runs skip both the sweep and
    the fold.  A benchmark with misses runs one :class:`GridObserver`
    over the stream chunks of its longest missing length and snapshots
    the statistics at every shorter one; with ``jobs > 1`` the streams
    of those longest lengths are warmed into the store on the pool
    (:func:`warm_streams`) first.
    """
    specs = tuple(specs)
    lengths = sorted(set(lengths))
    if not specs:
        return {length: [] for length in lengths}
    grid = grid_digest(specs)

    def key(name: str, length: int) -> SweepKey:
        scaled = config.scaled(trace_length=length)
        return sweep_result_key(grid=grid, **_stream_request(scaled, name))

    results: Dict[int, Dict[str, List[BucketStatistics]]] = {
        length: {} for length in lengths
    }
    missing: Dict[str, List[int]] = {}
    for name in config.benchmarks:
        for length in lengths:
            cached = load_sweep_results(key(name, length))
            if cached is not None and len(cached) == len(specs):
                results[length][name] = cached
            else:
                missing.setdefault(name, []).append(length)
    warm_streams(config, [
        _stream_request(config.scaled(trace_length=wanted[-1]), name)
        for name, wanted in missing.items()
    ])
    for name, wanted in missing.items():
        snapshots = _observe_prefixes(config, name, specs, wanted)
        for length in wanted:
            results[length][name] = snapshots[length]
            store_sweep_results(key(name, length), snapshots[length])
    return {
        length: [
            {name: by_name[name][position] for name in config.benchmarks}
            for position in range(len(specs))
        ]
        for length, by_name in results.items()
    }


def _observe_prefixes(
    config: ExperimentConfig,
    name: str,
    specs: Sequence[SweepSpec],
    lengths: Sequence[int],
) -> Dict[int, List[BucketStatistics]]:
    """One grid pass over ``name``'s first ``lengths[-1]`` branches.

    ``lengths`` is ascending.  A chunk is split wherever a length falls
    inside it, and the statistics are taken at each boundary.  The
    snapshot never changes afterwards: the observer folds in place, but
    ``statistics()`` returns copies of its running sums.
    """
    observer = GridObserver(specs)
    pending = list(lengths)
    snapshots: Dict[int, List[BucketStatistics]] = {}
    offset = 0
    observability.increment("batched.grid_sweeps")
    with observability.timed("batched.grid_sweep_seconds"):
        longest = config.scaled(trace_length=pending[-1])
        for chunk in suite_stream_chunks(longest, name):
            begin, end = 0, chunk.num_branches
            while pending and pending[0] <= offset + end:
                cut = pending.pop(0) - offset
                observer.observe(_chunk_part(chunk, begin, cut))
                snapshots[offset + cut] = observer.statistics()
                begin = cut
            observer.observe(_chunk_part(chunk, begin, end))
            offset += end
    return snapshots


def _chunk_part(chunk: StreamChunk, begin: int, end: int) -> StreamChunk:
    """Branches ``[begin, end)`` of ``chunk`` (the chunk itself if whole)."""
    if begin == 0 and end == chunk.num_branches:
        return chunk
    return StreamChunk(
        trace_name=chunk.trace_name,
        start=chunk.start + begin,
        correct=chunk.correct[begin:end],
        bhrs=chunk.bhrs[begin:end],
        pcs=chunk.pcs[begin:end],
        gcirs=chunk.gcirs[begin:end],
    )
