"""Two-tier (memory + disk) memoization of predictor sweeps.

Every experiment in the paper reuses the same (benchmark, predictor)
pairs; the predictor sweep is the only sequential-in-Python stage of the
fast path, so caching it makes the difference between seconds and minutes
for the full figure suite.  Keys are fully value-based (benchmark name,
trace length, seed, predictor geometry, record widths), so a cached entry
is always interchangeable with a fresh sweep.

Tier 1 is a bounded per-process memo (identical objects on repeat
lookups); tier 2 is the persistent content-keyed ``.npz`` store in
:mod:`repro.sim.diskcache`, shared across processes, CLI invocations, and
parallel workers.  Cache traffic is counted through
:mod:`repro.observability` (``stream_cache.memory_hits`` /
``.disk_hits`` / ``.sweeps``), so a warm run can prove it swept nothing.

Shorter lengths are served as prefixes.  A benchmark's trace of ``L``
branches is a prefix of its longer traces at the same seed, and the
gshare sweep is causal, so its streams are prefixes too.  The trace memo
keeps the longest trace synthesized per (benchmark, seed) and slices it
(``workloads.prefix_hits``); on an exact miss the memory tier slices any
longer entry of the same geometry (``stream_cache.prefix_hits``).  In
whole-trace mode the slice is persisted exactly as a fresh sweep would
be.  The per-chunk tier cannot take a slice: each chunk entry carries
the predictor state after it, which a slice of the streams does not
hold, so chunked lookups persist only what they sweep.

Grid results (:func:`load_sweep_results` / :func:`store_sweep_results`)
live on disk only: they are read once per figure run, so a process memo
would only hold memory.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import observability
from repro.sim.chunked import (
    GshareState,
    StreamChunk,
    num_chunks,
    resolve_chunk_size,
    sweep_chunk,
)
from repro.sim.diskcache import (
    ChunkStreamKey,
    StreamKey,
    SweepKey,
    cache_enabled,
    chunk_entry_path,
    entry_path,
    load_cached_chunk,
    load_cached_streams,
    load_cached_sweep,
    store_cached_chunk,
    store_cached_streams,
    store_cached_sweep,
)
from repro.sim.fast import PredictorStreams, predictor_streams, streams_from_chunks
from repro.traces.trace import Trace
from repro.workloads.ibs import DEFAULT_TRACE_LENGTH, load_benchmark
from repro.workloads.spec_like import load_spec_benchmark, spec_benchmark_names

if TYPE_CHECKING:  # analysis imports sim; keep the runtime edge one-way
    from repro.analysis.buckets import BucketStatistics

#: Upper bound on distinct sweeps kept in process memory.
MEMORY_TIER_MAXSIZE = 128

_memory: "OrderedDict[StreamKey, PredictorStreams]" = OrderedDict()

#: The longest trace synthesized so far per (benchmark, seed).
_traces: "OrderedDict[Tuple[str, int], Trace]" = OrderedDict()


def _load_any_benchmark(name: str, length: int, seed: int) -> Trace:
    """Resolve a benchmark from the IBS suite or the SPEC-like suite.

    A length no longer than the longest trace held for (name, seed) is
    that trace's prefix; anything else is synthesized and held.  The
    suite is chosen by name, so an invalid length or an unknown name
    surfaces the IBS loader's own error instead of a SPEC-like miss.
    """
    held = _traces.get((name, seed))
    if held is not None and 0 < length <= len(held):
        _traces.move_to_end((name, seed))
        if length == len(held):
            return held
        observability.increment("workloads.prefix_hits")
        return held.slice(0, length)
    if name in spec_benchmark_names():
        trace = load_spec_benchmark(name, length, seed)
    else:
        trace = load_benchmark(name, length, seed)
    _bounded_put(_traces, (name, seed), trace)
    return trace


def _bounded_put(memo: "OrderedDict", key, value) -> None:
    """Insert into an LRU memo, evicting past :data:`MEMORY_TIER_MAXSIZE`."""
    memo[key] = value
    memo.move_to_end(key)
    while len(memo) > MEMORY_TIER_MAXSIZE:
        memo.popitem(last=False)


def _prefix_streams(streams: PredictorStreams, length: int) -> PredictorStreams:
    """The first ``length`` branches of ``streams`` (views, no copies)."""
    return PredictorStreams(
        trace_name=streams.trace_name,
        correct=streams.correct[:length],
        bhrs=streams.bhrs[:length],
        pcs=streams.pcs[:length],
        gcir_bits=streams.gcir_bits,
    )


def _memory_lookup(
    key: StreamKey, chunk_size: Optional[int]
) -> "PredictorStreams | None":
    """The memory tier: the exact entry, else a prefix of a longer one.

    A prefix is memoized under ``key`` and, in whole-trace mode
    (``chunk_size`` None), persisted like a fresh sweep unless the disk
    already holds the entry.
    """
    streams = _memory.get(key)
    if streams is not None:
        _memory.move_to_end(key)
        observability.increment("stream_cache.memory_hits")
        return streams
    longer = next(
        (
            held for held_key, held in _memory.items()
            if held_key.length > key.length
            and dataclasses.replace(held_key, length=key.length) == key
        ),
        None,
    )
    if longer is None:
        return None
    observability.increment("stream_cache.prefix_hits")
    streams = _prefix_streams(longer, key.length)
    _bounded_put(_memory, key, streams)
    if chunk_size is None and not entry_path(key).exists():
        store_cached_streams(key, streams)
    return streams


def stream_key(
    benchmark: str,
    length: int = DEFAULT_TRACE_LENGTH,
    seed: int = 0,
    entries: int = 1 << 16,
    history_bits: int = 16,
    bhr_record_bits: int = 16,
    gcir_bits: int = 16,
) -> StreamKey:
    """The cache key a :func:`cached_predictor_streams` call resolves to."""
    return StreamKey(
        benchmark=benchmark,
        length=length,
        seed=seed,
        entries=entries,
        history_bits=history_bits,
        bhr_record_bits=bhr_record_bits,
        gcir_bits=gcir_bits,
    )


def peek_cached_streams(
    chunk_size: Optional[int] = None, **request
) -> "PredictorStreams | None":
    """Memory-tier-only lookup; never loads from disk or sweeps.

    Lets callers (the parallel runner) find out what still needs
    computing without triggering the computation themselves.  A prefix
    of a longer memoized entry counts as a hit; ``chunk_size`` decides
    whether it is persisted (see :func:`cached_predictor_streams`).
    """
    return _memory_lookup(stream_key(**request), chunk_size)


def has_disk_entry(chunk_size: Optional[int] = None, **request) -> bool:
    """Cheap disk-tier existence peek (no load, no checksum verification).

    Lets the parallel runner skip process-pool startup when every missing
    sweep is already on disk; warm runs then load serially.  With
    ``chunk_size`` set, the peek checks the per-chunk tier (every chunk
    must be present).  A True answer may still turn into a recompute if
    the entry fails verification on the actual load — that path stays
    correct, just no longer pool-accelerated.
    """
    if not cache_enabled():
        return False
    if chunk_size is None:
        return entry_path(stream_key(**request)).exists()
    length = request.get("length", DEFAULT_TRACE_LENGTH)
    step = resolve_chunk_size(chunk_size, length)
    return all(
        chunk_entry_path(
            chunk_stream_key(chunk_size=step, chunk_index=index, **request)
        ).exists()
        for index in range(num_chunks(length, step))
    )


def seed_memory_tier(streams: PredictorStreams, **request) -> None:
    """Insert externally-computed streams (e.g. from a worker) into the memo."""
    _bounded_put(_memory, stream_key(**request), streams)


def chunk_stream_key(
    benchmark: str,
    chunk_size: int,
    chunk_index: int,
    length: int = DEFAULT_TRACE_LENGTH,
    seed: int = 0,
    entries: int = 1 << 16,
    history_bits: int = 16,
    bhr_record_bits: int = 16,
    gcir_bits: int = 16,
) -> ChunkStreamKey:
    """The per-chunk disk key of chunk ``chunk_index`` of a chunked sweep."""
    return ChunkStreamKey(
        benchmark=benchmark,
        length=length,
        seed=seed,
        entries=entries,
        history_bits=history_bits,
        bhr_record_bits=bhr_record_bits,
        gcir_bits=gcir_bits,
        chunk_size=chunk_size,
        chunk_index=chunk_index,
    )


def iter_cached_stream_chunks(
    benchmark: str,
    length: int = DEFAULT_TRACE_LENGTH,
    seed: int = 0,
    entries: int = 1 << 16,
    history_bits: int = 16,
    bhr_record_bits: int = 16,
    gcir_bits: int = 16,
    chunk_size: Optional[int] = None,
) -> Iterator[StreamChunk]:
    """Generator of predictor stream chunks, in stream order.

    A ``None`` chunk size yields the whole trace as one chunk, served by
    :func:`cached_predictor_streams` (memory -> whole-trace disk entry ->
    sweep).  Any other size goes through the per-chunk disk tier: each
    chunk is looked up under its own content key, and a hit also restores
    the post-chunk :class:`~repro.sim.chunked.GshareState`, so sweeping
    resumes exactly where the cached prefix left off — the trace is only
    loaded (lazily, once) when some chunk actually misses.
    """
    if chunk_size is None:
        streams = cached_predictor_streams(
            benchmark,
            length=length,
            seed=seed,
            entries=entries,
            history_bits=history_bits,
            bhr_record_bits=bhr_record_bits,
            gcir_bits=gcir_bits,
        )
        yield StreamChunk(
            trace_name=streams.trace_name,
            start=0,
            correct=streams.correct,
            bhrs=streams.bhrs,
            pcs=streams.pcs,
            gcirs=streams.gcirs,
        )
        return
    step = resolve_chunk_size(chunk_size, length)
    state: Optional[GshareState] = None
    trace: Optional[Trace] = None
    for index in range(num_chunks(length, step)):
        key = chunk_stream_key(
            benchmark,
            chunk_size=step,
            chunk_index=index,
            length=length,
            seed=seed,
            entries=entries,
            history_bits=history_bits,
            bhr_record_bits=bhr_record_bits,
            gcir_bits=gcir_bits,
        )
        loaded = load_cached_chunk(key)
        if loaded is not None:
            chunk, state = loaded
            observability.record_peak_rss()
            yield chunk
            continue
        if trace is None:
            trace = _load_any_benchmark(benchmark, length, seed)
        if state is None:
            # Only possible at index 0: the sweep is sequential, so any
            # later miss inherits the state of the chunk before it.
            state = GshareState.fresh(entries)
        start = index * step
        stop = min(start + step, length)
        observability.increment("stream_cache.chunk_sweeps")
        with observability.timed("stream_cache.chunk_sweep_seconds"):
            chunk = sweep_chunk(
                trace.pcs[start:stop],
                trace.outcomes[start:stop],
                state,
                history_bits=history_bits,
                bhr_record_bits=bhr_record_bits,
                gcir_bits=gcir_bits,
                trace_name=trace.name,
            )
        store_cached_chunk(key, chunk, state.copy())
        observability.record_peak_rss()
        yield chunk


def cached_predictor_streams(
    benchmark: str,
    length: int = DEFAULT_TRACE_LENGTH,
    seed: int = 0,
    entries: int = 1 << 16,
    history_bits: int = 16,
    bhr_record_bits: int = 16,
    gcir_bits: int = 16,
    chunk_size: Optional[int] = None,
) -> PredictorStreams:
    """Predictor streams for a suite benchmark, memoized by value.

    ``benchmark`` may name an IBS-suite or SPEC-like-suite program.
    Lookups fall through memory (exact, then a prefix of a longer entry
    of the same geometry) -> disk -> fresh sweep; a fresh sweep, and in
    whole-trace mode a prefix, is persisted so later processes (and
    parallel workers sharing the cache directory) skip it.  The result
    is chunk-size invariant, so the memory tier is shared across chunk
    sizes; with ``chunk_size`` set, disk traffic goes through the
    per-chunk tier (:func:`iter_cached_stream_chunks`) instead of the
    monolithic one.
    """
    key = stream_key(
        benchmark,
        length=length,
        seed=seed,
        entries=entries,
        history_bits=history_bits,
        bhr_record_bits=bhr_record_bits,
        gcir_bits=gcir_bits,
    )
    streams = _memory_lookup(key, chunk_size)
    if streams is not None:
        return streams
    if chunk_size is not None:
        chunks = iter_cached_stream_chunks(
            benchmark,
            length=length,
            seed=seed,
            entries=entries,
            history_bits=history_bits,
            bhr_record_bits=bhr_record_bits,
            gcir_bits=gcir_bits,
            chunk_size=chunk_size,
        )
        streams = streams_from_chunks(chunks, benchmark, gcir_bits)
    else:
        streams = load_cached_streams(key)
        if streams is None:
            observability.increment("stream_cache.sweeps")
            with observability.timed("stream_cache.sweep_seconds"):
                trace = _load_any_benchmark(benchmark, length, seed)
                streams = predictor_streams(
                    trace,
                    entries=entries,
                    history_bits=history_bits,
                    bhr_record_bits=bhr_record_bits,
                    gcir_bits=gcir_bits,
                )
            store_cached_streams(key, streams)
    _bounded_put(_memory, key, streams)
    return streams


def sweep_result_key(
    grid: str,
    benchmark: str,
    length: int = DEFAULT_TRACE_LENGTH,
    seed: int = 0,
    entries: int = 1 << 16,
    history_bits: int = 16,
    bhr_record_bits: int = 16,
    gcir_bits: int = 16,
) -> SweepKey:
    """The cache key of one batched grid sweep over one benchmark.

    ``grid`` is the spec-grid content digest
    (:func:`repro.sim.batched.grid_digest`); the remaining fields match
    :func:`stream_key`, so a sweep entry depends on exactly the streams
    it consumed plus the grid it evaluated.
    """
    return SweepKey(
        benchmark=benchmark,
        length=length,
        seed=seed,
        entries=entries,
        history_bits=history_bits,
        bhr_record_bits=bhr_record_bits,
        gcir_bits=gcir_bits,
        grid=grid,
    )


def load_sweep_results(key: SweepKey) -> "Optional[List[BucketStatistics]]":
    """Disk-tier lookup of one benchmark's grid statistics."""
    return load_cached_sweep(key)


def store_sweep_results(
    key: SweepKey, statistics: "Sequence[BucketStatistics]"
) -> None:
    """Publish one benchmark's grid statistics to the disk tier."""
    store_cached_sweep(key, statistics)


def memory_tier_info() -> Dict[str, int]:
    """Size/capacity of the in-process tier (for `repro cache stats`)."""
    return {"entries": len(_memory), "maxsize": MEMORY_TIER_MAXSIZE}


def clear_stream_cache() -> None:
    """Drop the in-process stream and trace memos (mainly for tests).

    The persistent tier is cleared separately with
    :func:`repro.sim.diskcache.clear_disk_cache`.
    """
    _memory.clear()
    _traces.clear()
