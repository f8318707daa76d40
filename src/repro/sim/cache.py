"""Two-tier (memory + disk) memoization of predictor sweeps.

Every experiment in the paper reuses the same (benchmark, predictor)
pairs; the predictor sweep is the only sequential-in-Python stage of the
fast path, so caching it makes the difference between seconds and minutes
for the full figure suite.  Keys are fully value-based (benchmark name,
trace length, seed, predictor geometry, record widths), so a cached entry
is always interchangeable with a fresh sweep.

Tier 1 is a bounded per-process memo (identical objects on repeat
lookups); tier 2 is the persistent content-keyed entry store in
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
be.

With a chunk size set, streams go through the cell tier instead.  Every
request is cut on one fixed grid of :data:`CELL_BRANCHES`-branch cells,
keyed without the trace length or the chunk size, so requests of every
length share the cells they cover on disk: a partial last cell is read
under its own key or cut from its full cell, and a missing cell resumes
from the predictor state stored with the cell before it.  The chunk
size only slices each cell for the observer.  A small memo of decoded
cells (:data:`CELL_MEMO_MAXSIZE`, streams only) answers repeat reads in
one process (``stream_cache.cell_memory_hits``).

Grid results (:func:`load_sweep_results` / :func:`store_sweep_results`)
live on disk only.  Experiments that evaluate the same grid read one
another's entries back: a cold serial ``run-all`` at perfbench's input
stores 100 of them and reads 36 back, each a verified disk read.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import observability
from repro.sim.chunked import GshareState, StreamChunk, sweep_chunk
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
from repro.utils.validation import check_positive
from repro.workloads.ibs import DEFAULT_TRACE_LENGTH, load_benchmark
from repro.workloads.spec_like import load_spec_benchmark, spec_benchmark_names

if TYPE_CHECKING:  # analysis imports sim; keep the runtime edge one-way
    from repro.analysis.buckets import BucketStatistics

#: Upper bound on distinct sweeps kept in process memory.
MEMORY_TIER_MAXSIZE = 128

#: Upper bound on decoded stream cells kept in process memory.  They
#: hold streams only: a carried table is read back from disk when a
#: sweep needs it.
CELL_MEMO_MAXSIZE = 8

#: Branches per stream cell.  The cell tier stores branches
#: ``[k * CELL_BRANCHES, (k + 1) * CELL_BRANCHES)`` of a sweep as cell
#: ``k``, cut short only at a request's length, whatever the chunk size.
CELL_BRANCHES = 16_384

_memory: "OrderedDict[StreamKey, PredictorStreams]" = OrderedDict()

_cells: "OrderedDict[ChunkStreamKey, StreamChunk]" = OrderedDict()

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


def _bounded_put(
    memo: "OrderedDict", key, value, maxsize: int = MEMORY_TIER_MAXSIZE
) -> None:
    """Insert into an LRU memo, evicting past ``maxsize`` entries."""
    memo[key] = value
    memo.move_to_end(key)
    while len(memo) > maxsize:
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


def has_disk_entry(chunk_size: Optional[int] = None, **request) -> bool:
    """Cheap disk-tier existence peek (no load, no checksum verification).

    Lets the parallel runner skip process-pool startup when every
    request is already on disk (warm runs then load serially), and is the
    fabric's done-check for a stream unit.  With ``chunk_size`` set, the
    peek checks the cell tier: every cell of the request must be present
    (a partial last cell, or the full cell it is cut from).  A True
    answer may still turn into a recompute if the entry fails
    verification on the actual load — that path stays correct, just no
    longer pool-accelerated.
    """
    if not cache_enabled():
        return False
    if chunk_size is None:
        return entry_path(stream_key(**request)).exists()
    return all(
        any(chunk_entry_path(key).exists() for key in candidates)
        for candidates in _cell_keys(**request)
    )


def chunk_stream_key(
    benchmark: str,
    start: int,
    stop: int,
    seed: int = 0,
    entries: int = 1 << 16,
    history_bits: int = 16,
    bhr_record_bits: int = 16,
    gcir_bits: int = 16,
) -> ChunkStreamKey:
    """The disk key of the stream cell holding branches ``[start, stop)``."""
    return ChunkStreamKey(
        benchmark=benchmark,
        seed=seed,
        entries=entries,
        history_bits=history_bits,
        bhr_record_bits=bhr_record_bits,
        gcir_bits=gcir_bits,
        start=start,
        stop=stop,
    )


def _cell_keys(
    benchmark: str, length: int = DEFAULT_TRACE_LENGTH, **geometry
) -> List[Tuple[ChunkStreamKey, ...]]:
    """The cells of a ``length``-branch request, in stream order.

    Cell ``k`` holds branches ``[k * CELL_BRANCHES, (k + 1) *
    CELL_BRANCHES)``, cut short at ``length``.  Each item is the cell's
    exact key, followed, for a partial last cell, by the key of the full
    cell it may be cut from.
    """
    cells: List[Tuple[ChunkStreamKey, ...]] = []
    for start in range(0, length, CELL_BRANCHES):
        full = chunk_stream_key(benchmark, start, start + CELL_BRANCHES, **geometry)
        if full.stop <= length:
            cells.append((full,))
        else:
            cells.append((dataclasses.replace(full, stop=length), full))
    return cells


def cells_cover(length: int, longer: int) -> bool:
    """Whether a ``longer``-branch request's cells hold all of a ``length``-branch one's.

    The full cells are shared; a partial last cell is covered when the
    full cell it is cut from lies within ``longer``.
    """
    full_end = -(-length // CELL_BRANCHES) * CELL_BRANCHES
    return length <= longer and (full_end == length or full_end <= longer)


def _lookup_cell(candidates: Tuple[ChunkStreamKey, ...]) -> Optional[StreamChunk]:
    """A cell's streams from the memo, else from disk; None on a miss.

    A partial cell missing under its exact key is cut from its full
    cell.  Disk reads leave the carried table undecoded.
    """
    for key in candidates:
        cell = _cells.get(key)
        if cell is not None:
            _cells.move_to_end(key)
            observability.increment("stream_cache.cell_memory_hits")
            break
    else:
        for key in candidates:
            loaded = load_cached_chunk(key, with_state=False)
            if loaded is not None:
                cell = loaded[0]
                _bounded_put(_cells, key, cell, CELL_MEMO_MAXSIZE)
                break
        else:
            return None
    exact = candidates[0]
    return cell.slice(0, exact.stop - exact.start)


def _sweep_cell(trace: Trace, key: ChunkStreamKey, state: GshareState) -> StreamChunk:
    """Sweep and store cell ``key`` from ``state``, advancing ``state``."""
    observability.increment("stream_cache.chunk_sweeps")
    with observability.timed("stream_cache.chunk_sweep_seconds"):
        cell = sweep_chunk(
            trace.pcs[key.start : key.stop],
            trace.outcomes[key.start : key.stop],
            state,
            history_bits=key.history_bits,
            bhr_record_bits=key.bhr_record_bits,
            gcir_bits=key.gcir_bits,
            trace_name=trace.name,
        )
    store_cached_chunk(key, cell, state)
    return cell


def _sweep_missing(
    trace: Trace,
    cells: Sequence[Tuple[ChunkStreamKey, ...]],
    index: int,
    state: Optional[GshareState],
) -> Tuple[StreamChunk, GshareState]:
    """Sweep and store missing cell ``index``; returns it and the state after it.

    ``state`` is used when it stands at the cell's start: the cell
    before was swept here.  Otherwise the memo holds no state, so the
    state of the nearest earlier cell entry that loads is read back, and
    the cells after that one are swept (and stored) again; with none,
    the sweep starts from a fresh state at branch 0.
    """
    key = cells[index][0]
    if state is None or state.position != key.start:
        for loadable in range(index - 1, -1, -1):
            loaded = load_cached_chunk(cells[loadable][0])
            if loaded is not None:
                state = loaded[1]
                break
        else:
            loadable, state = -1, GshareState.fresh(key.entries)
        for (earlier,) in cells[loadable + 1 : index]:
            _sweep_cell(trace, earlier, state)
    return _sweep_cell(trace, key, state), state


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
    sweep).  Any other size reads the request's cells
    (:func:`_cell_keys`) through the cell memo and the cell disk tier
    and yields each cell as views of at most ``chunk_size`` branches:
    the chunk size sets only the slice an observer sees, never what is
    stored.  A missing cell is swept from the state after the cell
    before it (:func:`_sweep_missing`).  The trace is only loaded
    (lazily, once) when some cell actually misses.
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
    step = check_positive(chunk_size, "chunk_size")
    cells = _cell_keys(
        benchmark, length, seed=seed, entries=entries, history_bits=history_bits,
        bhr_record_bits=bhr_record_bits, gcir_bits=gcir_bits,
    )
    state: Optional[GshareState] = None
    trace: Optional[Trace] = None
    for index, candidates in enumerate(cells):
        cell = _lookup_cell(candidates)
        if cell is None:
            if trace is None:
                trace = _load_any_benchmark(benchmark, length, seed)
            cell, state = _sweep_missing(trace, cells, index, state)
            _bounded_put(_cells, candidates[0], cell, CELL_MEMO_MAXSIZE)
        observability.record_peak_rss()
        for begin in range(0, cell.num_branches, step):
            yield cell.slice(begin, begin + step)


def warm_stream_entries(chunk_size: Optional[int], request: Dict[str, Any]) -> None:
    """Sweep one stream request into the store, skipping what it holds.

    The one path that fills the store outside the process that reads it:
    pool workers (:func:`repro.experiments.runner.warm_streams`) and
    fabric stream units both call it.  A ``None`` chunk size is one
    whole-trace entry.  Otherwise the request's cells on disk are
    neither read nor memoized (the reader is another process or a later
    unit), and only the missing cells are swept and stored.
    """
    if chunk_size is None:
        cached_predictor_streams(**request)
        return
    cells = _cell_keys(**request)
    state: Optional[GshareState] = None
    trace: Optional[Trace] = None
    for index, candidates in enumerate(cells):
        if any(chunk_entry_path(key).exists() for key in candidates):
            continue
        if trace is None:
            last = cells[-1][0]
            trace = _load_any_benchmark(last.benchmark, last.stop, last.seed)
        _, state = _sweep_missing(trace, cells, index, state)


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
    sizes; with ``chunk_size`` set, disk traffic goes through the cell
    tier (:func:`iter_cached_stream_chunks`) instead of the monolithic
    one.
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


def clear_stream_cache() -> None:
    """Drop the in-process stream and trace memos (mainly for tests).

    The persistent tier is cleared separately with
    :func:`repro.sim.diskcache.clear_disk_cache`.
    """
    _memory.clear()
    _traces.clear()
    _cells.clear()
