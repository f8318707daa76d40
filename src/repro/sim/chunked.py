"""Chunked streaming simulation core.

The monolithic fast path (:mod:`repro.sim.fast`) materializes the full
trace and every derived stream, so peak memory grows linearly with trace
length.  This module bounds peak memory by the *chunk* size instead:
traces are consumed as a generator of fixed-size chunks, all table state
(the gshare counter table and BHR, CIR tables, saturating-counter
tables) carries across chunk boundaries, and per-chunk bucket streams
fold into running statistics.  Because every mechanism in the paper is
causal — each access depends only on earlier accesses to the same entry
— cutting the stream at arbitrary boundaries and re-seeding the next
chunk with the carried state reproduces the monolithic streams *bit for
bit*; the golden-equivalence tests assert exactly that for chunk sizes
down to 1.

The chunk kernel is also where the last sequential Python loops die:

* **The gshare sweep is a table-state-carrying NumPy kernel.**  The BHR
  stream is a lagged-shift reconstruction of the outcome bits (the
  register shifts in the *resolved outcome*, so it never depends on the
  predictions), which makes the per-branch table index fully
  vectorizable.  The 2-bit counters are then a table of clamped ±1
  walks, evaluated by :func:`segmented_clamped_walk`.
* **Saturating counters ride the same kernel** — they are the identical
  clamped-walk recurrence with a wider clamp range.

The one scan behind both (:func:`_stacked_clamped_walk`, which the
batched grid observer also stacks over configurations) exploits that
the per-step update
``x -> min(hi, max(lo, x + d))`` is a *clamp-affine* function
``x -> min(U, max(L, x + s))``, and that clamp-affine functions are
closed under composition::

    (later ∘ earlier): s = s1 + s2
                       L = max(l2, l1 + s2)
                       U = min(u2, max(l2, u1 + s2))

so the per-entry prefix compositions reduce to a segmented
Hillis-Steele scan — ``O(n log n)`` vectorized work instead of a
sequential Python loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from repro import observability
from repro.core.indexing import PC_ALIGNMENT_BITS
from repro.traces.trace import Trace
from repro.utils.bits import bit_mask
from repro.utils.validation import check_in_range, check_positive

#: Default chunk size of the streaming pipeline: large enough that the
#: per-chunk NumPy dispatch overhead is negligible, small enough that the
#: derived int64 streams stay a few MiB.
DEFAULT_CHUNK_SIZE = 65_536

#: 2-bit counter initial value matching the paper ("weakly taken").
_WEAKLY_TAKEN = 2

#: Sentinel clamp bounds representing "no clamp yet" (identity function).
_NO_CLAMP = 1 << 40

#: Widest shift register the int64 lagged-shift kernels support.
MAX_REGISTER_BITS = 62


def resolve_chunk_size(chunk_size: Optional[int], total: int) -> int:
    """The effective chunk size: ``None`` means one chunk (monolithic)."""
    if chunk_size is None:
        return max(total, 1)
    return check_positive(chunk_size, "chunk_size")


def iter_trace_chunks(trace: Trace, chunk_size: Optional[int]) -> Iterator[Trace]:
    """Yield ``trace`` as contiguous sub-trace views of ``chunk_size`` branches.

    Slices share the underlying arrays (NumPy views), so iterating a
    materialized trace adds no per-chunk copies.
    """
    step = resolve_chunk_size(chunk_size, len(trace))
    for start in range(0, len(trace), step):
        yield trace.slice(start, min(start + step, len(trace)))


# --------------------------------------------------------------------------
# The segmented clamped-walk scan (shared by gshare and saturating counters)
# --------------------------------------------------------------------------


def _group_ranks(sorted_indices: np.ndarray) -> np.ndarray:
    """Rank of each sorted position within its (contiguous) index group."""
    n = sorted_indices.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    is_start = np.concatenate(([True], sorted_indices[1:] != sorted_indices[:-1]))
    group_starts = np.flatnonzero(is_start)
    group_sizes = np.diff(np.concatenate((group_starts, [n])))
    start_of_position = np.repeat(group_starts, group_sizes)
    return np.arange(n, dtype=np.int64) - start_of_position


def _stacked_clamped_walk(
    ranks: np.ndarray,
    deltas: np.ndarray,
    lo: int,
    upper_bounds: Union[int, np.ndarray],
    init_sorted: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Segmented clamped walk over already-grouped sorted segments.

    ``ranks`` is each position's rank within its (contiguous) group, as
    from :func:`_group_ranks`; the clamp upper bound may vary per
    position, so several configurations with different counter maxima
    can be stacked into one scan.  The clamp-affine composition is
    element-wise, so windows never leak across groups: rank-0 positions
    seed the identity and the ``ranks >= offset`` guard masks every
    cross-group gather.

    Returns ``(pre, post)`` in the same sorted order: the value each
    access read, and the value it wrote.
    """
    total = ranks.shape[0]
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    # Exclusive prefix composition per group: position of rank r carries
    # the composition of the steps of ranks 0..r-1.  Seed each position
    # with its *predecessor's* step (rank 0 gets the identity), then run
    # an inclusive segmented scan.
    shift = np.where(
        ranks > 0,
        np.concatenate((np.zeros(1, dtype=np.int64), deltas[:-1])),
        0,
    )
    lower = np.where(ranks > 0, np.int64(lo), -_NO_CLAMP)
    upper = np.where(ranks > 0, upper_bounds, _NO_CLAMP)

    max_rank = int(ranks.max())
    offset = 1
    while offset <= max_rank:
        in_group = ranks >= offset
        earlier_shift = np.empty_like(shift)
        earlier_lower = np.empty_like(lower)
        earlier_upper = np.empty_like(upper)
        earlier_shift[offset:] = shift[:-offset]
        earlier_lower[offset:] = lower[:-offset]
        earlier_upper[offset:] = upper[:-offset]
        earlier_shift[:offset] = 0
        earlier_lower[:offset] = -_NO_CLAMP
        earlier_upper[:offset] = _NO_CLAMP
        # Compose (this ∘ earlier): the earlier window applies first.
        composed_shift = earlier_shift + shift
        composed_lower = np.maximum(lower, earlier_lower + shift)
        composed_upper = np.minimum(upper, np.maximum(lower, earlier_upper + shift))
        shift = np.where(in_group, composed_shift, shift)
        lower = np.where(in_group, composed_lower, lower)
        upper = np.where(in_group, composed_upper, upper)
        offset <<= 1

    pre = np.minimum(upper, np.maximum(lower, init_sorted + shift))
    post = np.minimum(upper_bounds, np.maximum(np.int64(lo), pre + deltas))
    return pre, post


def segmented_clamped_walk(
    indices: np.ndarray,
    deltas: np.ndarray,
    lo: int,
    hi: int,
    init_values: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized table of clamped walks ``x -> min(hi, max(lo, x + d))``.

    Parameters
    ----------
    indices:
        Table entry accessed by each position.
    deltas:
        Per-position step (any integers, typically ±1).
    lo, hi:
        Clamp bounds of every entry.
    init_values:
        Per-entry starting values (one per table entry).

    Returns
    -------
    ``(pre_values, final_values)``: the value each access *read* (before
    its own update), and a fresh copy of the table after all updates —
    the carry for the next chunk.
    """
    indices = np.asarray(indices, dtype=np.int64)
    deltas = np.asarray(deltas, dtype=np.int64)
    if indices.shape != deltas.shape:
        raise ValueError("indices and deltas must have equal length")
    n = indices.shape[0]
    finals = np.asarray(init_values, dtype=np.int64).copy()
    if n == 0:
        return np.zeros(0, dtype=np.int64), finals

    order = np.argsort(indices, kind="stable")
    sorted_indices = indices[order]
    pre_sorted, post_sorted = _stacked_clamped_walk(
        _group_ranks(sorted_indices), deltas[order], lo, hi, finals[sorted_indices]
    )
    pre_values = np.empty(n, dtype=np.int64)
    pre_values[order] = pre_sorted
    # Later positions overwrite earlier ones, so the last access wins.
    finals[sorted_indices] = post_sorted
    return pre_values, finals


# --------------------------------------------------------------------------
# Shift-register streams with carry (BHR / global CIR across chunks)
# --------------------------------------------------------------------------


def lagged_register_stream(bits: np.ndarray, carry: int, width: int) -> np.ndarray:
    """Pre-position values of a ``width``-bit shift register fed by ``bits``.

    Position ``t`` sees the register *before* ``bits[t]`` shifts in:
    bit ``j`` is ``bits[t - 1 - j]``, falling back to ``carry`` (the
    register value entering this chunk) for positions near the start.
    """
    check_in_range(width, 0, MAX_REGISTER_BITS, "width")
    bits = np.asarray(bits, dtype=np.int64)
    m = bits.shape[0]
    values = np.zeros(m, dtype=np.int64)
    if width == 0 or m == 0:
        return values
    mask = bit_mask(width)
    for j in range(width):
        if m > j + 1:
            values[j + 1:] |= bits[: m - j - 1] << j
    carry = int(carry) & mask
    for t in range(min(m, width)):
        values[t] = int(values[t]) | ((carry << t) & mask)
    return values


def register_carry_out(bits: np.ndarray, carry: int, width: int) -> int:
    """The register value after all of ``bits`` shifted in (next chunk's carry)."""
    check_in_range(width, 0, MAX_REGISTER_BITS, "width")
    if width == 0:
        return 0
    bits = np.asarray(bits, dtype=np.int64)
    m = bits.shape[0]
    mask = bit_mask(width)
    packed = 0
    for j in range(min(m, width)):
        packed |= int(bits[m - 1 - j]) << j
    if m >= width:
        return packed & mask
    return ((int(carry) << m) | packed) & mask


# --------------------------------------------------------------------------
# The chunked gshare sweep
# --------------------------------------------------------------------------


@dataclass
class GshareState:
    """Predictor state carried across chunk boundaries."""

    #: 2-bit counter table (int64 values 0..3, one per entry).
    table: np.ndarray
    #: Global BHR, masked to ``state_bits``.
    bhr: int = 0
    #: Global CIR of predictor-incorrect bits, masked to ``gcir_bits``.
    gcir: int = 0
    #: Dynamic branches consumed so far (next chunk's start offset).
    position: int = 0

    @classmethod
    def fresh(cls, entries: int) -> "GshareState":
        """The paper's initial state: every counter weakly taken."""
        index_mask = entries - 1
        if entries & index_mask or entries <= 0:
            raise ValueError(f"entries must be a power of two, got {entries}")
        return cls(table=np.full(entries, _WEAKLY_TAKEN, dtype=np.int64))

    def copy(self) -> "GshareState":
        return GshareState(
            table=self.table.copy(),
            bhr=self.bhr,
            gcir=self.gcir,
            position=self.position,
        )


@dataclass(frozen=True)
class StreamChunk:
    """Per-branch predictor output streams of one chunk."""

    trace_name: str
    #: Dynamic-branch offset of this chunk within the full stream.
    start: int
    #: Correctness per branch (uint8; 1 = predicted correctly).
    correct: np.ndarray
    #: Pre-branch BHR per branch (int64, masked to the record width).
    bhrs: np.ndarray
    #: Branch PCs (int64).
    pcs: np.ndarray
    #: Pre-branch global CIR per branch (int64).
    gcirs: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def num_branches(self) -> int:
        return int(self.correct.shape[0])


def sweep_chunk(
    pcs: np.ndarray,
    outcomes: np.ndarray,
    state: GshareState,
    history_bits: int = 16,
    bhr_record_bits: int = 16,
    gcir_bits: int = 16,
    trace_name: str = "",
) -> StreamChunk:
    """Run the vectorized gshare kernel over one chunk, advancing ``state``.

    Semantically identical to the reference engine's sequential sweep:
    prediction and training use the same pre-branch BHR, the table
    updates are saturating 2-bit counters, and the BHR shifts in the
    resolved outcome.  ``state`` is mutated in place (table, BHR, global
    CIR, position), so consecutive calls continue the same stream.
    """
    entries = state.table.shape[0]
    index_mask = entries - 1
    history_mask = bit_mask(history_bits)
    record_mask = bit_mask(bhr_record_bits)
    state_bits = max(history_bits, bhr_record_bits)
    check_in_range(state_bits, 0, MAX_REGISTER_BITS, "history/record bits")

    outcomes_arr = np.asarray(outcomes, dtype=np.int64)
    pcs_arr = np.asarray(pcs).astype(np.int64)

    bhr_values = lagged_register_stream(outcomes_arr, state.bhr, state_bits)
    indices = (
        (pcs_arr >> PC_ALIGNMENT_BITS) ^ (bhr_values & history_mask)
    ) & index_mask
    deltas = np.where(outcomes_arr == 1, 1, -1)
    counters, state.table = segmented_clamped_walk(
        indices, deltas, 0, 3, state.table
    )
    correct = ((counters >> 1) == outcomes_arr).astype(np.uint8)

    incorrect = (correct == 0).astype(np.int64)
    gcir_values = lagged_register_stream(incorrect, state.gcir, gcir_bits)

    chunk = StreamChunk(
        trace_name=trace_name,
        start=state.position,
        correct=correct,
        bhrs=bhr_values & record_mask,
        pcs=pcs_arr,
        gcirs=gcir_values,
    )
    state.bhr = register_carry_out(outcomes_arr, state.bhr, state_bits)
    state.gcir = register_carry_out(incorrect, state.gcir, gcir_bits)
    state.position += int(outcomes_arr.shape[0])
    return chunk


def sweep_stream_chunks(
    chunks: Iterable[Trace],
    entries: int = 1 << 16,
    history_bits: int = 16,
    bhr_record_bits: int = 16,
    gcir_bits: int = 16,
    state: Optional[GshareState] = None,
) -> Iterator[StreamChunk]:
    """Generator pipeline: trace chunks in, predictor stream chunks out.

    Accepts any iterable of :class:`~repro.traces.trace.Trace` chunks —
    views of a materialized trace (:func:`iter_trace_chunks`) or a true
    streaming source that generates each chunk on demand — so peak
    memory is bounded by the chunk size regardless of stream length.
    Per-chunk wall time, chunk counts, and peak RSS are recorded through
    :mod:`repro.observability`.
    """
    if state is None:
        state = GshareState.fresh(entries)
    for chunk_trace in chunks:
        with observability.timed("chunked.sweep_seconds"):
            chunk = sweep_chunk(
                chunk_trace.pcs,
                chunk_trace.outcomes,
                state,
                history_bits=history_bits,
                bhr_record_bits=bhr_record_bits,
                gcir_bits=gcir_bits,
                trace_name=chunk_trace.name,
            )
        observability.increment("chunked.chunks")
        observability.record_peak_rss()
        yield chunk


def sweep_streams(
    trace: Trace,
    entries: int = 1 << 16,
    history_bits: int = 16,
    bhr_record_bits: int = 16,
    gcir_bits: int = 16,
    chunk_size: Optional[int] = None,
):
    """Full-trace sweep via the chunk kernel; returns ``PredictorStreams``.

    This is the engine behind :func:`repro.sim.fast.predictor_streams`:
    identical output to the historical sequential loop, produced by the
    vectorized kernel (one chunk per ``chunk_size`` branches).
    """
    from repro.sim.fast import PredictorStreams

    correct_parts = []
    bhr_parts = []
    for chunk in sweep_stream_chunks(
        iter_trace_chunks(trace, chunk_size),
        entries=entries,
        history_bits=history_bits,
        bhr_record_bits=bhr_record_bits,
        gcir_bits=gcir_bits,
    ):
        correct_parts.append(chunk.correct)
        bhr_parts.append(chunk.bhrs)
    if correct_parts:
        correct = np.concatenate(correct_parts)
        bhrs = np.concatenate(bhr_parts)
    else:
        correct = np.zeros(0, dtype=np.uint8)
        bhrs = np.zeros(0, dtype=np.int64)
    return PredictorStreams(
        trace_name=trace.name,
        correct=correct,
        bhrs=bhrs,
        pcs=trace.pcs.astype(np.int64),
        gcir_bits=gcir_bits,
    )


def num_chunks(total: int, chunk_size: Optional[int]) -> int:
    """How many chunks a ``total``-branch stream splits into."""
    step = resolve_chunk_size(chunk_size, total)
    return max(1, math.ceil(total / step)) if total else 1


# --------------------------------------------------------------------------
# Chunk observers: confidence-table state carried across chunk boundaries
# --------------------------------------------------------------------------


class CIRTableObserver:
    """A one-level CIR table consumed chunk by chunk.

    Carries the per-entry CIR patterns across chunk boundaries (exactly
    the ``keep`` flush policy, which is a semantic no-op), so the
    concatenated per-chunk pattern streams are bit-identical to the
    monolithic :func:`repro.sim.fast.cir_pattern_stream`.
    """

    def __init__(self, cir_bits: int, table_entries: int, init_patterns) -> None:
        check_in_range(cir_bits, 1, 30, "cir_bits")
        check_positive(table_entries, "table_entries")
        self.cir_bits = cir_bits
        self.table_entries = table_entries
        if isinstance(init_patterns, np.ndarray):
            patterns = init_patterns.astype(np.int64).copy()
            if patterns.shape != (table_entries,):
                raise ValueError(
                    f"init_patterns must cover {table_entries} entries, "
                    f"got shape {patterns.shape}"
                )
        else:
            patterns = np.full(table_entries, int(init_patterns), dtype=np.int64)
        self.patterns = patterns

    def observe(self, indices: np.ndarray, correct: np.ndarray) -> np.ndarray:
        """Patterns read by this chunk's accesses; advances the table."""
        from repro.sim.fast import cir_pattern_stream, final_cir_patterns

        read = cir_pattern_stream(indices, correct, self.cir_bits, self.patterns)
        self.patterns = final_cir_patterns(
            indices, correct, self.cir_bits, self.patterns, self.table_entries
        )
        return read


class ResettingCounterObserver:
    """Chunked resetting counters (via the CIR equivalence)."""

    def __init__(self, maximum: int, table_entries: int, initial: int = 0) -> None:
        check_in_range(maximum, 1, 30, "maximum")
        check_in_range(initial, 0, maximum, "initial")
        mask = bit_mask(maximum)
        self.maximum = maximum
        self._cir = CIRTableObserver(maximum, table_entries, (mask << initial) & mask)

    def observe(self, indices: np.ndarray, correct: np.ndarray) -> np.ndarray:
        patterns = self._cir.observe(indices, correct)
        lowest = patterns & -patterns
        return np.where(
            patterns == 0,
            self.maximum,
            np.log2(np.maximum(lowest, 1)).astype(np.int64),
        ).astype(np.int64)


class SaturatingCounterObserver:
    """Chunked saturating counters (segmented clamped-walk kernel)."""

    def __init__(self, maximum: int, table_entries: int, initial: int = 0) -> None:
        check_positive(maximum, "maximum")
        check_in_range(initial, 0, maximum, "initial")
        check_positive(table_entries, "table_entries")
        self.maximum = maximum
        self.table = np.full(table_entries, initial, dtype=np.int64)

    def observe(self, indices: np.ndarray, correct: np.ndarray) -> np.ndarray:
        deltas = np.where(np.asarray(correct) != 0, 1, -1)
        values, self.table = segmented_clamped_walk(
            indices, deltas, 0, self.maximum, self.table
        )
        return values


class TwoLevelObserver:
    """Chunked two-level CIR mechanism (both levels carried)."""

    def __init__(
        self,
        level1_cir_bits: int,
        level2_cir_bits: int,
        table_entries: int,
        second_use_pc: bool = False,
        second_use_bhr: bool = False,
        level1_init=0,
        level2_init=0,
    ) -> None:
        self.level1 = CIRTableObserver(level1_cir_bits, table_entries, level1_init)
        self.level2 = CIRTableObserver(
            level2_cir_bits, 1 << level1_cir_bits, level2_init
        )
        self.second_use_pc = second_use_pc
        self.second_use_bhr = second_use_bhr
        self._level1_mask = bit_mask(level1_cir_bits)

    def observe(
        self,
        level1_indices: np.ndarray,
        correct: np.ndarray,
        pcs: np.ndarray,
        bhrs: np.ndarray,
    ) -> np.ndarray:
        cir1 = self.level1.observe(level1_indices, correct)
        level2_indices = cir1.copy()
        if self.second_use_pc:
            level2_indices ^= np.asarray(pcs, dtype=np.int64) >> PC_ALIGNMENT_BITS
        if self.second_use_bhr:
            level2_indices ^= np.asarray(bhrs, dtype=np.int64)
        level2_indices &= self._level1_mask
        return self.level2.observe(level2_indices, correct)
