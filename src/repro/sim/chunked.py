"""Chunked streaming simulation core and the one confidence-table kernel.

The predictor sweep and every confidence table are consumed as a
generator of fixed-size chunks, so peak memory is bounded by the *chunk*
size rather than the trace length: all table state (the gshare counter
table and BHR, CIR tables, saturating-counter tables) carries across
chunk boundaries, and per-chunk bucket streams fold into running
statistics.  Because every mechanism in the paper is causal — each
access depends only on earlier accesses to the same entry — cutting the
stream at arbitrary boundaries and re-seeding the next chunk with the
carried state reproduces the whole-trace streams *bit for bit*; the
golden-equivalence tests assert exactly that for chunk sizes down to 1.

Two kernels do all the work, and every other entry point in
:mod:`repro.sim` is a thin caller of them:

* **The grouped CIR scan** (:func:`_flatten_and_group`,
  :meth:`_FlatGroups.pattern_segment`).  CIR tables are linear shift
  registers: the pattern an access reads is the last ``n`` incorrect
  bits recorded at its entry, shifted over the entry's initial pattern.
  One packed-key sort (:func:`_sort_groups`: each key carries its
  position in its low bits, so a plain ``np.sort`` gives the stable
  order) groups the accesses of one or several index streams by entry,
  and one shift register over the sorted stream (:func:`shift_register`,
  ``ceil(log2 n)`` doubling passes), masked per access to its first
  ``min(rank, n)`` bits, rebuilds every access's history at once.
  :class:`repro.sim.batched.GridObserver` runs a whole grid through
  it; :func:`table_patterns` is its one-stream entry, behind
  :mod:`repro.sim.fast` and the chunk observers below.  Resetting counters (:func:`resetting_counts`) and
  two-level tables (:func:`level2_indices`) derive from its output.
* **The segmented clamped walk** (:func:`_stacked_clamped_walk`).  The
  gshare 2-bit counters and saturating confidence counters both follow
  ``x -> min(hi, max(lo, x + d))``, a *clamp-affine* function
  ``x -> min(U, max(L, x + s))``, and clamp-affine functions are closed
  under composition::

      (later ∘ earlier): s = s1 + s2
                         L = max(l2, l1 + s2)
                         U = min(u2, max(l2, u1 + s2))

  so the per-entry prefix compositions reduce to a segmented
  Hillis-Steele scan — ``O(n log n)`` vectorized work instead of a
  sequential Python loop, each doubling pass composing int32 slices in
  place (exact within ``±2**30``, :data:`SCAN_LIMIT`).  The BHR and
  global-CIR streams the gshare sweep needs are shift registers of the
  outcome and incorrect bits (:func:`lagged_register_stream`, the same
  doubling as the history); the BHR shifts in the *resolved outcome*, so
  it never depends on the predictions, which makes the per-branch table
  index fully vectorizable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

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

#: Exclusive magnitude limit of the int32 clamp-affine scan: bounds and
#: initial values lie within ``(-SCAN_LIMIT, SCAN_LIMIT)``, and
#: ``±SCAN_LIMIT`` itself is the "no clamp yet" sentinel of the identity.
SCAN_LIMIT = 1 << 30

#: Widest shift register the int64 shift-register kernels support.
MAX_REGISTER_BITS = 62

#: ``_LOW_MASKS[w] == bit_mask(w)`` for every register width ``w``.
_LOW_MASKS = (np.int64(1) << np.arange(MAX_REGISTER_BITS + 1, dtype=np.int64)) - 1

#: Bit positions ``0..MAX_REGISTER_BITS - 1``.
_POSITIONS = np.arange(MAX_REGISTER_BITS, dtype=np.int64)


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


def check_table_indices(indices: np.ndarray, entries: Optional[int]) -> np.ndarray:
    """``indices`` as int64; ``ValueError`` if one lies outside the table.

    ``entries`` is the table size, or ``None`` for a table sized to fit
    its largest index (then only negative indices are rejected).
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size:
        low, high = int(indices.min()), int(indices.max())
        if entries is None and low < 0:
            raise ValueError(f"table index {low} is negative")
        if entries is not None and not 0 <= low <= high < entries:
            bad = low if low < 0 else high
            raise ValueError(f"table index {bad} is outside a {entries}-entry table")
    return indices


InitPatterns = Union[int, np.ndarray]


def initial_table(init_patterns: InitPatterns, table_entries: int) -> np.ndarray:
    """A fresh int64 table from a scalar or per-entry initial pattern."""
    if isinstance(init_patterns, np.ndarray):
        table = init_patterns.astype(np.int64)
        if table.shape != (table_entries,):
            raise ValueError(
                f"init_patterns must cover {table_entries} entries, "
                f"got shape {table.shape}"
            )
        return table
    return np.full(table_entries, int(init_patterns), dtype=np.int64)


# --------------------------------------------------------------------------
# Grouping by table entry and the segmented clamped-walk scan
# --------------------------------------------------------------------------


def _sort_groups(
    keys: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One packed-key sort of ``keys``, grouped by equal key.

    Each key is shifted left past the bits of a position and the
    position ORed in, so every packed value is unique and one plain
    ``np.sort`` yields exactly the order a stable argsort would, with
    the sorted keys and the order read back from the high and low bits.
    Keys are table indices: non-negative and below ``streams * 2**30``
    (index and register widths are at most 30 bits), so a packed value
    fits in 63 bits unless ``keys`` holds about ``2**31`` accesses
    (16 GiB of int64) — far beyond any chunk.  The int32 clamped walk
    that consumes these groups has the tighter limit: it raises
    ``ValueError`` once a group's ``±1`` steps could sum to ``2**30``
    (:data:`SCAN_LIMIT`, see :func:`_stacked_clamped_walk`).

    Returns ``(order, sorted_keys, ranks, is_last)``: each sorted
    position's rank within its (contiguous) group, and a mask of each
    group's final access — the one whose post-update value the table
    keeps.
    """
    n = keys.shape[0]
    shift = max(n - 1, 1).bit_length()
    packed = keys << shift
    packed |= np.arange(n, dtype=np.int64)
    packed.sort()
    order = packed & np.int64(bit_mask(shift))
    sorted_keys = packed >> shift
    if n == 0:
        return order, sorted_keys, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
    boundary = sorted_keys[1:] != sorted_keys[:-1]
    group_starts = np.flatnonzero(np.concatenate(([True], boundary)))
    group_sizes = np.diff(np.append(group_starts, n))
    ranks = np.arange(n, dtype=np.int64) - np.repeat(group_starts, group_sizes)
    is_last = np.append(boundary, True)
    return order, sorted_keys, ranks, is_last


def _stacked_clamped_walk(
    ranks: np.ndarray,
    deltas: np.ndarray,
    lo: int,
    upper_bounds: Union[int, np.ndarray],
    init_sorted: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Segmented clamped walk over already-grouped sorted segments.

    ``ranks`` is each position's rank within its (contiguous) group, as
    from :func:`_sort_groups`; the clamp upper bound may vary per
    position, so several configurations with different counter maxima
    can be stacked into one scan.  The clamp-affine composition is
    element-wise, so windows never leak across groups: rank-0 positions
    seed the identity, and each pass composes a position whose rank is
    below the offset with the identity instead of the window before it.

    The scan arrays are int32, half the memory traffic of int64, with
    ``±2**30`` as the identity's "no clamp" bounds.  It is exact while
    every bound and initial value lies within ``(-2**30, 2**30)`` and no
    group's steps sum to ``2**30`` (a walk of ``±1`` steps shorter than
    ``2**30`` accesses): every composed bound is then a bound plus a
    partial step sum, within ``±(2**31 - 1)``.  Outside that range it
    raises ``ValueError``.

    Returns ``(pre, post)`` in the same sorted order (int64): the value
    each access read, and the value it wrote.
    """
    total = ranks.shape[0]
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    max_rank = int(ranks.max())
    bounds = np.asarray(upper_bounds)
    extremes = (lo, bounds.min(), bounds.max(), init_sorted.min(), init_sorted.max())
    step = max(int(deltas.max()), -int(deltas.min()), 1)
    if max(abs(int(value)) for value in extremes) >= SCAN_LIMIT or (
        max_rank * step >= SCAN_LIMIT
    ):
        raise ValueError(
            f"clamped walk outside the int32 scan: bounds and initial values "
            f"must lie within (-{SCAN_LIMIT}, {SCAN_LIMIT}) and a group's steps "
            f"sum below {SCAN_LIMIT}"
        )
    # Exclusive prefix composition per group: position of rank r carries
    # the composition of the steps of ranks 0..r-1.  Seed each position
    # with its *predecessor's* step (rank 0 gets the identity), then run
    # an inclusive segmented scan.  Selections are 0/1 arithmetic, not
    # masked copies: ``has_step`` is 1 past a group's first access.
    sentinel = np.int32(SCAN_LIMIT)
    ranks = ranks.astype(np.int32)
    has_step = np.minimum(ranks, np.int32(1))
    shift = np.zeros(total, dtype=np.int32)
    shift[1:] = deltas[:-1]
    shift *= has_step
    lower = has_step * np.int32(lo + SCAN_LIMIT) - sentinel
    upper = has_step * (bounds.astype(np.int32) - sentinel) + sentinel

    offset, level = 1, 0
    while offset <= max_rank:
        # Compose (this ∘ earlier): the earlier window applies first.  An
        # earlier window from another group (rank < offset) is replaced by
        # the identity, which leaves this window's function unchanged on
        # every value a walk can hold.  The slices alias, so every
        # composition is built before any position is overwritten.
        in_group = np.minimum(ranks[offset:] >> np.int32(level), np.int32(1))
        no_clamp = (np.int32(1) - in_group) * sentinel
        shift_now, lower_now, upper_now = shift[offset:], lower[offset:], upper[offset:]
        earlier_lower = lower[:-offset] * in_group - no_clamp
        earlier_upper = upper[:-offset] * in_group + no_clamp
        composed_lower = np.maximum(lower_now, earlier_lower + shift_now)
        composed_upper = np.minimum(
            upper_now, np.maximum(lower_now, earlier_upper + shift_now)
        )
        shift_now += shift[:-offset] * in_group
        lower_now[...] = composed_lower
        upper_now[...] = composed_upper
        offset <<= 1
        level += 1

    reached = np.maximum(lower, init_sorted.astype(np.int32) + shift)
    pre = np.minimum(upper, reached).astype(np.int64)
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
        Clamp bounds of every entry, within ``(-2**30, 2**30)`` (the
        int32 scan's range, :data:`SCAN_LIMIT`).
    init_values:
        Per-entry starting values (one per table entry).

    Returns
    -------
    ``(pre_values, final_values)``: the value each access *read* (before
    its own update), and a fresh copy of the table after all updates —
    the carry for the next chunk.
    """
    check_in_range(lo, 1 - SCAN_LIMIT, SCAN_LIMIT - 1, "lo")
    check_in_range(hi, 1 - SCAN_LIMIT, SCAN_LIMIT - 1, "hi")
    indices = np.asarray(indices, dtype=np.int64)
    deltas = np.asarray(deltas, dtype=np.int64)
    if indices.shape != deltas.shape:
        raise ValueError("indices and deltas must have equal length")
    n = indices.shape[0]
    finals = np.asarray(init_values, dtype=np.int64).copy()
    if n == 0:
        return np.zeros(0, dtype=np.int64), finals

    order, sorted_indices, ranks, is_last = _sort_groups(indices)
    pre_sorted, post_sorted = _stacked_clamped_walk(
        ranks, deltas[order], lo, hi, finals[sorted_indices]
    )
    pre_values = np.empty(n, dtype=np.int64)
    pre_values[order] = pre_sorted
    finals[sorted_indices[is_last]] = post_sorted[is_last]
    return pre_values, finals


# --------------------------------------------------------------------------
# The grouped CIR scan: one packed-key sort shared by every index stream
# --------------------------------------------------------------------------


@dataclass
class _FlatGroups:
    """Sorted flattened layout of several index streams over one chunk.

    Stream ``u`` of ``n`` accesses occupies flat positions
    ``[u*n, (u+1)*n)`` before sorting; after the packed-key sort its
    accesses occupy the *sorted* slice ``[u*n, (u+1)*n)`` as well,
    because the per-stream entry offsets are disjoint and cumulative.
    Within that slice, time order and group ranks are exactly those of a
    per-stream sort.
    """

    n: int
    offsets: np.ndarray
    order: np.ndarray
    sorted_flat: np.ndarray
    ranks: np.ndarray
    is_last: np.ndarray
    incorrect_sorted: np.ndarray
    history: np.ndarray
    history_width: int

    def segment(self, stream: int) -> slice:
        """Sorted-domain slice holding stream ``stream``'s accesses."""
        return slice(stream * self.n, (stream + 1) * self.n)

    def pattern_segment(
        self, stream: int, width: int, table: np.ndarray
    ) -> np.ndarray:
        """Pre-update ``width``-bit patterns of one stream, sorted order.

        Reads the shared history through ``bit_mask(width)`` and applies
        the per-entry initial patterns carried in ``table``; ``table`` is
        advanced in place to the post-chunk state (the last access of
        each entry publishes its post-update pattern).
        """
        check_in_range(width, 1, self.history_width, "width")
        sl = self.segment(stream)
        entries = self.sorted_flat[sl] - self.offsets[stream]
        mask = np.int64(bit_mask(width))
        patterns = table[entries] << np.minimum(self.ranks[sl], width)
        patterns |= self.history[sl]
        patterns &= mask
        # Only each entry's last access publishes its post-update pattern.
        last = self.is_last[sl]
        incorrect = self.incorrect_sorted[sl][last]
        table[entries[last]] = ((patterns[last] << np.int64(1)) | incorrect) & mask
        return patterns

    def time_positions(self, stream: int) -> np.ndarray:
        """Original time index of each sorted position of one stream."""
        return self.order[self.segment(stream)] - np.int64(stream * self.n)


def _flatten_and_group(
    index_streams: Sequence[np.ndarray],
    entry_counts: Sequence[int],
    incorrect: np.ndarray,
    history_width: int,
) -> _FlatGroups:
    """One packed-key sort + shared history over several index streams.

    ``history_width`` is the widest shift register any consumer needs
    (0 skips the reconstruction entirely, e.g. a saturating-only grid).
    """
    n = int(incorrect.shape[0])
    streams = len(index_streams)
    offsets = np.zeros(streams, dtype=np.int64)
    offsets[1:] = np.cumsum(np.asarray(entry_counts[:-1], dtype=np.int64))
    flat = np.empty(streams * n, dtype=np.int64)
    for u, indices in enumerate(index_streams):
        flat[u * n : (u + 1) * n] = indices + offsets[u]
    order, sorted_flat, ranks, is_last = _sort_groups(flat)
    incorrect_sorted = np.tile(np.asarray(incorrect, dtype=np.int64), streams)[order]
    # History bit j of an access is the incorrect bit of the access j+1
    # places earlier in sorted order, kept only when that access belongs
    # to the same entry (``ranks > j``): one register over the whole
    # sorted stream, masked per position to its first ``min(rank, W)`` bits.
    history = shift_register(incorrect_sorted, history_width)
    if history_width:
        history &= _LOW_MASKS[np.minimum(ranks, history_width)]
    return _FlatGroups(
        n=n,
        offsets=offsets,
        order=order,
        sorted_flat=sorted_flat,
        ranks=ranks,
        is_last=is_last,
        incorrect_sorted=incorrect_sorted,
        history=history,
        history_width=history_width,
    )


def table_patterns(
    indices: np.ndarray, correct: np.ndarray, width: int, table: np.ndarray
) -> np.ndarray:
    """Time-ordered pre-update patterns of one ``width``-bit CIR table.

    The one-stream entry to the grouped scan.  ``table`` (int64, one
    pattern per entry) holds the patterns before the stream and is
    advanced in place to the patterns after it; an index outside it is a
    ``ValueError``.
    """
    indices = check_table_indices(indices, table.shape[0])
    incorrect = (np.asarray(correct) == 0).astype(np.int64)
    if indices.shape != incorrect.shape:
        raise ValueError("indices and correct must have equal length")
    grouped = _flatten_and_group([indices], [table.shape[0]], incorrect, width)
    patterns = np.empty(grouped.n, dtype=np.int64)
    patterns[grouped.order] = grouped.pattern_segment(0, width, table)
    return patterns


def resetting_counts(patterns: np.ndarray, maximum: int) -> np.ndarray:
    """Resetting-counter values of ``maximum``-bit CIR patterns.

    A resetting counter is the index of the lowest set bit of a
    wide-enough CIR (``maximum`` when the CIR is all zeros); an initial
    counter value ``c`` corresponds to the initial pattern
    ``(all-ones << c)``.
    """
    lowest = patterns & -patterns
    return np.where(
        patterns == 0,
        maximum,
        np.log2(np.maximum(lowest, 1)).astype(np.int64),
    ).astype(np.int64)


def level2_indices(
    level1_patterns: np.ndarray,
    pcs: np.ndarray,
    bhrs: np.ndarray,
    width: int,
    second_use_pc: bool,
    second_use_bhr: bool,
) -> np.ndarray:
    """Time-ordered level-2 indices of a two-level mechanism.

    The level-1 CIR each access read, optionally XORed with its PC
    (alignment bits dropped) and BHR, masked to ``width`` bits — the
    lookup and update index of
    :class:`repro.core.two_level.TwoLevelConfidence`.
    """
    indices = np.array(level1_patterns, dtype=np.int64)
    if second_use_pc:
        indices ^= np.asarray(pcs, dtype=np.int64) >> PC_ALIGNMENT_BITS
    if second_use_bhr:
        indices ^= np.asarray(bhrs, dtype=np.int64)
    indices &= np.int64(bit_mask(width))
    return indices


# --------------------------------------------------------------------------
# Shift-register streams with carry (BHR / global CIR across chunks)
# --------------------------------------------------------------------------


def shift_register(bits: np.ndarray, width: int) -> np.ndarray:
    """``values[t] = sum_j bits[t-1-j] << j`` over ``j < width`` (zero before 0).

    The pre-position values of a ``width``-bit shift register fed by the
    0/1 stream ``bits`` from an all-zero start, built by doubling: with
    ``R_k`` the register of the last ``k`` bits, ``R_2k[t] = R_k[t] |
    R_k[t-k] << k``, so ``ceil(log2 width)`` shift-OR passes replace one
    pass per bit.  The last pass masks its source to the ``width - span``
    bits still missing, so no intermediate sets bit 63 at widths up to
    :data:`MAX_REGISTER_BITS`.
    """
    check_in_range(width, 0, MAX_REGISTER_BITS, "width")
    bits = np.asarray(bits, dtype=np.int64)
    m = bits.shape[0]
    values = np.zeros(m, dtype=np.int64)
    if width == 0 or m < 2:
        return values
    values[1:] = bits[:-1]
    span = 1
    while span < width and span < m:
        source = values[:-span]
        if 2 * span > width:
            source = source & np.int64(bit_mask(width - span))
        values[span:] |= source << np.int64(span)
        span <<= 1
    return values


def lagged_register_stream(bits: np.ndarray, carry: int, width: int) -> np.ndarray:
    """Pre-position values of a ``width``-bit shift register fed by ``bits``.

    Position ``t`` sees the register *before* ``bits[t]`` shifts in:
    bit ``j`` is ``bits[t - 1 - j]``, falling back to ``carry`` (the
    register value entering this chunk) for positions near the start:
    position ``t < width`` also holds the low ``width - t`` carry bits
    shifted up by ``t``.
    """
    values = shift_register(bits, width)
    k = min(values.shape[0], width)
    if k:
        # Position t keeps the carry's low ``width - t`` bits, shifted up by t.
        low_bits = _LOW_MASKS[width : width - k : -1]
        values[:k] |= (np.int64(int(carry) & bit_mask(width)) & low_bits) << _POSITIONS[:k]
    return values


def register_carry_out(bits: np.ndarray, carry: int, width: int) -> int:
    """The register value after all of ``bits`` shifted in (next chunk's carry)."""
    check_in_range(width, 0, MAX_REGISTER_BITS, "width")
    bits = np.asarray(bits, dtype=np.int64)
    m = bits.shape[0]
    k = min(m, width)
    tail = bits[m - k :] << _POSITIONS[k - 1 :: -1] if k else bits[:0]
    packed = int(np.bitwise_or.reduce(tail))
    return ((int(carry) << k) | packed) & bit_mask(width)


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

    def __init__(
        self, cir_bits: int, table_entries: int, init_patterns: InitPatterns
    ) -> None:
        check_in_range(cir_bits, 1, 30, "cir_bits")
        check_positive(table_entries, "table_entries")
        self.cir_bits = cir_bits
        self.table_entries = table_entries
        self.patterns = initial_table(init_patterns, table_entries)

    def observe(self, indices: np.ndarray, correct: np.ndarray) -> np.ndarray:
        """Patterns read by this chunk's accesses; advances the table."""
        return table_patterns(indices, correct, self.cir_bits, self.patterns)


class ResettingCounterObserver:
    """Chunked resetting counters (via the CIR equivalence)."""

    def __init__(self, maximum: int, table_entries: int, initial: int = 0) -> None:
        check_in_range(maximum, 1, 30, "maximum")
        check_in_range(initial, 0, maximum, "initial")
        mask = bit_mask(maximum)
        self.maximum = maximum
        self._cir = CIRTableObserver(maximum, table_entries, (mask << initial) & mask)

    def observe(self, indices: np.ndarray, correct: np.ndarray) -> np.ndarray:
        return resetting_counts(self._cir.observe(indices, correct), self.maximum)


class SaturatingCounterObserver:
    """Chunked saturating counters (segmented clamped-walk kernel)."""

    def __init__(self, maximum: int, table_entries: int, initial: int = 0) -> None:
        check_in_range(maximum, 1, SCAN_LIMIT - 1, "maximum")
        check_in_range(initial, 0, maximum, "initial")
        check_positive(table_entries, "table_entries")
        self.maximum = maximum
        self.table = np.full(table_entries, initial, dtype=np.int64)

    def observe(self, indices: np.ndarray, correct: np.ndarray) -> np.ndarray:
        indices = check_table_indices(indices, self.table.shape[0])
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

    def observe(
        self,
        level1_indices: np.ndarray,
        correct: np.ndarray,
        pcs: np.ndarray,
        bhrs: np.ndarray,
    ) -> np.ndarray:
        cir1 = self.level1.observe(level1_indices, correct)
        level2 = level2_indices(
            cir1, pcs, bhrs, self.level1.cir_bits, self.second_use_pc, self.second_use_bhr
        )
        return self.level2.observe(level2, correct)
