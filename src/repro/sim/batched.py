"""Batched multi-config sweep kernels (the config-axis engine).

Every figure in the paper evaluates a *grid* of confidence-table
configurations — several index functions, register widths, and reduction
functions — over the same predictor streams.  Driving them one at a time
would re-sort and re-reconstruct the stream once per grid point.  This
module fuses the whole grid into single numpy passes with a leading
config axis, and it is the only observer the experiments use: a single
mechanism is a grid of one.

* **One flattened grouping for all configurations.**  Each distinct index
  stream is offset into its own disjoint entry range and the
  concatenation is stable-argsorted once.  Because the offset ranges are
  disjoint, every stream's accesses land in a contiguous slice of the
  sorted order with exactly the per-stream group ranks, so one sort
  serves every grid point sharing that index stream.
* **One lagged-shift CIR reconstruction shared by all widths.**  The
  shift-register history is reconstructed once at the widest requested
  register; a ``w``-bit configuration reads it through ``bit_mask(w)``.
  This is exact: history bit ``j`` is populated only when the in-group
  rank exceeds ``j``, which is width-independent.
* **Counter walks stacked as a 2-D clamp-affine scan.**  Saturating
  counters from every configuration are concatenated along the config
  axis and evaluated by a single segmented Hillis-Steele scan with
  per-position clamp bounds — one ``O(N log N)`` scan over (config,
  time) instead of one scan per configuration.
* **Per-config bucket folds peeled off at the end.**  Bucket statistics
  are accumulated directly in the sorted domain (``np.bincount`` is
  order-invariant and the 0/1 float64 sums are exact integers), so no
  scatter back to time order is needed except for the two-level cascade.

:class:`GridObserver` carries all per-entry state across chunk
boundaries, so it composes with the chunked streaming pipeline exactly
like the single-table observers in :mod:`repro.sim.chunked`.  The golden
suite pins it bit-identical to those observers and to the reference
engine (:mod:`repro.sim.engine`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.buckets import BucketStatistics
from repro.core.indexing import IndexFunction, PC_ALIGNMENT_BITS
from repro.sim.chunked import StreamChunk, _group_ranks, _stacked_clamped_walk
from repro.utils.bits import bit_mask
from repro.utils.validation import check_in_range, check_positive

#: Spec kinds, mirroring the experiment runner's statistics helpers.
PATTERN = "pattern"
RESETTING = "resetting"
SATURATING = "saturating"
TWO_LEVEL = "two_level"

SPEC_KINDS = (PATTERN, RESETTING, SATURATING, TWO_LEVEL)

#: Kinds whose table is a shift register (they share the lagged-shift
#: history reconstruction; saturating counters do not need one).
_REGISTER_KINDS = (PATTERN, RESETTING, TWO_LEVEL)

InitPatterns = Union[int, np.ndarray]


@dataclass(frozen=True, eq=False)
class SweepSpec:
    """One grid point of a batched confidence-table sweep.

    ``width`` is the CIR width for ``pattern``/``two_level`` specs and
    the counter maximum for ``resetting``/``saturating`` specs.  ``init``
    is the initial CIR pattern (scalar or per-entry array) of ``pattern``
    specs; counters always start at 0 and two-level tables at all-ones,
    matching the paper's defaults.
    """

    kind: str
    index_function: IndexFunction
    width: int
    init: InitPatterns = 0
    second_use_pc: bool = False
    second_use_bhr: bool = False

    def __post_init__(self) -> None:
        if self.kind not in SPEC_KINDS:
            raise ValueError(
                f"unknown spec kind {self.kind!r}; known kinds: {SPEC_KINDS}"
            )
        if self.kind == SATURATING:
            check_positive(self.width, "width")
        else:
            check_in_range(self.width, 1, 30, "width")
        if isinstance(self.init, np.ndarray):
            expected = (self.index_function.table_entries,)
            if self.init.shape != expected:
                raise ValueError(
                    f"init must cover {expected[0]} entries, "
                    f"got shape {self.init.shape}"
                )

    # ----- constructors matching the runner's statistics helpers -----------

    @classmethod
    def pattern(
        cls,
        index_function: IndexFunction,
        width: int,
        init: Optional[InitPatterns] = None,
    ) -> "SweepSpec":
        """A one-level CIR table (``None`` init = the paper's all-ones)."""
        if init is None:
            init = bit_mask(width)
        return cls(kind=PATTERN, index_function=index_function, width=width, init=init)

    @classmethod
    def resetting(cls, index_function: IndexFunction, maximum: int) -> "SweepSpec":
        """A table of 0..``maximum`` resetting counters (initially 0)."""
        return cls(kind=RESETTING, index_function=index_function, width=maximum)

    @classmethod
    def saturating(cls, index_function: IndexFunction, maximum: int) -> "SweepSpec":
        """A table of 0..``maximum`` saturating counters (initially 0)."""
        return cls(kind=SATURATING, index_function=index_function, width=maximum)

    @classmethod
    def two_level(
        cls,
        index_function: IndexFunction,
        width: int,
        second_use_pc: bool = False,
        second_use_bhr: bool = False,
    ) -> "SweepSpec":
        """A two-level CIR cascade (both levels ``width`` bits, all-ones init)."""
        return cls(
            kind=TWO_LEVEL,
            index_function=index_function,
            width=width,
            second_use_pc=second_use_pc,
            second_use_bhr=second_use_bhr,
        )

    # ----- derived ----------------------------------------------------------

    @property
    def num_buckets(self) -> int:
        """Bucket count of this spec's statistics."""
        if self.kind in (PATTERN, TWO_LEVEL):
            return 1 << self.width
        return self.width + 1

    @property
    def feeds_gcir(self) -> bool:
        """True when the level-1 index actually consumes the GCIR stream.

        Two-level specs always feed their level-1 index a zero
        global-CIR stream; the checked-in report digests depend on it.
        """
        return self.index_function.uses_gcir and self.kind != TWO_LEVEL

    def describe(self) -> Dict:
        """JSON-safe value identity of this grid point (for cache keys)."""
        if isinstance(self.init, np.ndarray):
            digest = hashlib.sha256()
            digest.update(str(self.init.dtype).encode("utf-8"))
            digest.update(str(self.init.shape).encode("utf-8"))
            digest.update(np.ascontiguousarray(self.init).tobytes())
            init: "Union[int, Dict[str, Union[int, str]]]" = {
                "sha256": digest.hexdigest(),
                "entries": int(self.init.shape[0]),
            }
        else:
            init = int(self.init)
        return {
            "kind": self.kind,
            "index": self.index_function.name,
            "index_bits": self.index_function.index_bits,
            "width": self.width,
            "init": init,
            "second_use_pc": self.second_use_pc,
            "second_use_bhr": self.second_use_bhr,
        }


def grid_digest(specs: Sequence[SweepSpec]) -> str:
    """Stable content digest of a whole grid (order-sensitive)."""
    canonical = json.dumps([spec.describe() for spec in specs], sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# Flattened grouping: one stable sort shared by every grid point
# --------------------------------------------------------------------------


@dataclass
class _FlatGroups:
    """Sorted flattened layout of several index streams over one chunk.

    Stream ``u`` of ``n`` accesses occupies flat positions
    ``[u*n, (u+1)*n)`` before sorting; after the stable argsort its
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
        ranks = self.ranks[sl]
        incorrect = self.incorrect_sorted[sl]
        mask = np.int64(bit_mask(width))
        init_sorted = table[entries]
        patterns = ((init_sorted << np.minimum(ranks, width)) & mask) | (
            self.history[sl] & mask
        )
        post = ((patterns << np.int64(1)) | incorrect) & mask
        last = self.is_last[sl]
        table[entries[last]] = post[last]
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
    """One stable argsort + shared history over several index streams.

    ``history_width`` is the widest shift register any consumer needs
    (0 skips the reconstruction entirely, e.g. a saturating-only grid).
    """
    n = int(incorrect.shape[0])
    streams = len(index_streams)
    offsets = np.zeros(streams, dtype=np.int64)
    if streams > 1:
        offsets[1:] = np.cumsum(
            np.asarray(entry_counts[:-1], dtype=np.int64)
        )
    flat = np.empty(streams * n, dtype=np.int64)
    for u, indices in enumerate(index_streams):
        flat[u * n : (u + 1) * n] = indices + offsets[u]
    order = np.argsort(flat, kind="stable")
    sorted_flat = flat[order]
    ranks = _group_ranks(sorted_flat)
    total = sorted_flat.shape[0]
    is_last = np.empty(total, dtype=bool)
    if total:
        is_last[:-1] = sorted_flat[1:] != sorted_flat[:-1]
        is_last[-1] = True
    incorrect_tiled = np.tile(np.asarray(incorrect, dtype=np.int64), streams)
    incorrect_sorted = incorrect_tiled[order]
    history = np.zeros(total, dtype=np.int64)
    for j in range(history_width):
        lagged = np.zeros(total, dtype=np.int64)
        if total > j + 1:
            lagged[j + 1 :] = incorrect_sorted[: total - j - 1]
        history |= np.where(ranks > j, lagged << j, 0)
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


def _resetting_counts(patterns: np.ndarray, maximum: int) -> np.ndarray:
    """Resetting-counter values of CIR patterns (lowest-set-bit index)."""
    lowest = patterns & -patterns
    return np.where(
        patterns == 0,
        maximum,
        np.log2(np.maximum(lowest, 1)).astype(np.int64),
    ).astype(np.int64)


# --------------------------------------------------------------------------
# The grid observer: whole-grid sweep with state carried across chunks
# --------------------------------------------------------------------------


@dataclass
class _SpecState:
    """Mutable per-spec carry: tables and accumulated statistics."""

    table: np.ndarray
    statistics: BucketStatistics
    level2_table: Optional[np.ndarray] = None


class GridObserver:
    """A whole experiment grid consumed chunk by chunk.

    Feed :class:`~repro.sim.chunked.StreamChunk` objects through
    :meth:`observe`; every grid point's table state carries across chunk
    boundaries, so the accumulated :meth:`statistics` are the same for
    any chunking of the stream, and bit-identical to running each spec
    through its single-table observer in :mod:`repro.sim.chunked`.
    """

    def __init__(self, specs: Sequence[SweepSpec]) -> None:
        if not specs:
            raise ValueError("GridObserver needs at least one spec")
        self.specs: Tuple[SweepSpec, ...] = tuple(specs)
        # Distinct level-1 index streams, keyed by value identity: the
        # (name, index_bits) pair pins the index computation and the
        # gcir-feed flag pins its inputs.
        slot_of_key: Dict[Tuple[str, int, bool], int] = {}
        self._stream_builders: List[Tuple[IndexFunction, bool]] = []
        self._slots: List[int] = []
        for spec in self.specs:
            key = (
                spec.index_function.name,
                spec.index_function.index_bits,
                spec.feeds_gcir,
            )
            if key not in slot_of_key:
                slot_of_key[key] = len(self._stream_builders)
                self._stream_builders.append(
                    (spec.index_function, spec.feeds_gcir)
                )
            self._slots.append(slot_of_key[key])
        self._history_width = max(
            (spec.width for spec in self.specs if spec.kind in _REGISTER_KINDS),
            default=0,
        )
        self._level2_width = max(
            (spec.width for spec in self.specs if spec.kind == TWO_LEVEL),
            default=0,
        )
        self._states = [self._initial_state(spec) for spec in self.specs]

    @staticmethod
    def _initial_state(spec: SweepSpec) -> _SpecState:
        entries = spec.index_function.table_entries
        if spec.kind == PATTERN:
            if isinstance(spec.init, np.ndarray):
                table = spec.init.astype(np.int64).copy()
            else:
                table = np.full(entries, int(spec.init), dtype=np.int64)
        elif spec.kind == RESETTING:
            # Counter initial value 0 == the all-ones CIR pattern.
            table = np.full(entries, bit_mask(spec.width), dtype=np.int64)
        elif spec.kind == SATURATING:
            table = np.zeros(entries, dtype=np.int64)
        else:  # TWO_LEVEL: all-ones at both levels, level 2 spans the CIR space.
            table = np.full(entries, bit_mask(spec.width), dtype=np.int64)
        level2 = (
            np.full(1 << spec.width, bit_mask(spec.width), dtype=np.int64)
            if spec.kind == TWO_LEVEL
            else None
        )
        return _SpecState(
            table=table,
            statistics=BucketStatistics.zeros(spec.num_buckets),
            level2_table=level2,
        )

    def _accumulate(
        self, position: int, values: np.ndarray, incorrect: np.ndarray
    ) -> None:
        """Fold one chunk's sorted-domain bucket stream into spec ``position``.

        ``np.bincount`` over 0/1 float64 weights sums exact integers, so
        accumulating in sorted order is bit-identical to a time-order
        fold.
        """
        buckets = self.specs[position].num_buckets
        counts = np.bincount(values, minlength=buckets).astype(np.float64)
        mispredicts = np.bincount(
            values, weights=incorrect.astype(np.float64), minlength=buckets
        )
        self._states[position].statistics = self._states[
            position
        ].statistics + BucketStatistics(counts, mispredicts)

    def observe(self, chunk: StreamChunk) -> None:
        """Advance every grid point through one chunk of predictor streams."""
        n = chunk.num_branches
        if n == 0:
            return
        incorrect = (np.asarray(chunk.correct) == 0).astype(np.int64)
        zero_gcirs: Optional[np.ndarray] = None
        index_streams: List[np.ndarray] = []
        entry_counts: List[int] = []
        for index_function, feed_gcir in self._stream_builders:
            if feed_gcir:
                gcirs = chunk.gcirs
            else:
                if zero_gcirs is None:
                    zero_gcirs = np.zeros(n, dtype=np.int64)
                gcirs = zero_gcirs
            index_streams.append(
                index_function.vectorized(chunk.pcs, chunk.bhrs, gcirs)
            )
            entry_counts.append(index_function.table_entries)
        grouped = _flatten_and_group(
            index_streams, entry_counts, incorrect, self._history_width
        )

        level2_specs: List[int] = []
        level2_streams: List[np.ndarray] = []
        saturating: List[int] = []
        for position, spec in enumerate(self.specs):
            stream = self._slots[position]
            state = self._states[position]
            if spec.kind == PATTERN:
                patterns = grouped.pattern_segment(stream, spec.width, state.table)
                self._accumulate(
                    position, patterns, grouped.incorrect_sorted[grouped.segment(stream)]
                )
            elif spec.kind == RESETTING:
                patterns = grouped.pattern_segment(stream, spec.width, state.table)
                self._accumulate(
                    position,
                    _resetting_counts(patterns, spec.width),
                    grouped.incorrect_sorted[grouped.segment(stream)],
                )
            elif spec.kind == TWO_LEVEL:
                patterns = grouped.pattern_segment(stream, spec.width, state.table)
                level2_specs.append(position)
                level2_streams.append(
                    self._level2_indices(spec, grouped, stream, patterns, chunk)
                )
            else:
                saturating.append(position)

        if saturating:
            self._observe_saturating(saturating, grouped)
        if level2_specs:
            self._observe_level2(level2_specs, level2_streams, incorrect)

    def _level2_indices(
        self,
        spec: SweepSpec,
        grouped: _FlatGroups,
        stream: int,
        patterns: np.ndarray,
        chunk: StreamChunk,
    ) -> np.ndarray:
        """Time-ordered level-2 indices of one two-level grid point."""
        cir1 = np.empty(grouped.n, dtype=np.int64)
        cir1[grouped.time_positions(stream)] = patterns
        if spec.second_use_pc:
            cir1 ^= np.asarray(chunk.pcs, dtype=np.int64) >> PC_ALIGNMENT_BITS
        if spec.second_use_bhr:
            cir1 ^= np.asarray(chunk.bhrs, dtype=np.int64)
        return cir1 & np.int64(bit_mask(spec.width))

    def _observe_saturating(
        self, positions: List[int], grouped: _FlatGroups
    ) -> None:
        """One stacked clamp-affine scan over every saturating grid point."""
        parts_ranks: List[np.ndarray] = []
        parts_deltas: List[np.ndarray] = []
        parts_upper: List[np.ndarray] = []
        parts_init: List[np.ndarray] = []
        entries_parts: List[np.ndarray] = []
        for position in positions:
            spec = self.specs[position]
            stream = self._slots[position]
            sl = grouped.segment(stream)
            incorrect = grouped.incorrect_sorted[sl]
            entries = grouped.sorted_flat[sl] - grouped.offsets[stream]
            parts_ranks.append(grouped.ranks[sl])
            parts_deltas.append(np.where(incorrect == 0, 1, -1).astype(np.int64))
            parts_upper.append(
                np.full(grouped.n, spec.width, dtype=np.int64)
            )
            parts_init.append(self._states[position].table[entries])
            entries_parts.append(entries)
        pre, post = _stacked_clamped_walk(
            np.concatenate(parts_ranks),
            np.concatenate(parts_deltas),
            0,
            np.concatenate(parts_upper),
            np.concatenate(parts_init),
        )
        for k, position in enumerate(positions):
            stream = self._slots[position]
            sl = slice(k * grouped.n, (k + 1) * grouped.n)
            self._accumulate(
                position,
                pre[sl],
                grouped.incorrect_sorted[grouped.segment(stream)],
            )
            last = grouped.is_last[grouped.segment(stream)]
            table = self._states[position].table
            table[entries_parts[k][last]] = post[sl][last]

    def _observe_level2(
        self,
        positions: List[int],
        streams: List[np.ndarray],
        incorrect: np.ndarray,
    ) -> None:
        """Second grouped round: the level-2 tables of two-level specs."""
        grouped = _flatten_and_group(
            streams,
            [1 << self.specs[position].width for position in positions],
            incorrect,
            self._level2_width,
        )
        for k, position in enumerate(positions):
            spec = self.specs[position]
            state = self._states[position]
            assert state.level2_table is not None
            patterns = grouped.pattern_segment(k, spec.width, state.level2_table)
            self._accumulate(
                position, patterns, grouped.incorrect_sorted[grouped.segment(k)]
            )

    def statistics(self) -> List[BucketStatistics]:
        """Accumulated bucket statistics, one per spec, in spec order."""
        return [state.statistics for state in self._states]
