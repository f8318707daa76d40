"""Batched multi-config sweeps: the one confidence-table observer.

Every figure in the paper evaluates a *grid* of confidence-table
configurations — several index functions, register widths, and reduction
functions — over the same predictor streams.  Driving them one at a time
would re-sort and re-reconstruct the stream once per grid point.
:class:`GridObserver` pushes the whole grid through the kernels of
:mod:`repro.sim.chunked` with a leading config axis, and it is the only
observer the experiments use: a single mechanism is a grid of one.

* **One grouped CIR scan for all configurations.**  Each distinct index
  stream is offset into its own disjoint entry range and the
  concatenation is stable-argsorted once
  (:func:`repro.sim.chunked._flatten_and_group`), so one sort serves
  every grid point sharing an index stream.  The shift-register history
  is reconstructed once at the widest requested register; a ``w``-bit
  configuration reads it through ``bit_mask(w)``.  This is exact:
  history bit ``j`` is populated only when the in-group rank exceeds
  ``j``, which is width-independent.  Resetting counters and two-level
  level-2 indices derive from the patterns through the same helpers the
  per-branch paths use.
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
boundaries, so any chunking of the stream gives the same statistics.
The golden suite pins it bit-identical to the single-table observers in
:mod:`repro.sim.chunked` and to the reference engine
(:mod:`repro.sim.engine`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.buckets import BucketStatistics
from repro.core.indexing import IndexFunction
from repro.sim.chunked import (
    InitPatterns,
    StreamChunk,
    _FlatGroups,
    _flatten_and_group,
    _stacked_clamped_walk,
    initial_table,
    level2_indices,
    resetting_counts,
)
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
            table = initial_table(spec.init, entries)
        elif spec.kind == SATURATING:
            table = np.zeros(entries, dtype=np.int64)
        else:
            # Resetting counters start at 0, the all-ones CIR pattern;
            # two-level tables are all-ones at both levels, and level 2
            # spans the CIR space.
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
                    resetting_counts(patterns, spec.width),
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
        return level2_indices(
            cir1, chunk.pcs, chunk.bhrs, spec.width, spec.second_use_pc, spec.second_use_bhr
        )

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
