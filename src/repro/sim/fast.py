"""Whole-trace entry points over the chunk kernels.

Two observations make the paper's experiments cheap without changing any
semantics:

1. **The predictor decouples from the confidence mechanisms.**  Every
   confidence estimator consumes only the streams ``(pc, bhr, correct)``;
   none of them feeds back into the predictor.  So the predictor runs
   once per (trace, configuration) — :func:`predictor_streams`, the
   vectorized chunk sweep of :mod:`repro.sim.chunked` — and its output
   streams are reused by every confidence experiment (see
   :mod:`repro.sim.cache`).

2. **CIR tables are linear shift registers.**  The pattern an access
   reads is fully determined by the previous accesses to the same entry:
   after ``r`` updates with incorrect-bits ``b_1 .. b_r`` (newest last),
   the pattern is ``((P0 << r) | b_r b_{r-1} ... b_1) & mask`` where
   ``P0`` is the entry's initial pattern.  Grouping accesses by entry
   turns per-access pattern reconstruction into ``cir_bits`` vectorized
   shifted gathers — the grouped scan of :mod:`repro.sim.chunked`.

Every function here is a thin caller of those kernels:
:func:`cir_pattern_stream`, :func:`final_cir_patterns` and
:func:`cir_pattern_stream_with_flushes` run
:func:`repro.sim.chunked.table_patterns`; resetting counters
(:func:`resetting_counter_stream`) and two-level tables
(:func:`two_level_pattern_stream`) derive from its patterns; saturating
counters (:func:`saturating_counter_stream`) run the segmented
clamped-walk scan.  Table indices outside the table are a
``ValueError``.

Exact equivalence with :mod:`repro.sim.engine` is asserted by the test
suite, including under hypothesis-generated random traces.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.sim.chunked import (
    InitPatterns,
    SaturatingCounterObserver,
    StreamChunk,
    check_table_indices,
    initial_table,
    iter_trace_chunks,
    lagged_register_stream,
    level2_indices,
    resetting_counts,
    sweep_stream_chunks,
    table_patterns,
)
from repro.traces.trace import Trace
from repro.utils.bits import bit_mask
from repro.utils.validation import check_in_range, check_positive


@dataclass(frozen=True)
class PredictorStreams:
    """Per-branch output streams of one predictor sweep."""

    trace_name: str
    #: Correctness per dynamic branch (uint8; 1 = predicted correctly).
    correct: np.ndarray
    #: Global BHR value seen by each branch (pre-branch), int64.
    bhrs: np.ndarray
    #: Branch PCs (int64 copy of the trace's, for index computation).
    pcs: np.ndarray
    #: Width of the derived global-CIR stream (see :attr:`gcirs`).
    gcir_bits: int = 16

    @property
    def num_branches(self) -> int:
        return int(self.correct.shape[0])

    @property
    def num_mispredicts(self) -> int:
        return int(self.num_branches - self.correct.sum())

    @property
    def misprediction_rate(self) -> float:
        if self.num_branches == 0:
            return 0.0
        return self.num_mispredicts / self.num_branches

    @functools.cached_property
    def gcirs(self) -> np.ndarray:
        """Global-CIR value seen by each branch (derived lazily, then cached).

        The global CIR is the ``gcir_bits``-wide shift register of
        incorrect bits, empty before the first branch.
        """
        incorrect = (self.correct == 0).astype(np.int64)
        return lagged_register_stream(incorrect, 0, self.gcir_bits)


def streams_from_chunks(
    chunks: Iterable[StreamChunk], trace_name: str, gcir_bits: int
) -> PredictorStreams:
    """Join consecutive stream chunks into whole-trace streams.

    ``trace_name`` names the result unless the chunks carry a name.
    """
    correct_parts = []
    bhr_parts = []
    pc_parts = []
    for chunk in chunks:
        trace_name = chunk.trace_name or trace_name
        correct_parts.append(chunk.correct)
        bhr_parts.append(chunk.bhrs)
        pc_parts.append(chunk.pcs)

    def joined(parts, dtype) -> np.ndarray:
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)

    return PredictorStreams(
        trace_name=trace_name,
        correct=joined(correct_parts, np.uint8),
        bhrs=joined(bhr_parts, np.int64),
        pcs=joined(pc_parts, np.int64),
        gcir_bits=gcir_bits,
    )


def predictor_streams(
    trace: Trace,
    entries: int = 1 << 16,
    history_bits: int = 16,
    bhr_record_bits: int = 16,
    gcir_bits: int = 16,
    chunk_size: Optional[int] = None,
) -> PredictorStreams:
    """Run a gshare predictor over ``trace`` and return its streams.

    Semantically identical to driving
    :class:`repro.predictors.gshare.GsharePredictor` through the reference
    engine: the table starts weakly-taken, prediction and training use the
    same pre-branch BHR, and the BHR shifts in the resolved outcome.
    The sweep runs on the vectorized table-state-carrying kernel of
    :mod:`repro.sim.chunked`; ``chunk_size`` bounds the kernel's working
    set (``None`` sweeps the trace as one chunk) and never changes the
    output.

    ``bhr_record_bits`` controls the width of the *recorded* BHR stream
    (confidence tables may use more history bits than the predictor);
    ``gcir_bits`` the width of the lazily derived global-CIR stream.
    ``entries`` must be a power of two.
    """
    chunks = sweep_stream_chunks(
        iter_trace_chunks(trace, chunk_size),
        entries=entries,
        history_bits=history_bits,
        bhr_record_bits=bhr_record_bits,
        gcir_bits=gcir_bits,
    )
    return streams_from_chunks(chunks, trace.name, gcir_bits)


def cir_pattern_stream(
    indices: np.ndarray,
    correct: np.ndarray,
    cir_bits: int,
    init_patterns: InitPatterns = 0,
) -> np.ndarray:
    """Per-access pre-update CIR patterns of a table of shift registers.

    Parameters
    ----------
    indices:
        Table entry accessed by each dynamic branch (int array).
    correct:
        Per-branch correctness (1 = correct); entry shifts in ``1 - correct``.
    cir_bits:
        Register width n.
    init_patterns:
        Either a scalar initial pattern applied to every entry, or an
        array indexed by entry number (e.g. a random initialization),
        which then fixes the table size.

    Returns
    -------
    int64 array: the pattern each access *read* (before its own update).
    """
    check_in_range(cir_bits, 1, 30, "cir_bits")
    indices = np.asarray(indices, dtype=np.int64)
    if isinstance(init_patterns, np.ndarray):
        entries = int(init_patterns.shape[0])
    else:
        entries = int(check_table_indices(indices, None).max(initial=-1)) + 1
    table = initial_table(init_patterns, entries)
    return table_patterns(indices, correct, cir_bits, table)


def two_level_pattern_stream(
    level1_indices: np.ndarray,
    correct: np.ndarray,
    pcs: np.ndarray,
    bhrs: np.ndarray,
    level1_cir_bits: int = 16,
    level2_cir_bits: int = 16,
    second_use_pc: bool = False,
    second_use_bhr: bool = False,
    level1_init: InitPatterns = 0,
    level2_init: InitPatterns = 0,
) -> np.ndarray:
    """Per-access second-level CIR patterns of a two-level mechanism.

    Cascades two grouped scans: the first reconstructs the level-1 CIR
    each access reads; that CIR (optionally XORed with PC and BHR) is the
    level-2 index for both lookup and update, exactly as in
    :class:`repro.core.two_level.TwoLevelConfidence`.
    """
    cir1 = cir_pattern_stream(level1_indices, correct, level1_cir_bits, level1_init)
    level2 = level2_indices(
        cir1, pcs, bhrs, level1_cir_bits, second_use_pc, second_use_bhr
    )
    return cir_pattern_stream(level2, correct, level2_cir_bits, level2_init)


def resetting_counter_stream(
    indices: np.ndarray,
    correct: np.ndarray,
    maximum: int = 16,
    initial: int = 0,
) -> np.ndarray:
    """Per-access pre-update values of a table of resetting counters.

    Uses the CIR equivalence of :func:`repro.sim.chunked.resetting_counts`
    over a ``maximum``-bit CIR table.
    """
    check_in_range(maximum, 1, 30, "maximum")
    check_in_range(initial, 0, maximum, "initial")
    mask = bit_mask(maximum)
    patterns = cir_pattern_stream(indices, correct, maximum, (mask << initial) & mask)
    return resetting_counts(patterns, maximum)


def final_cir_patterns(
    indices: np.ndarray,
    correct: np.ndarray,
    cir_bits: int,
    init_patterns: InitPatterns,
    table_entries: int,
) -> np.ndarray:
    """Per-entry CIR patterns *after* all accesses in the stream.

    Returns an array of ``table_entries`` patterns: entries never accessed
    keep their initial pattern; accessed entries hold the pattern after
    their final update.  Used to carry CT state across simulated context
    switches.
    """
    check_in_range(cir_bits, 1, 30, "cir_bits")
    table = initial_table(init_patterns, table_entries)
    table_patterns(indices, correct, cir_bits, table)
    return table


def cir_pattern_stream_with_flushes(
    indices: np.ndarray,
    correct: np.ndarray,
    cir_bits: int,
    table_entries: int,
    flush_interval: int,
    policy: str,
    base_init: InitPatterns = 0,
) -> np.ndarray:
    """CIR pattern stream under periodic context switches.

    Every ``flush_interval`` dynamic branches the CT is "context switched"
    according to ``policy``:

    * ``reinit`` — reset every entry to ``base_init`` (modelling a full
      flush back to the configured initialization);
    * ``keep`` — leave the table untouched (the paper's unstudied
      alternative);
    * ``keep_lastbit`` — keep entry values but set the oldest bit of every
      CIR (the paper's Section 5.4 conjecture: "leave the CIRs at their
      current values ... except the oldest bit which should be
      initialized at 1").
    """
    if policy not in ("reinit", "keep", "keep_lastbit"):
        raise ValueError(f"unknown flush policy {policy!r}")
    # A non-positive interval would make the segment loop below produce an
    # empty (or never-terminating) stream; reject it up front.
    check_positive(flush_interval, "flush_interval")
    check_in_range(cir_bits, 1, 30, "cir_bits")
    indices = np.asarray(indices, dtype=np.int64)
    correct_arr = np.asarray(correct)
    if indices.shape != correct_arr.shape:
        raise ValueError("indices and correct must have equal length")
    n = indices.shape[0]
    oldest_bit = np.int64(1 << (cir_bits - 1))

    patterns = np.empty(n, dtype=np.int64)
    table = initial_table(base_init, table_entries)
    for start in range(0, n, flush_interval):
        if start and policy == "reinit":
            table = initial_table(base_init, table_entries)
        elif start and policy == "keep_lastbit":
            table |= oldest_bit
        stop = min(start + flush_interval, n)
        patterns[start:stop] = table_patterns(
            indices[start:stop], correct_arr[start:stop], cir_bits, table
        )
    return patterns


def saturating_counter_stream(
    indices: np.ndarray,
    correct: np.ndarray,
    maximum: int = 16,
    initial: int = 0,
    table_entries: Optional[int] = None,
) -> np.ndarray:
    """Per-access pre-update values of a table of saturating counters.

    Saturation is a non-linear recurrence, but the per-step update is a
    clamp-affine function, so the whole table evaluates as one segmented
    clamped-walk scan (:func:`repro.sim.chunked.segmented_clamped_walk`)
    instead of a sequential Python loop.  ``None`` sizes the table to
    the largest index.
    """
    if table_entries is None:
        table_entries = int(check_table_indices(indices, None).max(initial=0)) + 1
    observer = SaturatingCounterObserver(maximum, table_entries, initial)
    return observer.observe(indices, correct)
