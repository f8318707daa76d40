"""The fast simulation path for full-scale experiments.

Two observations make the paper's experiments cheap without changing any
semantics:

1. **The predictor decouples from the confidence mechanisms.**  Every
   confidence estimator consumes only the streams ``(pc, bhr, correct)``;
   none of them feeds back into the predictor.  So the predictor runs
   once per (trace, configuration) — :func:`predictor_streams`, a tight
   sequential loop — and its output streams are reused by every
   confidence experiment (see :mod:`repro.sim.cache`).

2. **CIR tables are linear shift registers.**  The pattern an access
   reads is fully determined by the previous accesses to the same entry:
   after ``r`` updates with incorrect-bits ``b_1 .. b_r`` (newest last),
   the pattern is ``((P0 << r) | b_r b_{r-1} ... b_1) & mask`` where
   ``P0`` is the entry's initial pattern.  Grouping accesses by entry
   (one stable argsort) turns per-access pattern reconstruction into
   ``cir_bits`` vectorized shifted gathers — :func:`cir_pattern_stream`.

Resetting counters are a pure function of the (wide-enough) CIR, so they
ride the same machinery; saturating counters genuinely need a sequential
scan (:func:`saturating_counter_stream`).  Two-level tables cascade two
grouped scans (:func:`two_level_pattern_stream`).

Exact equivalence with :mod:`repro.sim.engine` is asserted by the test
suite, including under hypothesis-generated random traces.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.indexing import PC_ALIGNMENT_BITS
from repro.sim.chunked import _group_ranks, segmented_clamped_walk, sweep_streams
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
        incorrect bits; its pre-branch value for branch t is built from
        branches t-1, t-2, ... — i.e. bit j is the incorrect bit of
        branch ``t - 1 - j``, which makes the whole stream a stack of
        lagged shifts rather than a sequential scan.
        """
        n = self.num_branches
        incorrect = (self.correct == 0).astype(np.int64)
        values = np.zeros(n, dtype=np.int64)
        for j in range(self.gcir_bits):
            if n > j + 1:
                values[j + 1:] |= incorrect[: n - j - 1] << j
        return values


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
    """
    index_mask = entries - 1
    if entries & index_mask:
        raise ValueError(f"entries must be a power of two, got {entries}")
    return sweep_streams(
        trace,
        entries=entries,
        history_bits=history_bits,
        bhr_record_bits=bhr_record_bits,
        gcir_bits=gcir_bits,
        chunk_size=chunk_size,
    )


InitPatterns = Union[int, np.ndarray]


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
        array indexed by entry number (e.g. a random initialization).

    Returns
    -------
    int64 array: the pattern each access *read* (before its own update).
    """
    check_in_range(cir_bits, 1, 30, "cir_bits")
    indices = np.asarray(indices, dtype=np.int64)
    correct_arr = np.asarray(correct)
    if indices.shape != correct_arr.shape:
        raise ValueError("indices and correct must have equal length")
    n = indices.shape[0]
    mask = bit_mask(cir_bits)

    order = np.argsort(indices, kind="stable")
    sorted_indices = indices[order]
    incorrect_sorted = (correct_arr[order] == 0).astype(np.int64)
    ranks = _group_ranks(sorted_indices)

    history_bits = np.zeros(n, dtype=np.int64)
    for j in range(cir_bits):
        lagged = np.zeros(n, dtype=np.int64)
        if n > j + 1:
            lagged[j + 1:] = incorrect_sorted[: n - j - 1]
        history_bits |= np.where(ranks > j, lagged << j, 0)

    if isinstance(init_patterns, np.ndarray):
        initial = init_patterns.astype(np.int64)[sorted_indices]
    else:
        initial = np.full(n, int(init_patterns), dtype=np.int64)
    shift = np.minimum(ranks, cir_bits)
    init_part = (initial << shift) & mask

    patterns_sorted = init_part | history_bits
    patterns = np.empty(n, dtype=np.int64)
    patterns[order] = patterns_sorted
    return patterns


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
    level2_indices = cir1.copy()
    if second_use_pc:
        level2_indices ^= np.asarray(pcs, dtype=np.int64) >> PC_ALIGNMENT_BITS
    if second_use_bhr:
        level2_indices ^= np.asarray(bhrs, dtype=np.int64)
    level2_indices &= bit_mask(level1_cir_bits)
    return cir_pattern_stream(level2_indices, correct, level2_cir_bits, level2_init)


def resetting_counter_stream(
    indices: np.ndarray,
    correct: np.ndarray,
    maximum: int = 16,
    initial: int = 0,
) -> np.ndarray:
    """Per-access pre-update values of a table of resetting counters.

    Uses the CIR equivalence: a resetting counter equals the index of the
    lowest set bit of a ``maximum``-bit CIR (saturating when the CIR is
    all zeros).  An initial counter value ``c`` corresponds to the initial
    pattern ``(all-ones << c)``.
    """
    check_in_range(maximum, 1, 30, "maximum")
    check_in_range(initial, 0, maximum, "initial")
    mask = bit_mask(maximum)
    init_pattern = (mask << initial) & mask
    patterns = cir_pattern_stream(indices, correct, maximum, init_pattern)
    lowest = patterns & -patterns
    counts = np.where(
        patterns == 0,
        maximum,
        np.log2(np.maximum(lowest, 1)).astype(np.int64),
    )
    return counts.astype(np.int64)


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
    mask = bit_mask(cir_bits)
    if isinstance(init_patterns, np.ndarray):
        finals = init_patterns.astype(np.int64).copy()
        if finals.shape != (table_entries,):
            raise ValueError(
                f"init_patterns must cover {table_entries} entries, "
                f"got shape {finals.shape}"
            )
    else:
        finals = np.full(table_entries, int(init_patterns), dtype=np.int64)
    if indices.shape[0] == 0:
        return finals
    pre_patterns = cir_pattern_stream(indices, correct, cir_bits, init_patterns)
    incorrect = (np.asarray(correct) == 0).astype(np.int64)
    post_patterns = ((pre_patterns << 1) | incorrect) & mask
    # The last occurrence of each entry wins; np assignment applies in
    # order, so later positions overwrite earlier ones.
    finals[np.asarray(indices, dtype=np.int64)] = post_patterns
    return finals


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
    indices = np.asarray(indices, dtype=np.int64)
    correct_arr = np.asarray(correct)
    n = indices.shape[0]
    oldest_bit = 1 << (cir_bits - 1)

    patterns = np.empty(n, dtype=np.int64)
    if isinstance(base_init, np.ndarray):
        current_init: InitPatterns = base_init.astype(np.int64)
    else:
        current_init = int(base_init)
    for start in range(0, n, flush_interval):
        stop = min(start + flush_interval, n)
        segment_indices = indices[start:stop]
        segment_correct = correct_arr[start:stop]
        patterns[start:stop] = cir_pattern_stream(
            segment_indices, segment_correct, cir_bits, current_init
        )
        if stop == n:
            break
        if policy == "reinit":
            continue  # current_init stays the base initialization
        finals = final_cir_patterns(
            segment_indices, segment_correct, cir_bits, current_init, table_entries
        )
        if policy == "keep_lastbit":
            finals |= oldest_bit
        current_init = finals
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
    instead of a sequential Python loop.
    """
    check_positive(maximum, "maximum")
    check_in_range(initial, 0, maximum, "initial")
    indices = np.asarray(indices, dtype=np.int64)
    correct_arr = np.asarray(correct)
    n = indices.shape[0]
    if table_entries is None:
        table_entries = int(indices.max(initial=0)) + 1 if n else 1
    deltas = np.where(correct_arr != 0, 1, -1)
    init_values = np.full(table_entries, initial, dtype=np.int64)
    values, _ = segmented_clamped_walk(indices, deltas, 0, maximum, init_values)
    return values
