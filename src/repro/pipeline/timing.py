"""The pipeline timing models over precomputed predictor streams.

Timing never feeds back into prediction or confidence: a branch's
correctness and its low-confidence signal are fixed by the trace, the
predictor, and the confidence table alone.  So each thread's
``correct`` and ``low`` streams can come from the cached predictor
sweep (:mod:`repro.sim.cache`) and the vectorized counter tables
(:mod:`repro.sim.fast`), and only the fetch/resolve recurrence stays a
sequential loop.

:func:`frontend_timing` and :func:`smt_timing` copy the recurrences of
:meth:`~repro.pipeline.machine.SpeculativeFrontend.run` and
:func:`~repro.pipeline.smt.simulate_smt` line for line, with the
``predict`` / ``update`` / ``signal`` calls replaced by stream reads and
the floating-point operations in the same order, so every report field
is exactly equal to the object model's.  The object models stay as the
oracle the test suite checks these against.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.pipeline.machine import FrontendConfig, FrontendReport
from repro.pipeline.smt import SMTReport

#: One SMT thread: branch PCs, per-branch correctness (1 = predicted
#: correctly), and the per-branch low-confidence flag.
ThreadStreams = Tuple[np.ndarray, np.ndarray, np.ndarray]


def block_sizes(config: FrontendConfig, pcs: np.ndarray) -> np.ndarray:
    """:meth:`FrontendConfig.block_size` of every branch at once."""
    pcs = np.asarray(pcs, dtype=np.int64)
    return config.min_block + (pcs >> 2) % config.block_spread + 1


def frontend_timing(
    config: FrontendConfig,
    pcs: np.ndarray,
    correct: np.ndarray,
    low: Optional[np.ndarray] = None,
) -> FrontendReport:
    """:class:`~repro.pipeline.machine.SpeculativeFrontend` over streams.

    ``low`` flags the branches whose confidence signal is LOW; with
    ``None`` the frontend never forks (no dual-path policy), otherwise
    a flagged branch forks when no fork is outstanding.
    """
    width = float(config.fetch_width)
    resolve_latency = float(config.resolve_latency)
    redirect_penalty = float(config.redirect_penalty)

    clock = 0.0                  # fetch-time in cycles (fractional)
    retired = 0
    squashed = 0.0
    mispredictions = 0
    forks = 0
    covered = 0
    #: Resolution time of the currently outstanding fork, if any.
    fork_resolves_at: Optional[float] = None

    alternate_width = float(config.alternate_width)
    primary_loss = float(config.fork_primary_loss)

    blocks = block_sizes(config, pcs).tolist()
    corrects = np.asarray(correct).tolist()
    # Without a dual-path policy no branch reads LOW, so none forks.
    lows: Iterable[bool] = (
        itertools.repeat(False) if low is None else np.asarray(low).tolist()
    )
    for block, correct_bit, low_bit in zip(blocks, corrects, lows):
        if fork_resolves_at is not None and clock < fork_resolves_at:
            effective_width = width * (1.0 - primary_loss)
        else:
            effective_width = width
            fork_resolves_at = None
        fetch_cycles = block / effective_width
        fetch_done = clock + fetch_cycles

        fork_this = fork_resolves_at is None and low_bit

        retired += block
        if fork_this:
            forks += 1
            resolve_at = fetch_done + resolve_latency
            alternate_slots = alternate_width * resolve_latency
            if correct_bit:
                squashed += alternate_slots
                fork_resolves_at = resolve_at
                clock = fetch_done
            else:
                mispredictions += 1
                covered += 1
                squashed += effective_width * resolve_latency
                head_start = min(alternate_slots / width, resolve_latency)
                clock = resolve_at - head_start
                fork_resolves_at = None
        elif correct_bit:
            clock = fetch_done
        else:
            mispredictions += 1
            resolve_at = fetch_done + resolve_latency
            squashed += effective_width * resolve_latency
            clock = resolve_at + redirect_penalty
            fork_resolves_at = None

    return FrontendReport(
        cycles=clock,
        retired_instructions=retired,
        squashed_slots=squashed,
        branches=len(blocks),
        mispredictions=mispredictions,
        forks=forks,
        covered_mispredictions=covered,
    )


def smt_timing(
    config: FrontendConfig,
    threads: Sequence[ThreadStreams],
    gated: bool,
) -> SMTReport:
    """:func:`~repro.pipeline.smt.simulate_smt` over per-thread streams.

    The arbiter's ``min(active, key=ready_at)`` becomes a heap keyed by
    ``(ready_at, thread_index)``: only the granted thread's ``ready_at``
    changes per grant, and the index breaks ties toward the first
    thread exactly as ``min`` does.
    """
    if not threads:
        raise ValueError("need at least one thread")

    width = float(config.fetch_width)
    resolve_latency = float(config.resolve_latency)

    # Every thread's streams laid end to end: thread ``i`` owns
    # positions ``[firsts[i], ends[i])`` of the flat lists.
    blocks: List[int] = []
    corrects: List[int] = []
    lows: List[bool] = []
    firsts: List[int] = []
    ends: List[int] = []
    for pcs, correct, low in threads:
        firsts.append(len(blocks))
        blocks.extend(block_sizes(config, pcs).tolist())
        corrects.extend(np.asarray(correct).tolist())
        if gated:
            lows.extend(np.asarray(low).tolist())
        ends.append(len(blocks))
    count = len(threads)
    positions = list(firsts)
    barriers: List[Optional[float]] = [None] * count
    finish_times = [0.0] * count

    port_free = 0.0
    useful = 0
    squashed = 0.0
    gated_stalls = 0

    # The granted thread stays at the heap's root while it computes its
    # next ready time, so one ``heapreplace`` does the pop and the push.
    replace = heapq.heapreplace
    ready = [(0.0, index) for index in range(count) if firsts[index] < ends[index]]
    while ready:
        ready_at, index = ready[0]
        # ``max(port_free, ready_at)``, which keeps the first on a tie.
        start = ready_at if ready_at > port_free else port_free
        position = positions[index]
        block = blocks[position]
        busy = block / width
        port_free = start + busy

        barrier = barriers[index]
        if barrier is not None and start < barrier:
            # Wrong-path fetch: burns the port, retires nothing, and the
            # thread stays on the same architectural branch.
            squashed += block
            replace(ready, (port_free, index))
            continue
        barriers[index] = None

        correct_bit = corrects[position]
        resolve_at = port_free + resolve_latency
        gate = gated and lows[position]

        useful += block
        position += 1
        positions[index] = position
        if position >= ends[index]:
            finish_times[index] = resolve_at
            heapq.heappop(ready)
            continue

        if gate:
            gated_stalls += 1
            replace(ready, (resolve_at, index))
        else:
            if not correct_bit:
                barriers[index] = resolve_at
            replace(ready, (port_free, index))

    return SMTReport(
        total_cycles=max([port_free] + finish_times),
        useful_instructions=useful,
        squashed_slots=squashed,
        per_thread_cycles=finish_times,
        gated_stalls=gated_stalls,
    )
