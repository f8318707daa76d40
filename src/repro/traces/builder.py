"""Incremental trace construction.

Code that produces a trace one branch at a time cannot build numpy arrays
by concatenation, which would be quadratic.  ``TraceBuilder`` amortizes
growth, checks every outcome as it arrives, and also accepts whole
vectorized blocks.  The synthetic-program interpreter does not use it: it
fills plain Python buffers and checks only the prefix it keeps (see
:mod:`repro.workloads.program`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.traces.trace import Trace


class TraceBuilder:
    """Amortized-growth accumulator for ``(pc, outcome)`` records."""

    _INITIAL_CAPACITY = 1024

    def __init__(self, name: str = "") -> None:
        self._name = name
        self._capacity = self._INITIAL_CAPACITY
        self._pcs = np.empty(self._capacity, dtype=np.uint64)
        self._outcomes = np.empty(self._capacity, dtype=np.uint8)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _reserve(self, extra: int) -> None:
        needed = self._size + extra
        if needed <= self._capacity:
            return
        while self._capacity < needed:
            self._capacity *= 2
        self._pcs = np.resize(self._pcs, self._capacity)
        self._outcomes = np.resize(self._outcomes, self._capacity)

    def append(self, pc: int, outcome: int) -> None:
        """Append a single dynamic branch record."""
        if outcome not in (0, 1):
            raise ValueError(f"outcome must be 0 or 1, got {outcome}")
        self._reserve(1)
        self._pcs[self._size] = pc
        self._outcomes[self._size] = outcome
        self._size += 1

    def extend(self, pcs: Sequence[int], outcomes: Sequence[int]) -> None:
        """Append a block of records (vectorized)."""
        pcs_arr = np.asarray(pcs, dtype=np.uint64)
        outcomes_arr = np.asarray(outcomes, dtype=np.uint8)
        if pcs_arr.shape != outcomes_arr.shape:
            raise ValueError("pcs and outcomes blocks must have equal length")
        if outcomes_arr.size and int(outcomes_arr.max(initial=0)) > 1:
            raise ValueError("outcomes must be 0 or 1")
        self._reserve(pcs_arr.size)
        end = self._size + pcs_arr.size
        self._pcs[self._size:end] = pcs_arr
        self._outcomes[self._size:end] = outcomes_arr
        self._size = end

    def build(self) -> Trace:
        """Finalize into an immutable :class:`Trace` (copies the buffers)."""
        return Trace(
            self._pcs[: self._size].copy(),
            self._outcomes[: self._size].copy(),
            self._name,
        )
