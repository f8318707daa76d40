"""The ``Trace`` container.

A trace records, for every dynamic conditional branch of a benchmark run,
the branch's program counter and its resolved direction.  This is exactly
the information the paper's trace-driven simulation consumes: both the
branch predictor and the confidence mechanisms operate on the
``(pc, outcome)`` stream plus the predictor's own correct/incorrect stream.

numpy is imported where a trace is built or inspected, not with the
module, so the outcome constants and the type cost no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Tuple

if TYPE_CHECKING:
    import numpy as np

#: Branch outcome encodings.  Outcomes are stored as uint8 for compactness.
TAKEN: int = 1
NOT_TAKEN: int = 0


@dataclass(frozen=True)
class Trace:
    """An immutable dynamic conditional-branch trace.

    Parameters
    ----------
    pcs:
        ``uint64`` array of branch instruction addresses.  Addresses are
        byte addresses; like the paper's machines, instructions are 4-byte
        aligned, so the low two PC bits carry no information (the paper's
        gshare uses PC bits 17..2).
    outcomes:
        ``uint8`` array of resolved directions (1 = taken, 0 = not taken).
    name:
        Benchmark name the trace came from (informational).
    """

    pcs: np.ndarray
    outcomes: np.ndarray
    name: str = field(default="")

    def __post_init__(self) -> None:
        import numpy as np

        pcs = np.ascontiguousarray(self.pcs, dtype=np.uint64)
        outcomes = np.ascontiguousarray(self.outcomes, dtype=np.uint8)
        if pcs.ndim != 1 or outcomes.ndim != 1:
            raise ValueError("pcs and outcomes must be one-dimensional arrays")
        if pcs.shape != outcomes.shape:
            raise ValueError(
                f"pcs and outcomes must have equal length, "
                f"got {pcs.shape[0]} and {outcomes.shape[0]}"
            )
        if outcomes.size and int(outcomes.max(initial=0)) > 1:
            raise ValueError("outcomes must be 0 (not taken) or 1 (taken)")
        # Bypass the frozen dataclass to store the normalized arrays.
        object.__setattr__(self, "pcs", pcs)
        object.__setattr__(self, "outcomes", outcomes)

    def __len__(self) -> int:
        return int(self.pcs.shape[0])

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        """Iterate ``(pc, outcome)`` pairs as Python ints."""
        for pc, outcome in zip(self.pcs.tolist(), self.outcomes.tolist()):
            yield pc, outcome

    def __repr__(self) -> str:
        label = self.name or "<unnamed>"
        return f"Trace(name={label!r}, branches={len(self)})"

    @property
    def num_static_branches(self) -> int:
        """Number of distinct branch sites (unique PCs) in the trace."""
        import numpy as np

        return int(np.unique(self.pcs).size)

    @property
    def taken_fraction(self) -> float:
        """Fraction of dynamic branches that were taken."""
        if len(self) == 0:
            return 0.0
        return float(self.outcomes.mean())

    def slice(self, start: int, stop: int) -> "Trace":
        """Return a sub-trace covering dynamic branches ``[start, stop)``."""
        if start < 0 or stop < start:
            raise ValueError(f"invalid slice bounds [{start}, {stop})")
        return Trace(self.pcs[start:stop], self.outcomes[start:stop], self.name)

    def concat(self, other: "Trace") -> "Trace":
        """Concatenate two traces (e.g. to model back-to-back runs)."""
        import numpy as np

        return Trace(
            np.concatenate([self.pcs, other.pcs]),
            np.concatenate([self.outcomes, other.outcomes]),
            self.name or other.name,
        )

    def restricted_to(self, pcs: np.ndarray) -> "Trace":
        """Return the sub-trace of dynamic branches whose PC is in ``pcs``.

        Preserves dynamic order; used to isolate individual branch sites
        when auditing workload behaviour models.
        """
        import numpy as np

        mask = np.isin(self.pcs, np.asarray(pcs, dtype=np.uint64))
        return Trace(self.pcs[mask], self.outcomes[mask], self.name)
