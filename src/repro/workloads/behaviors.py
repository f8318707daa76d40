"""Per-branch-site behaviour models.

Each conditional branch site in a synthetic program owns a
:class:`BranchBehavior`: a small state machine producing the site's next
outcome, optionally reading the recent outcomes of *other* sites through
the shared :class:`ExecutionContext` (that is what makes branches
predictable from global history, the effect gshare and the BHR-indexed
confidence tables exploit).

All randomness flows through the ``numpy`` generator passed to
``next_outcome``; behaviours therefore produce identical streams for
identical seeds.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro.traces.trace import NOT_TAKEN, TAKEN
from repro.utils.validation import check_positive, check_probability

if TYPE_CHECKING:
    import numpy as np


class ExecutionContext:
    """Shared run-time state of a synthetic program.

    Records the most recent outcome of every site, so correlated
    behaviours can read their source branches.  Sites that have not yet
    executed read as not-taken.
    """

    def __init__(self) -> None:
        self._last_outcome: Dict[str, int] = {}

    def last_outcome(self, site_name: str) -> int:
        """Most recent outcome of ``site_name`` (NOT_TAKEN if never run)."""
        return self._last_outcome.get(site_name, NOT_TAKEN)

    def record(self, site_name: str, outcome: int) -> None:
        """Store the latest outcome of ``site_name``."""
        self._last_outcome[site_name] = outcome

    def reset(self) -> None:
        self._last_outcome.clear()


class BranchBehavior(abc.ABC):
    """Produces the next outcome for one branch site."""

    @abc.abstractmethod
    def next_outcome(
        self, context: ExecutionContext, rng: np.random.Generator
    ) -> int:
        """Return TAKEN (1) or NOT_TAKEN (0) for this execution."""

    def reset(self) -> None:
        """Restore per-behaviour state (default: stateless)."""


class BiasedBehavior(BranchBehavior):
    """Independent Bernoulli outcomes with fixed taken probability.

    With ``p_taken`` near 0 or 1 this models strongly biased
    data-dependent branches (easy); near 0.5 it models genuinely hard
    branches where mispredictions concentrate.
    """

    def __init__(self, p_taken: float) -> None:
        self._p_taken = check_probability(p_taken, "p_taken")

    @property
    def p_taken(self) -> float:
        return self._p_taken

    def next_outcome(self, context, rng) -> int:
        return TAKEN if rng.random() < self._p_taken else NOT_TAKEN


class PatternBehavior(BranchBehavior):
    """A repeating fixed outcome pattern (e.g. the classic TTNTTN).

    Perfectly periodic, hence learnable by any history-based predictor
    whose reach covers the period.
    """

    def __init__(self, pattern: Sequence[int]) -> None:
        if not pattern:
            raise ValueError("pattern must be non-empty")
        if any(outcome not in (0, 1) for outcome in pattern):
            raise ValueError("pattern entries must be 0 or 1")
        self._pattern = tuple(pattern)
        self._position = 0

    def next_outcome(self, context, rng) -> int:
        outcome = self._pattern[self._position]
        self._position = (self._position + 1) % len(self._pattern)
        return outcome

    def reset(self) -> None:
        self._position = 0


class CorrelatedBehavior(BranchBehavior):
    """Outcome determined by earlier branches' outcomes, plus noise.

    The deterministic core is the XOR (parity) of the most recent outcomes
    of ``source_sites``, optionally inverted; with probability ``noise``
    the outcome is flipped.  This is the canonical globally-correlated
    branch (cf. Pan/So/Rahmeh): gshare predicts it with accuracy
    ``1 - noise`` once trained, while a per-PC predictor sees a ~50 % coin.
    """

    def __init__(
        self,
        source_sites: Sequence[str],
        noise: float = 0.0,
        invert: bool = False,
    ) -> None:
        if not source_sites:
            raise ValueError("correlated behaviour needs at least one source site")
        self._source_sites = tuple(source_sites)
        self._noise = check_probability(noise, "noise")
        self._invert = invert

    def next_outcome(self, context, rng) -> int:
        parity = 0
        for name in self._source_sites:
            parity ^= context.last_outcome(name)
        if self._invert:
            parity ^= 1
        if self._noise and rng.random() < self._noise:
            parity ^= 1
        return parity


class ContextDependentBehavior(BranchBehavior):
    """Predictable in one global context, near-random in another.

    When the parity of the source sites' latest outcomes is 0 the branch
    is strongly biased not-taken (noise ``p_easy_noise``); when the parity
    is 1 the branch is a ``p_hard``-coin.  This is the population that
    separates history-indexed confidence from PC-indexed confidence: the
    *same static branch* is trustworthy on some paths and untrustworthy on
    others, so only a BHR-aware table can tell the contexts apart (the
    paper's Fig. 5 ordering BHRxorPC > BHR > PC).
    """

    def __init__(
        self,
        source_sites: Sequence[str],
        p_easy_noise: float = 0.02,
        p_hard: float = 0.5,
    ) -> None:
        if not source_sites:
            raise ValueError("context-dependent behaviour needs source sites")
        self._source_sites = tuple(source_sites)
        self._p_easy_noise = check_probability(p_easy_noise, "p_easy_noise")
        self._p_hard = check_probability(p_hard, "p_hard")

    def next_outcome(self, context, rng) -> int:
        parity = 0
        for name in self._source_sites:
            parity ^= context.last_outcome(name)
        if parity == 0:
            return TAKEN if rng.random() < self._p_easy_noise else NOT_TAKEN
        return TAKEN if rng.random() < self._p_hard else NOT_TAKEN


class PhasedBehavior(BranchBehavior):
    """Bias that alternates between two phases of fixed length.

    Models program phase behaviour / context-switch-like shifts: the
    branch is strongly biased one way for ``phase_length`` executions,
    then strongly biased the other way.  Predictors mispredict in bursts
    at phase boundaries — mispredictions a confidence mechanism should
    flag via the recent-history CIR.
    """

    def __init__(
        self, phase_length: int, p_taken_a: float, p_taken_b: float
    ) -> None:
        self._phase_length = check_positive(phase_length, "phase_length")
        self._p_a = check_probability(p_taken_a, "p_taken_a")
        self._p_b = check_probability(p_taken_b, "p_taken_b")
        self._executions = 0

    def next_outcome(self, context, rng) -> int:
        phase = (self._executions // self._phase_length) % 2
        self._executions += 1
        p_taken = self._p_a if phase == 0 else self._p_b
        return TAKEN if rng.random() < p_taken else NOT_TAKEN

    def reset(self) -> None:
        self._executions = 0


class MarkovBehavior(BranchBehavior):
    """A two-state Markov chain over outcomes (bursty behaviour).

    ``p_stay_taken`` is the probability of remaining taken after a taken
    outcome; ``p_stay_not_taken`` likewise for not-taken.  High stay
    probabilities produce long runs with unpredictable switch points —
    mostly predictable, with clustered mispredictions at run boundaries.
    """

    def __init__(
        self,
        p_stay_taken: float,
        p_stay_not_taken: float,
        initial: int = TAKEN,
    ) -> None:
        self._p_stay_taken = check_probability(p_stay_taken, "p_stay_taken")
        self._p_stay_not_taken = check_probability(
            p_stay_not_taken, "p_stay_not_taken"
        )
        if initial not in (0, 1):
            raise ValueError(f"initial must be 0 or 1, got {initial}")
        self._initial = initial
        self._state = initial

    def next_outcome(self, context, rng) -> int:
        if self._state == TAKEN:
            stay = rng.random() < self._p_stay_taken
            self._state = TAKEN if stay else NOT_TAKEN
        else:
            stay = rng.random() < self._p_stay_not_taken
            self._state = NOT_TAKEN if stay else TAKEN
        return self._state

    def reset(self) -> None:
        self._state = self._initial


class LoopExitBehavior(BranchBehavior):
    """Internal helper for loop trip counts when used as a guard.

    Taken while the loop continues; not-taken on exit.  ``trip_source``
    yields the trip count for each fresh entry of the loop.  Exposed
    mainly for tests; :class:`repro.workloads.program.Loop` normally
    drives trip counts itself.
    """

    def __init__(self, trip_source: "TripSource") -> None:
        self._trip_source = trip_source
        self._remaining: Optional[int] = None

    def next_outcome(self, context, rng) -> int:
        if self._remaining is None:
            self._remaining = self._trip_source.next_trips(rng)
        if self._remaining > 0:
            self._remaining -= 1
            return TAKEN
        self._remaining = None
        return NOT_TAKEN

    def reset(self) -> None:
        self._remaining = None


class TripSource:
    """Generates loop trip counts: fixed, uniform, or geometric.

    >>> TripSource.fixed(8).next_trips(None)
    8
    """

    def __init__(self, kind: str, low: int, high: int, mean: float) -> None:
        self._kind = kind
        self._low = low
        self._high = high
        self._mean = mean

    @classmethod
    def fixed(cls, trips: int) -> "TripSource":
        check_positive(trips, "trips")
        return cls("fixed", trips, trips, float(trips))

    @classmethod
    def uniform(cls, low: int, high: int) -> "TripSource":
        check_positive(low, "low")
        if high < low:
            raise ValueError(f"high ({high}) must be >= low ({low})")
        return cls("uniform", low, high, (low + high) / 2.0)

    @classmethod
    def geometric(cls, mean: float) -> "TripSource":
        if mean < 1.0:
            raise ValueError(f"mean must be >= 1, got {mean}")
        return cls("geometric", 1, 0, mean)

    @property
    def mean_trips(self) -> float:
        return self._mean

    def next_trips(self, rng: Optional[np.random.Generator]) -> int:
        if self._kind == "fixed":
            return self._low
        if rng is None:
            raise ValueError(f"{self._kind} trip source requires an rng")
        if self._kind == "uniform":
            return int(rng.integers(self._low, self._high + 1))
        # geometric on support {1, 2, ...} with the configured mean
        return int(rng.geometric(1.0 / self._mean))
