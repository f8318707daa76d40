"""Unit tests for the workload behaviour models."""

import numpy as np
import pytest

from repro.utils.rng import make_rng
from repro.workloads.behaviors import (
    BiasedBehavior,
    ContextDependentBehavior,
    CorrelatedBehavior,
    ExecutionContext,
    LoopExitBehavior,
    MarkovBehavior,
    PatternBehavior,
    PhasedBehavior,
    TripSource,
)


def draw(behavior, n, context=None, seed=0):
    context = context if context is not None else ExecutionContext()
    rng = make_rng("test", seed)
    return [behavior.next_outcome(context, rng) for _ in range(n)]


class TestExecutionContext:
    def test_defaults_to_not_taken(self):
        assert ExecutionContext().last_outcome("x") == 0

    def test_record_and_reset(self):
        context = ExecutionContext()
        context.record("x", 1)
        assert context.last_outcome("x") == 1
        context.reset()
        assert context.last_outcome("x") == 0


class TestBiasedBehavior:
    def test_extremes(self):
        assert draw(BiasedBehavior(1.0), 50) == [1] * 50
        assert draw(BiasedBehavior(0.0), 50) == [0] * 50

    def test_rate_approximates_bias(self):
        outcomes = draw(BiasedBehavior(0.2), 5000)
        assert 0.15 < np.mean(outcomes) < 0.25

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            BiasedBehavior(1.5)


class TestPatternBehavior:
    def test_cycles(self):
        assert draw(PatternBehavior([1, 1, 0]), 7) == [1, 1, 0, 1, 1, 0, 1]

    def test_reset_restarts_phase(self):
        behavior = PatternBehavior([1, 0])
        context, rng = ExecutionContext(), make_rng("x")
        behavior.next_outcome(context, rng)
        behavior.reset()
        assert behavior.next_outcome(context, rng) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            PatternBehavior([])
        with pytest.raises(ValueError):
            PatternBehavior([2])
        with pytest.raises(ValueError):
            PatternBehavior([1.0])


class TestCorrelatedBehavior:
    def test_follows_single_source(self):
        behavior = CorrelatedBehavior(["src"])
        context = ExecutionContext()
        rng = make_rng("x")
        context.record("src", 1)
        assert behavior.next_outcome(context, rng) == 1
        context.record("src", 0)
        assert behavior.next_outcome(context, rng) == 0

    def test_parity_of_two_sources(self):
        behavior = CorrelatedBehavior(["a", "b"])
        context = ExecutionContext()
        rng = make_rng("x")
        context.record("a", 1)
        context.record("b", 1)
        assert behavior.next_outcome(context, rng) == 0

    def test_invert(self):
        behavior = CorrelatedBehavior(["src"], invert=True)
        context = ExecutionContext()
        context.record("src", 1)
        assert behavior.next_outcome(context, make_rng("x")) == 0

    def test_noise_flips_sometimes(self):
        behavior = CorrelatedBehavior(["src"], noise=0.5)
        context = ExecutionContext()
        context.record("src", 1)
        outcomes = draw(behavior, 2000, context)
        assert 0.35 < np.mean(outcomes) < 0.65

    def test_requires_sources(self):
        with pytest.raises(ValueError):
            CorrelatedBehavior([])


class TestContextDependentBehavior:
    def test_easy_context_is_biased(self):
        behavior = ContextDependentBehavior(["src"], p_easy_noise=0.0)
        context = ExecutionContext()
        context.record("src", 0)  # parity 0 -> easy, not taken
        assert draw(behavior, 20, context) == [0] * 20

    def test_hard_context_is_coin(self):
        behavior = ContextDependentBehavior(["src"], p_hard=0.5)
        context = ExecutionContext()
        context.record("src", 1)
        outcomes = draw(behavior, 4000, context)
        assert 0.42 < np.mean(outcomes) < 0.58


class TestPhasedBehavior:
    def test_phases_alternate(self):
        behavior = PhasedBehavior(phase_length=100, p_taken_a=0.0, p_taken_b=1.0)
        outcomes = draw(behavior, 300)
        assert outcomes[:100] == [0] * 100
        assert outcomes[100:200] == [1] * 100
        assert outcomes[200:300] == [0] * 100

    def test_reset(self):
        behavior = PhasedBehavior(phase_length=2, p_taken_a=0.0, p_taken_b=1.0)
        draw(behavior, 3)
        behavior.reset()
        assert draw(behavior, 2) == [0, 0]


class TestMarkovBehavior:
    def test_sticky_states_produce_runs(self):
        behavior = MarkovBehavior(p_stay_taken=0.95, p_stay_not_taken=0.95)
        outcomes = draw(behavior, 4000)
        switches = sum(a != b for a, b in zip(outcomes, outcomes[1:]))
        assert switches / len(outcomes) < 0.12

    def test_degenerate_always_stay(self):
        behavior = MarkovBehavior(1.0, 1.0, initial=1)
        assert draw(behavior, 20) == [1] * 20

    def test_invalid_initial(self):
        with pytest.raises(ValueError):
            MarkovBehavior(0.5, 0.5, initial=2)


class TestTripSource:
    def test_fixed(self):
        assert TripSource.fixed(8).next_trips(None) == 8
        assert TripSource.fixed(8).mean_trips == 8.0

    def test_uniform_bounds(self):
        source = TripSource.uniform(3, 5)
        rng = make_rng("trips")
        values = {source.next_trips(rng) for _ in range(200)}
        assert values <= {3, 4, 5}
        assert len(values) == 3

    def test_uniform_requires_rng(self):
        with pytest.raises(ValueError):
            TripSource.uniform(3, 5).next_trips(None)

    def test_geometric_mean(self):
        source = TripSource.geometric(6.0)
        rng = make_rng("geo")
        values = [source.next_trips(rng) for _ in range(4000)]
        assert 5.0 < np.mean(values) < 7.0
        assert min(values) >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TripSource.fixed(0)
        with pytest.raises(ValueError):
            TripSource.uniform(5, 3)
        with pytest.raises(ValueError):
            TripSource.geometric(0.5)


class TestLoopExitBehavior:
    def test_taken_for_trips_then_not_taken(self):
        behavior = LoopExitBehavior(TripSource.fixed(3))
        outcomes = draw(behavior, 8)
        assert outcomes == [1, 1, 1, 0, 1, 1, 1, 0]
