"""Benchmark harness configuration.

Each benchmark file regenerates one of the paper's tables/figures at the
full default configuration (8 benchmarks x 160k branches, 64K predictor)
and reports the headline numbers next to the paper's.

The predictor sweeps are memoized per process (see repro.sim.cache); the
session fixture below warms them once so the per-figure timings reflect
the confidence-analysis stage, and so the first figure is not charged for
the shared sweep.

Benchmarks run with ``rounds=1`` via ``benchmark.pedantic`` — these are
end-to-end experiment regenerations, not microbenchmarks.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import DEFAULT_CONFIG
from repro.experiments.runner import suite_streams


@pytest.fixture(scope="session", autouse=True)
def warm_predictor_streams():
    """Run the shared predictor sweeps once per session."""
    suite_streams(DEFAULT_CONFIG)
    suite_streams(DEFAULT_CONFIG.small_predictor)


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing."""

    def runner(function, *args, **kwargs):
        return benchmark.pedantic(
            function, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return runner
