"""A SPEC-like alternative suite.

The paper chose IBS over "the commonly used SPEC benchmarks" because IBS
"more accurately represent[s] branch characteristics of real programs"
(kernel code, less loop-dominated).  To test that this reproduction's
conclusions are not artifacts of the primary suite, this module provides
four synthetic benchmarks in the *SPEC-int-95 style* the paper alludes
to: user-mode, loop-heavier, fewer static branches, fewer hard kernel
branches.

They reuse the same behaviour models and builder as the IBS suite
(:mod:`repro.workloads.ibs`), differing only in mix parameters — so any
divergence in results is attributable to workload character, not
machinery.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.workloads.ibs import (
    BenchmarkConfig,
    CategoryWeights,
    build_program,
)

if TYPE_CHECKING:
    from repro.traces.trace import Trace

SPEC_BENCHMARKS: Dict[str, BenchmarkConfig] = {
    # compress: tight coding loops over mostly-uniform data.
    "compress": BenchmarkConfig(
        name="compress",
        regions=6,
        loops_per_region=3,
        leaves_per_loop=3,
        loop_trip_band=(2, 4),
        variable_trip_fraction=0.05,
        weights=CategoryWeights(
            easy=0.52, medium=0.05, hard=0.012, correlated=0.18,
            context=0.04, pattern=0.14, markov=0.03,
        ),
        kernel_loop_fraction=0.55,
    ),
    # go: branchy search with data-dependent decisions (the hard one).
    "go": BenchmarkConfig(
        name="go",
        regions=16,
        loops_per_region=3,
        leaves_per_loop=4,
        loop_trip_band=(2, 4),
        variable_trip_fraction=0.18,
        weights=CategoryWeights(
            easy=0.36, medium=0.12, hard=0.03, correlated=0.18,
            context=0.08, pattern=0.08, markov=0.08,
        ),
        kernel_loop_fraction=0.08,
    ),
    # li: lisp interpreter, dispatch-correlated.
    "li": BenchmarkConfig(
        name="li",
        regions=10,
        loops_per_region=3,
        leaves_per_loop=4,
        loop_trip_band=(2, 4),
        variable_trip_fraction=0.08,
        weights=CategoryWeights(
            easy=0.42, medium=0.05, hard=0.012, correlated=0.28,
            context=0.08, pattern=0.10, markov=0.04,
        ),
        kernel_loop_fraction=0.18,
    ),
    # perl: string processing, periodic patterns and bursts.
    "perl": BenchmarkConfig(
        name="perl",
        regions=12,
        loops_per_region=3,
        leaves_per_loop=4,
        loop_trip_band=(2, 4),
        variable_trip_fraction=0.1,
        weights=CategoryWeights(
            easy=0.40, medium=0.06, hard=0.015, correlated=0.20,
            context=0.06, pattern=0.16, markov=0.06,
        ),
        kernel_loop_fraction=0.2,
    ),
}


def spec_benchmark_names() -> List[str]:
    """Names of the SPEC-like benchmarks, in canonical order."""
    return list(SPEC_BENCHMARKS)


@functools.lru_cache(maxsize=32)
def _program(name: str):
    try:
        config = SPEC_BENCHMARKS[name]
    except KeyError:
        raise ValueError(
            f"unknown SPEC-like benchmark {name!r}; expected one of "
            f"{spec_benchmark_names()}"
        ) from None
    return build_program(config)


@functools.lru_cache(maxsize=32)
def load_spec_benchmark(name: str, length: int = 160_000, seed: int = 0) -> Trace:
    """Generate (and memoize) one SPEC-like benchmark trace."""
    return _program(name).generate(length, seed)


def load_spec_suite(
    length: int = 160_000,
    seed: int = 0,
    names: "Sequence[str] | None" = None,
) -> Dict[str, Trace]:
    """Generate traces for the SPEC-like suite (or a subset)."""
    selected = list(names) if names is not None else spec_benchmark_names()
    return {name: load_spec_benchmark(name, length, seed) for name in selected}
