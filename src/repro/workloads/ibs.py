"""The synthetic IBS-style benchmark suite.

Eight benchmarks named after the IBS (Instruction Benchmark Suite, Mach
version) programs the paper simulates.  Each is a synthetic program built
from the behaviour models in :mod:`repro.workloads.behaviors`; the mixes
give each benchmark a distinct "personality" mirroring what is known of
the originals:

========== ===========================================================
benchmark   personality (branch population emphasis)
========== ===========================================================
gcc         very many static branches, data-dependent & hard — the
            suite's worst predictability (paper Fig. 9 worst case)
gs          interpreter dispatch: correlated branches with noise
jpeg_play   fixed-trip DCT-style kernels, few hard branches — the
            suite's best predictability (paper Fig. 9 best case)
mpeg_play   loop kernels plus bursty (Markov) motion-dependent branches
nroff       text processing: periodic per-branch patterns
sdet        multi-process system workload: phase changes + hard branches
verilog     event-driven simulation: context-dependent branches
video_play  streaming playback: regular loops, strongly biased checks
========== ===========================================================

Benchmark programs are deterministic given (name, seed); generated traces
are memoized, since every experiment reuses the same suite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.utils.rng import make_rng
from repro.workloads.behaviors import (
    BiasedBehavior,
    BranchBehavior,
    ContextDependentBehavior,
    CorrelatedBehavior,
    MarkovBehavior,
    PatternBehavior,
    PhasedBehavior,
    TripSource,
)
from repro.workloads.program import Block, Emit, If, Loop, Site, SyntheticProgram

if TYPE_CHECKING:
    from repro.traces.trace import Trace

#: Default dynamic branches per benchmark in the experiment suite.  The
#: paper runs full IBS traces (tens of millions); 160k per benchmark keeps
#: every table-warmup effect visible while remaining laptop-friendly.
DEFAULT_TRACE_LENGTH = 160_000


class _Layout:
    """Deterministic code-layout allocator for branch-site PCs.

    Sites are placed at increasing 4-byte-aligned addresses with small
    pseudo-random gaps, starting from a per-benchmark base, within an
    18-bit code region (matching the paper's PC bits 17..2 index field).
    """

    _REGION_BITS = 18

    def __init__(self, benchmark: str) -> None:
        self._rng = make_rng("layout", benchmark)
        base = int(self._rng.integers(0, 1 << self._REGION_BITS)) & ~0x3
        self._next_pc = base
        self._used: set = set()

    def place(self) -> int:
        """Allocate the next site address."""
        while True:
            gap = int(self._rng.integers(1, 16)) * 4
            self._next_pc = (self._next_pc + gap) % (1 << self._REGION_BITS)
            if self._next_pc not in self._used:
                self._used.add(self._next_pc)
                return self._next_pc


@dataclass(frozen=True)
class CategoryWeights:
    """Leaf-site category proportions for one benchmark."""

    easy: float = 0.0
    medium: float = 0.0
    hard: float = 0.0
    correlated: float = 0.0
    context: float = 0.0
    pattern: float = 0.0
    markov: float = 0.0
    phased: float = 0.0

    def as_pairs(self) -> List[Tuple[str, float]]:
        pairs = [
            ("easy", self.easy),
            ("medium", self.medium),
            ("hard", self.hard),
            ("correlated", self.correlated),
            ("context", self.context),
            ("pattern", self.pattern),
            ("markov", self.markov),
            ("phased", self.phased),
        ]
        total = sum(weight for _, weight in pairs)
        if total <= 0:
            raise ValueError("category weights must sum to a positive value")
        return [(name, weight / total) for name, weight in pairs]


@dataclass(frozen=True)
class BenchmarkConfig:
    """Shape and mix parameters of one synthetic benchmark.

    Tuning note: the dominant driver of the aggregate misprediction rate
    is not the per-branch bias alone but the *entropy injected into the
    global history*.  Every random outcome bit multiplies the number of
    BHR contexts every nearby branch is seen under, and cold contexts
    mispredict.  The bands below are therefore strongly biased by
    default; "hard" branches are the deliberate, concentrated exception.
    """

    name: str
    regions: int
    loops_per_region: int
    leaves_per_loop: int
    #: Inclusive per-site fixed trip-count band for *tight* inner loops.
    #: Keep trips x (leaves+1) within the 16-branch history window, or the
    #: loop exit becomes irreducibly unpredictable for gshare.
    loop_trip_band: Tuple[int, int]
    #: Fraction of inner loops whose trip count varies dynamically
    #: (uniform within a +/-1 span around the site's base trips) — a
    #: deliberate mid-rate misprediction source (unpredictable exits).
    variable_trip_fraction: float
    weights: CategoryWeights
    #: Fraction of inner loops that are long-running kernels (exit
    #: mispredictions amortized over many predictable iterations).
    kernel_loop_fraction: float = 0.25
    #: Trip-count band for kernel loops.
    kernel_trip_band: Tuple[int, int] = (24, 80)
    #: Bernoulli noise on correlated branches.  Keep small: independent
    #: rare flips spawn rarely-revisited history contexts ("novelty
    #: bombs"), unlike frequent 50/50 randomness which trains both
    #: context variants.
    correlated_noise: float = 0.006
    #: Taken-probability band for hard branches.
    hard_band: Tuple[float, float] = (0.38, 0.62)
    #: Taken-probability band for easy biased branches (mirrored around 0/1).
    easy_band: Tuple[float, float] = (0.0005, 0.004)
    #: Taken-probability band for medium biased branches (mirrored).  These
    #: carry a steady per-site misprediction rate that *static* profiling
    #: separates but history-based confidence largely cannot (their flips
    #: are independent), reproducing the paper's static-curve shape.
    medium_band: Tuple[float, float] = (0.03, 0.12)
    #: Switch-rate band for Markov (bursty) branches — the mid-rate knob.
    #: Low switch rates mean long runs: mispredictions cluster at run
    #: boundaries, which recent-history confidence exploits.
    markov_switch_band: Tuple[float, float] = (0.02, 0.07)
    phase_length: int = 3000
    region_guard_p_taken: float = 0.995


class _SiteFactory:
    """Builds leaf sites of each category with deterministic parameters."""

    def __init__(self, config: BenchmarkConfig, layout: _Layout) -> None:
        self._config = config
        self._layout = layout
        self._rng = make_rng("mix", config.name)
        self._counter = 0
        self._weighted = config.weights.as_pairs()

    def _next_name(self, category: str) -> str:
        self._counter += 1
        return f"{self._config.name}.{category}{self._counter}"

    def pick_category(self) -> str:
        roll = float(self._rng.random())
        accumulated = 0.0
        for name, weight in self._weighted:
            accumulated += weight
            if roll < accumulated:
                return name
        return self._weighted[-1][0]

    def make_leaf(self, category: str, neighbors: Sequence[str]) -> Site:
        """Create a leaf site; ``neighbors`` are earlier sites in the same
        loop body, used as correlation sources."""
        behavior = self._make_behavior(category, neighbors)
        return Site(self._next_name(category), self._layout.place(), behavior)

    def _make_behavior(
        self, category: str, neighbors: Sequence[str]
    ) -> BranchBehavior:
        config = self._config
        rng = self._rng
        if category == "easy":
            low, high = config.easy_band
            p_biased = low + (high - low) * float(rng.random())
            # Half the easy branches are mostly-taken, half mostly-not-taken.
            p_taken = p_biased if rng.random() < 0.5 else 1.0 - p_biased
            return BiasedBehavior(p_taken)
        if category == "medium":
            low, high = config.medium_band
            p_biased = low + (high - low) * float(rng.random())
            p_taken = p_biased if rng.random() < 0.5 else 1.0 - p_biased
            return BiasedBehavior(p_taken)
        if category == "hard":
            low, high = config.hard_band
            return BiasedBehavior(low + (high - low) * float(rng.random()))
        if category == "correlated" and neighbors:
            count = 1 + int(rng.integers(0, min(2, len(neighbors))))
            sources = list(neighbors[-count:])
            return CorrelatedBehavior(
                sources,
                noise=config.correlated_noise * (0.5 + float(rng.random())),
                invert=bool(rng.random() < 0.5),
            )
        if category == "context" and neighbors:
            # Prefer a randomizing neighbour (hard/markov) as the source so
            # the "hard context" actually occurs a meaningful fraction of
            # the time; a nearly-constant source would make this branch
            # effectively easy.
            # Prefer a *persistent* randomizing source (markov) so the hard
            # context arrives in runs — clusters of mispredictions are what
            # recent-history confidence mechanisms can see coming.  Fall
            # back to iid-hard, then to whatever executed last.
            markov_sources = [n for n in neighbors if ".markov" in n]
            hard_sources = [n for n in neighbors if ".hard" in n]
            if markov_sources:
                source = markov_sources[-1]
            elif hard_sources:
                source = hard_sources[-1]
            else:
                source = neighbors[-1]
            return ContextDependentBehavior(
                [source],
                p_easy_noise=0.001 + 0.003 * float(rng.random()),
                p_hard=0.45 + 0.1 * float(rng.random()),
            )
        if category == "pattern":
            # Only patterns whose next outcome is determined by the last
            # two of the branch's own outcomes: the global window holds
            # roughly two past executions of a loop-body site, so longer
            # memories (e.g. period-8 runs) would be irreducibly
            # unpredictable.  Power-of-two periods also keep the joint
            # phase space of nearby patterns small.
            pattern = [1, 0] if rng.random() < 0.5 else [1, 1, 0, 0]
            return PatternBehavior(pattern)
        if category == "markov":
            low, high = config.markov_switch_band
            switch_taken = low + (high - low) * float(rng.random())
            switch_not = low + (high - low) * float(rng.random())
            return MarkovBehavior(
                p_stay_taken=1.0 - switch_taken,
                p_stay_not_taken=1.0 - switch_not,
            )
        if category == "phased":
            p_first = 0.005 + 0.02 * float(rng.random())
            return PhasedBehavior(config.phase_length, p_first, 1.0 - p_first)
        # Correlated/context leaves with no earlier neighbour fall back to an
        # easy biased branch (there is nothing to correlate with).
        low, high = config.easy_band
        return BiasedBehavior(low + (high - low) * float(rng.random()))


def build_program(config: BenchmarkConfig) -> SyntheticProgram:
    """Construct the synthetic program for ``config``.

    Structure: a driver loop over ``regions`` guarded regions; each region
    holds ``loops_per_region`` inner loops of ``leaves_per_loop`` leaf
    branches.  Leaf categories are drawn from the configured weights;
    correlated/context leaves use earlier leaves of the same loop body as
    sources, so their correlation is visible in the global history.
    """
    layout = _Layout(config.name)
    factory = _SiteFactory(config, layout)
    trip_rng = make_rng("trips", config.name)
    regions: List[If] = []
    for region_index in range(config.regions):
        loops: List[Loop] = []
        for loop_index in range(config.loops_per_region):
            leaf_nodes: List[Emit] = []
            neighbor_names: List[str] = []
            for _ in range(config.leaves_per_loop):
                category = factory.pick_category()
                site = factory.make_leaf(category, neighbor_names)
                neighbor_names.append(site.name)
                leaf_nodes.append(Emit(site))
            if float(trip_rng.random()) < config.kernel_loop_fraction:
                low, high = config.kernel_trip_band
                trips = TripSource.fixed(int(trip_rng.integers(low, high + 1)))
            else:
                low, high = config.loop_trip_band
                base_trips = int(trip_rng.integers(low, high + 1))
                if float(trip_rng.random()) < config.variable_trip_fraction:
                    trips = TripSource.uniform(
                        max(1, base_trips - 1), base_trips + 1
                    )
                else:
                    trips = TripSource.fixed(base_trips)
            back_edge = Site(
                name=f"{config.name}.loop_r{region_index}_l{loop_index}",
                pc=layout.place(),
                behavior=None,
                is_backward=True,
            )
            loops.append(Loop(back_edge, Block(leaf_nodes), trips))
        guard = Site(
            name=f"{config.name}.region{region_index}",
            pc=layout.place(),
            behavior=BiasedBehavior(config.region_guard_p_taken),
        )
        regions.append(If(guard, then_body=Block(loops)))
    return SyntheticProgram(config.name, Block(regions))


# --------------------------------------------------------------------------
# The eight benchmark personalities.
# --------------------------------------------------------------------------

IBS_BENCHMARKS: Dict[str, BenchmarkConfig] = {
    "gcc": BenchmarkConfig(
        name="gcc",
        regions=20,
        loops_per_region=4,
        leaves_per_loop=4,
        loop_trip_band=(2, 4),
        variable_trip_fraction=0.150,
        kernel_loop_fraction=0.1,
        weights=CategoryWeights(
            easy=0.38, medium=0.16, hard=0.018, correlated=0.20, context=0.035,
            pattern=0.10, markov=0.06,
        ),
        correlated_noise=0.04,
    ),
    "gs": BenchmarkConfig(
        name="gs",
        regions=14,
        loops_per_region=4,
        leaves_per_loop=4,
        loop_trip_band=(2, 4),
        variable_trip_fraction=0.075,
        kernel_loop_fraction=0.2,
        weights=CategoryWeights(
            easy=0.42, medium=0.06, hard=0.012, correlated=0.28, context=0.08,
            pattern=0.10, markov=0.04,
        ),
        correlated_noise=0.03,
    ),
    "jpeg_play": BenchmarkConfig(
        name="jpeg_play",
        regions=8,
        loops_per_region=3,
        leaves_per_loop=3,
        loop_trip_band=(2, 4),
        variable_trip_fraction=0.000,
        kernel_loop_fraction=0.5,
        weights=CategoryWeights(
            easy=0.58, medium=0.004, hard=0.032, correlated=0.18, context=0.03,
            pattern=0.16, markov=0.01,
        ),
        correlated_noise=0.008,
    ),
    "mpeg_play": BenchmarkConfig(
        name="mpeg_play",
        regions=10,
        loops_per_region=3,
        leaves_per_loop=3,
        loop_trip_band=(2, 4),
        variable_trip_fraction=0.025,
        kernel_loop_fraction=0.45,
        weights=CategoryWeights(
            easy=0.45, medium=0.05, hard=0.008, correlated=0.18, context=0.05,
            pattern=0.10, markov=0.1,
        ),
        correlated_noise=0.02,
    ),
    "nroff": BenchmarkConfig(
        name="nroff",
        regions=12,
        loops_per_region=3,
        leaves_per_loop=4,
        loop_trip_band=(2, 4),
        variable_trip_fraction=0.050,
        kernel_loop_fraction=0.25,
        weights=CategoryWeights(
            easy=0.40, medium=0.07, hard=0.01, correlated=0.20, context=0.06,
            pattern=0.24, markov=0.03,
        ),
        correlated_noise=0.025,
    ),
    "sdet": BenchmarkConfig(
        name="sdet",
        regions=16,
        loops_per_region=3,
        leaves_per_loop=4,
        loop_trip_band=(2, 4),
        variable_trip_fraction=0.125,
        kernel_loop_fraction=0.15,
        weights=CategoryWeights(
            easy=0.36, medium=0.08, hard=0.018, correlated=0.18, context=0.07,
            pattern=0.08, markov=0.05, phased=0.12,
        ),
        correlated_noise=0.03,
        phase_length=2500,
    ),
    "verilog": BenchmarkConfig(
        name="verilog",
        regions=14,
        loops_per_region=3,
        leaves_per_loop=4,
        loop_trip_band=(2, 4),
        variable_trip_fraction=0.060,
        kernel_loop_fraction=0.2,
        weights=CategoryWeights(
            easy=0.36, medium=0.035, hard=0.01, correlated=0.24, context=0.06,
            pattern=0.14, markov=0.03,
        ),
        correlated_noise=0.025,
    ),
    "video_play": BenchmarkConfig(
        name="video_play",
        regions=8,
        loops_per_region=3,
        leaves_per_loop=3,
        loop_trip_band=(2, 4),
        variable_trip_fraction=0.000,
        kernel_loop_fraction=0.5,
        weights=CategoryWeights(
            easy=0.56, medium=0.008, hard=0.012, correlated=0.16, context=0.045,
            pattern=0.14, markov=0.015,
        ),
        correlated_noise=0.018,
    ),
}


def benchmark_names() -> List[str]:
    """Names of the suite benchmarks, in canonical order."""
    return list(IBS_BENCHMARKS)


@functools.lru_cache(maxsize=64)
def _program(name: str) -> SyntheticProgram:
    try:
        config = IBS_BENCHMARKS[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; expected one of {benchmark_names()}"
        ) from None
    return build_program(config)


def benchmark_program(name: str) -> SyntheticProgram:
    """The (memoized) synthetic program for benchmark ``name``."""
    return _program(name)


@functools.lru_cache(maxsize=64)
def load_benchmark(
    name: str, length: int = DEFAULT_TRACE_LENGTH, seed: int = 0
) -> Trace:
    """Generate (and memoize) the trace for one benchmark.

    Note: programs hold per-behaviour state, so generation always resets
    behaviours; traces for the same arguments are identical objects.
    """
    return _program(name).generate(length, seed)


def load_suite(
    length: int = DEFAULT_TRACE_LENGTH,
    seed: int = 0,
    names: "Sequence[str] | None" = None,
) -> Dict[str, Trace]:
    """Generate traces for the whole suite (or a named subset)."""
    selected = list(names) if names is not None else benchmark_names()
    return {name: load_benchmark(name, length, seed) for name in selected}
