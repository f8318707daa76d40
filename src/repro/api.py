"""The stable high-level facade of the library.

Four entry points cover the common uses — running a paper experiment,
sweeping a benchmark's predictor streams, building a confidence curve,
and discovering what experiments exist — without reaching into the
internal module layout.  Everything here takes keyword-only options, is
fully documented, and is covered by the compatibility promise: internal
modules may reorganize between releases, ``repro.api`` does not.

>>> import repro
>>> curve = repro.confidence_curve("jpeg_play", length=20_000)
>>> result = repro.run_experiment("fig5", trace_length=12_000,
...                               benchmarks=("jpeg_play",))
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.buckets import BucketStatistics
from repro.analysis.curves import ConfidenceCurve
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.workloads.ibs import DEFAULT_TRACE_LENGTH

__all__ = [
    "run_experiment",
    "predictor_streams",
    "confidence_curve",
    "list_experiments",
]


def _configure(
    config: Optional[ExperimentConfig],
    benchmarks: Optional[Sequence[str]],
    trace_length: Optional[int],
    seed: Optional[int],
    jobs: Optional[int],
    chunk_size: Optional[int],
) -> ExperimentConfig:
    """Resolve an explicit config plus keyword overrides into one config."""
    resolved = config if config is not None else DEFAULT_CONFIG
    overrides = {}
    if benchmarks is not None:
        overrides["benchmarks"] = tuple(benchmarks)
    if trace_length is not None:
        overrides["trace_length"] = trace_length
    if seed is not None:
        overrides["seed"] = seed
    if jobs is not None:
        overrides["jobs"] = jobs
    if chunk_size is not None:
        overrides["chunk_size"] = chunk_size
    return resolved.scaled(**overrides) if overrides else resolved


def run_experiment(
    experiment_id: str,
    *,
    benchmarks: Optional[Sequence[str]] = None,
    trace_length: Optional[int] = None,
    seed: Optional[int] = None,
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
    config: Optional[ExperimentConfig] = None,
):
    """Run one of the paper's experiments and return its result object.

    Parameters
    ----------
    experiment_id:
        An id from :func:`list_experiments` (``"fig5"``, ``"table1"``, ...).
    benchmarks:
        Subset of suite benchmarks to simulate (default: the full suite).
    trace_length:
        Dynamic conditional branches per benchmark.
    seed:
        Workload generation seed.
    jobs:
        Worker processes for the sweep fan-out (1 = serial).
    chunk_size:
        Branches per streaming chunk.  Bounds peak working-set memory;
        results are identical for any value (``None`` = monolithic).
    config:
        A full :class:`~repro.experiments.config.ExperimentConfig` to
        start from instead of the defaults; the keyword overrides above
        are applied on top of it.

    Returns
    -------
    The experiment's result dataclass — every result has ``format()``
    rendering the paper-style report, and most expose
    :class:`~repro.analysis.curves.ConfidenceCurve` attributes.
    """
    from repro.experiments import get_experiment

    experiment = get_experiment(experiment_id)
    return experiment.run(
        _configure(config, benchmarks, trace_length, seed, jobs, chunk_size)
    )


def predictor_streams(
    benchmark: str,
    *,
    length: int = DEFAULT_TRACE_LENGTH,
    seed: int = 0,
    entries: int = 1 << 16,
    history_bits: int = 16,
    chunk_size: Optional[int] = None,
):
    """Predictor output streams of the paper's gshare over one benchmark.

    Runs (or replays from the persistent cache) the gshare sweep and
    returns :class:`~repro.sim.fast.PredictorStreams`: per-branch
    correctness, pre-branch BHR values, PCs, and the derived global-CIR
    stream — the inputs every confidence mechanism consumes.

    Parameters
    ----------
    benchmark:
        A suite benchmark name (see
        :func:`repro.workloads.benchmark_names`).
    length:
        Dynamic conditional branches to simulate.
    seed:
        Workload generation seed.
    entries:
        gshare table size (power of two).
    history_bits:
        gshare global-history width.
    chunk_size:
        Branches per streaming chunk; routes the sweep through the
        chunked pipeline and its cell disk cache.  Output is identical
        for any value.
    """
    from repro.sim.cache import cached_predictor_streams

    return cached_predictor_streams(
        benchmark,
        length=length,
        seed=seed,
        entries=entries,
        history_bits=history_bits,
        chunk_size=chunk_size,
    )


def confidence_curve(
    benchmark: str,
    *,
    length: int = 50_000,
    seed: int = 0,
    index_kind: str = "pc_xor_bhr",
    cir_bits: int = 16,
    ct_index_bits: int = 16,
    chunk_size: Optional[int] = None,
) -> ConfidenceCurve:
    """The one-level CIR confidence curve of one benchmark.

    Sweeps the paper's large gshare over the benchmark, drives a
    one-level CIR table with the chosen index, and returns the resulting
    :class:`~repro.analysis.curves.ConfidenceCurve` under the ideal
    (empirical) reduction — the basic Fig. 5-style measurement.

    Parameters
    ----------
    benchmark:
        A suite benchmark name.
    length:
        Dynamic conditional branches to simulate.
    seed:
        Workload generation seed.
    index_kind:
        Confidence-table index: ``"pc"``, ``"bhr"``, or ``"pc_xor_bhr"``.
    cir_bits:
        CIR register width n.
    ct_index_bits:
        Table index width (the table has ``2**ct_index_bits`` entries).
    chunk_size:
        Branches per streaming chunk (identical output for any value).
    """
    from repro.core.indexing import make_index
    from repro.sim.fast import cir_pattern_stream
    from repro.utils.bits import bit_mask

    streams = predictor_streams(
        benchmark, length=length, seed=seed, chunk_size=chunk_size
    )
    index = make_index(index_kind, ct_index_bits)
    gcirs = streams.gcirs if index.uses_gcir else streams.bhrs * 0
    indices = index.vectorized(streams.pcs, streams.bhrs, gcirs)
    patterns = cir_pattern_stream(
        indices, streams.correct, cir_bits=cir_bits,
        init_patterns=bit_mask(cir_bits),
    )
    statistics = BucketStatistics.from_streams(
        patterns, streams.correct, num_buckets=1 << cir_bits
    )
    return ConfidenceCurve.from_statistics(
        statistics, name=f"{benchmark}:{index_kind}"
    )


def list_experiments() -> List[Tuple[str, str]]:
    """``(id, description)`` of every registered paper experiment."""
    from repro.experiments import list_experiments as registry_list

    return [
        (experiment.id, experiment.description)
        for experiment in registry_list()
    ]
