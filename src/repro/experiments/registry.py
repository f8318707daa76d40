"""Experiment registry: id -> (runner, description).

Used by the CLI (``repro run fig5``) and the benchmark harness.  The
registry is also the unit of parallelism for ``repro run-all --jobs N``:
:func:`run_all_reports` hands :func:`run_experiment_report` itself to
:func:`repro.utils.resilient.resilient_map`, one task per experiment id
(also the task's fault key), and the formatted reports come back in
registration order, so the combined output is byte-identical to a
serial run.  Only the report crosses the process boundary; result
objects stay in the worker.

Every report :func:`run_all_reports` computes is also a store entry
(:mod:`repro.sim.diskcache`, ``sweep_results/report-<id>-<digest>.entry``)
keyed by :func:`report_key`: the
:func:`~repro.experiments.config.result_identity` of the config (which
holds the program digest) and the experiment id.  The parent looks every
requested report up before any work and computes only the misses, so a
warm run loads no stream, folds no statistic and starts no pool, and an
edit to any source file misses every entry.  The fabric's report units
publish and read the same entries through :func:`load_report` and
:func:`store_report`, so serial and sharded runs replay each other's
reports.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro import observability
from repro.experiments import (
    ablation_context_switch,
    ablation_counter_width,
    ablation_indexing,
    ablation_suite_seed,
    ablation_trace_length,
    extension_cost,
    extension_crossval,
    extension_metrics,
    extension_multilevel,
    extension_pipeline,
    fig10_small_tables,
    fig11_initialization,
    fig2_static,
    fig5_one_level,
    fig6_two_level,
    fig7_comparison,
    fig8_reductions,
    fig9_benchmarks,
    table1_resetting,
)
from repro.experiments.config import ExperimentConfig, result_identity
from repro.sim.diskcache import (
    ENTRY_SUFFIX,
    EntryFamily,
    cache_enabled,
    get,
    key_digest,
    put,
    sweep_cache_dir,
)

T = TypeVar("T")

#: Counter names and crash-site label of report entries.
REPORT_CACHE = EntryFamily("store_report_cache", "report_cache.disk_hits",
                           "report_cache.disk_misses", "report_cache.disk_corrupt",
                           "report_cache.stores", "report_cache.store_errors")


@dataclass(frozen=True)
class Experiment:
    """A registered experiment."""

    id: str
    description: str
    run: Callable
    #: Raises ``ValueError`` for a config this experiment cannot run (see
    #: :func:`check_experiments`).
    check: Optional[Callable[[ExperimentConfig], None]] = None


EXPERIMENTS: Dict[str, Experiment] = {
    experiment.id: experiment
    for experiment in [
        Experiment(
            "fig2",
            "static (profile) confidence curve",
            fig2_static.run,
        ),
        Experiment(
            "fig5",
            "one-level dynamic methods: PC / BHR / PCxorBHR vs static",
            fig5_one_level.run,
        ),
        Experiment(
            "fig6",
            "two-level dynamic methods",
            fig6_two_level.run,
        ),
        Experiment(
            "fig7",
            "best one-level vs best two-level vs static",
            fig7_comparison.run,
        ),
        Experiment(
            "fig8",
            "reduction functions: ideal / ones count / saturating / resetting",
            fig8_reductions.run,
        ),
        Experiment(
            "table1",
            "resetting counter value statistics",
            table1_resetting.run,
        ),
        Experiment(
            "fig9",
            "per-benchmark variation (best vs worst)",
            fig9_benchmarks.run,
        ),
        Experiment(
            "fig10",
            "small confidence tables on the 4K predictor",
            fig10_small_tables.run,
        ),
        Experiment(
            "fig11",
            "CT initialization policies",
            fig11_initialization.run,
        ),
        Experiment(
            "ablation-indexing",
            "XOR vs concatenation vs global-CIR index formation",
            ablation_indexing.run,
        ),
        Experiment(
            "ablation-counter-width",
            "resetting counter width sweep",
            ablation_counter_width.run,
        ),
        Experiment(
            "ablation-context-switch",
            "CT state across context switches (lastbit conjecture)",
            ablation_context_switch.run,
        ),
        Experiment(
            "ablation-suite-seed",
            "robustness: SPEC-like suite comparison + seed sweep",
            ablation_suite_seed.run,
        ),
        Experiment(
            "ablation-trace-length",
            "warmup sensitivity: key quantities vs trace length",
            ablation_trace_length.run,
        ),
        Experiment(
            "extension-cost",
            "storage cost vs capture for the main mechanisms (paper §5.3)",
            extension_cost.run,
        ),
        Experiment(
            "extension-multilevel",
            "multi-level confidence classes (the paper's unpursued generalization)",
            extension_multilevel.run,
        ),
        Experiment(
            "extension-metrics",
            "SENS/SPEC/PVP/PVN quality metrics across mechanisms",
            extension_metrics.run,
        ),
        Experiment(
            "extension-pipeline",
            "dual-path and SMT gating on the pipeline timing model",
            extension_pipeline.run,
        ),
        Experiment(
            "extension-crossval",
            "leave-one-out generalization of the profile-designed reduction",
            extension_crossval.run,
            check=extension_crossval.check_config,
        ),
    ]
}


def list_experiments() -> List[Experiment]:
    """All registered experiments, in registration order."""
    return list(EXPERIMENTS.values())


def get_experiment(experiment_id: str) -> Experiment:
    """Look up an experiment by id; raise ``KeyError`` with guidance."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(EXPERIMENTS)
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known ids: {known}"
        ) from None


def check_experiments(
    experiment_ids: Sequence[str], config: ExperimentConfig
) -> None:
    """Fail fast, before any work: unknown ids raise ``KeyError``, and a
    config an experiment cannot run raises its ``ValueError``."""
    for experiment_id in experiment_ids:
        check = get_experiment(experiment_id).check
        if check is not None:
            check(config)


@dataclass(frozen=True)
class ExperimentReport:
    """One experiment's formatted report plus its wall-time accounting."""

    experiment_id: str
    description: str
    text: str
    seconds: float


def _timed_call(function: Callable[[], T]) -> Tuple[T, float]:
    """``function()`` and the seconds it took.

    Wall-time accounting only; the seconds never feed a report's text.
    """
    start = time.perf_counter()  # reprolint: disable=R001
    value = function()
    return value, time.perf_counter() - start  # reprolint: disable=R001


def run_experiment_report(
    experiment_id: str, config: ExperimentConfig
) -> ExperimentReport:
    """Run one experiment and capture its formatted report and wall time."""
    experiment = get_experiment(experiment_id)

    def report() -> str:
        with observability.timed(f"experiment.{experiment_id}.seconds"):
            result = experiment.run(config)
        return result.format()

    text, seconds = _timed_call(report)
    return ExperimentReport(
        experiment_id=experiment.id,
        description=experiment.description,
        text=text,
        seconds=seconds,
    )


def report_key(experiment_id: str, config: ExperimentConfig) -> Dict[str, Any]:
    """Store key of one cached report (see the module docstring)."""
    key = result_identity(config)
    key["experiment_id"] = experiment_id
    return key


def _report_entry_path(key: Dict[str, Any]) -> Path:
    """Store path of the report stored under ``key``."""
    return sweep_cache_dir() / f"report-{key['experiment_id']}-{key_digest(key)[:16]}{ENTRY_SUFFIX}"


def load_report(
    experiment_id: str, config: ExperimentConfig
) -> Optional[ExperimentReport]:
    """The stored report of ``experiment_id`` under ``config``, or None.

    Reads the store even when ``REPRO_CACHE_DISABLE`` is set; deciding
    whether to look is the caller's job.  A hit's ``seconds`` is the
    time the load took, so it never claims work that did not run.  An
    entry whose text is not one unicode string, or whose stored id
    differs from the key's, is dropped as corrupt.
    """
    key = report_key(experiment_id, config)

    def decode(arrays: Dict[str, np.ndarray], fields: Dict[str, Any]) -> ExperimentReport:
        text = arrays["text"]
        if text.dtype.kind != "U" or text.shape != ():
            raise ValueError(f"report entry text has dtype {text.dtype}, shape {text.shape}")
        if fields["experiment_id"] != experiment_id:
            raise ValueError("report entry id differs from its key")
        return ExperimentReport(experiment_id, str(fields["description"]), str(text), 0.0)

    report, seconds = _timed_call(
        lambda: get(REPORT_CACHE, _report_entry_path(key), key, decode)
    )
    return None if report is None else dataclasses.replace(report, seconds=seconds)


def store_report(report: ExperimentReport, config: ExperimentConfig) -> Optional[Path]:
    """Persist ``report`` under its key; the path, or None on failure.

    Writes even when ``REPRO_CACHE_DISABLE`` is set (see
    :func:`load_report`).
    """
    key = report_key(report.experiment_id, config)
    fields = {"experiment_id": report.experiment_id, "description": report.description}
    return put(REPORT_CACHE, _report_entry_path(key), key, {"text": np.array(report.text)}, fields)


def run_all_reports(
    config: ExperimentConfig,
    experiment_ids: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
) -> List[ExperimentReport]:
    """Reports for several experiments, optionally over a process pool.

    Every requested report is first looked up in the store; only the
    misses are computed, and the parent stores each computed report.
    With ``REPRO_CACHE_DISABLE`` set it neither reads nor writes a
    report entry.  ``jobs`` defaults to ``config.jobs``.  With two or
    more misses and ``jobs > 1`` they go to a pool whose workers run
    with ``config.jobs`` forced to 1 (the pool already provides the
    parallelism) and populate the shared persistent stream cache;
    reports come back in the requested order,
    byte-identical to a serial run.  The pool is fault-tolerant
    (:func:`repro.utils.resilient.resilient_map`): crashed workers are
    re-run, slow ones time out and retry per
    ``config.task_timeout``/``config.max_retries``, and repeated pool
    loss degrades to computing the remainder serially in the parent.
    """
    ids = (
        list(experiment_ids)
        if experiment_ids is not None
        else [experiment.id for experiment in list_experiments()]
    )
    check_experiments(ids, config)  # pre-pool
    jobs = config.jobs if jobs is None else jobs
    cached = cache_enabled()
    reports: Dict[str, ExperimentReport] = {}
    if cached:
        for experiment_id in ids:
            report = load_report(experiment_id, config)
            if report is not None:
                reports[experiment_id] = report
    missing = [experiment_id for experiment_id in ids if experiment_id not in reports]
    if jobs <= 1 or len(missing) <= 1:
        computed = [run_experiment_report(experiment_id, config) for experiment_id in missing]
    else:
        from repro.utils.resilient import resilient_map

        worker_config = config.scaled(jobs=1)
        computed = resilient_map(
            run_experiment_report,
            [(experiment_id, worker_config) for experiment_id in missing],
            jobs=min(jobs, len(missing)),
            keys=missing,
            max_retries=config.max_retries,
            task_timeout=config.task_timeout,
        )
    for report in computed:
        if cached:
            store_report(report, config)
        reports[report.experiment_id] = report
    return [reports[experiment_id] for experiment_id in ids]
