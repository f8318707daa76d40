"""Experiment registry: id -> (runner, description).

Used by the CLI (``repro run fig5``) and the benchmark harness.  The
registry is also the unit of parallelism for ``repro run-all --jobs N``:
:func:`run_all_reports` hands :func:`run_experiment_report` itself to
:func:`repro.utils.resilient.resilient_map`, one task per experiment id
(also the task's fault key), and the formatted reports come back in
registration order, so the combined output is byte-identical to a
serial run.  Only the report crosses the process boundary; result
objects stay in the worker.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

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
from repro.experiments.config import ExperimentConfig


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


def run_experiment_report(
    experiment_id: str, config: ExperimentConfig
) -> ExperimentReport:
    """Run one experiment and capture its formatted report and wall time."""
    experiment = get_experiment(experiment_id)
    # Wall-time accounting only; never feeds the report's statistics.
    start = time.perf_counter()  # reprolint: disable=R001
    with observability.timed(f"experiment.{experiment_id}.seconds"):
        result = experiment.run(config)
    return ExperimentReport(
        experiment_id=experiment.id,
        description=experiment.description,
        text=result.format(),
        seconds=time.perf_counter() - start,  # reprolint: disable=R001
    )


def run_all_reports(
    config: ExperimentConfig,
    experiment_ids: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
) -> List[ExperimentReport]:
    """Reports for several experiments, optionally over a process pool.

    ``jobs`` defaults to ``config.jobs``.  Workers run with
    ``config.jobs`` forced to 1 (the pool already provides the
    parallelism) and populate the shared persistent stream cache; reports
    come back in the requested order, byte-identical to a serial run.
    The pool is fault-tolerant (:func:`repro.utils.resilient.resilient_map`):
    crashed workers are re-run, slow ones time out and retry per
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
    if jobs <= 1 or len(ids) <= 1:
        return [run_experiment_report(experiment_id, config) for experiment_id in ids]

    from repro.utils.resilient import resilient_map

    worker_config = config.scaled(jobs=1)
    return resilient_map(
        run_experiment_report,
        [(experiment_id, worker_config) for experiment_id in ids],
        jobs=min(jobs, len(ids)),
        keys=ids,
        max_retries=config.max_retries,
        task_timeout=config.task_timeout,
    )
