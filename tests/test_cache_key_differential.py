"""Differential cache-key test: every result-changing config field is keyed.

The bucket statistics behind the paper's figures depend on the trace,
the seed and the predictor and confidence-table geometry.  If a config
field that changes a result never reaches a cache key, a warm run
replays another config's entries and nothing reports it.  This test
checks that by running the code instead of reading it:

* every :class:`ExperimentConfig` field has one perturbed value in
  :data:`PERTURBATIONS` (a new field without an entry fails the test);
* for each field, a warm run of the perturbed config over a copy of a
  cache filled by the base config must print the same reports as a
  cold run of the perturbed config (a mismatch is a stale replay);
* a perturbation that leaves every report unchanged (an execution knob
  such as ``jobs``) must not add ``sweep_results/`` entries to the warm
  cache (a key that fragments the cache).

A self-check pins ``seed=0`` inside the key builders and asserts that
the checker then flags ``seed``.
"""

from __future__ import annotations

import dataclasses
import shutil
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import run_all_reports
from repro.sim import cache
from repro.sim.cache import clear_stream_cache

#: Experiments covering every statistics helper, the small-predictor
#: geometry (fig10) and the CIR initializations (fig11).
IDS = (
    "fig5",
    "fig10",
    "fig11",
    "table1",
    "ablation-indexing",
    "ablation-counter-width",
)

BASE = ExperimentConfig(
    benchmarks=("jpeg_play", "gcc"), trace_length=1_000, chunk_size=256
)

#: One perturbed value per ``ExperimentConfig`` field, and whether that
#: value changes the reports.
PERTURBATIONS: Dict[str, Tuple[object, bool]] = {
    "benchmarks": (("jpeg_play", "nroff"), True),
    "trace_length": (1_200, True),
    "seed": (7, True),
    "predictor_entries": (1 << 12, True),
    "predictor_history_bits": (12, True),
    "ct_index_bits": (12, True),
    "cir_bits": (12, True),
    "headline_percent": (30.0, True),
    "jobs": (2, False),
    "chunk_size": (None, False),
    "max_retries": (0, False),
    "task_timeout": (60.0, False),
}


def missing_perturbations(config_type: type = ExperimentConfig) -> List[str]:
    """Fields of ``config_type`` that have no entry in the table."""
    return [
        field.name
        for field in dataclasses.fields(config_type)
        if field.name not in PERTURBATIONS
    ]


def run_reports(
    config: ExperimentConfig, cache_dir: Path, monkeypatch: pytest.MonkeyPatch
) -> Tuple[str, ...]:
    """Report texts of :data:`IDS`, as a fresh process over ``cache_dir``."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    clear_stream_cache()
    return tuple(
        report.text for report in run_all_reports(config, experiment_ids=IDS)
    )


def sweep_entries(cache_dir: Path) -> List[str]:
    return sorted(path.name for path in cache_dir.glob("sweep_results/*.npz"))


def check_field(
    name: str,
    base_cache: Path,
    base_reports: Tuple[str, ...],
    workdir: Path,
    monkeypatch: pytest.MonkeyPatch,
) -> List[str]:
    """Problems found for one field's perturbation (empty when sound)."""
    value, changes_reports = PERTURBATIONS[name]
    config = BASE.scaled(**{name: value})
    cold = run_reports(config, workdir / "cold", monkeypatch)
    warm_cache = workdir / "warm"
    shutil.copytree(base_cache, warm_cache)
    entries_before = sweep_entries(warm_cache)
    warm = run_reports(config, warm_cache, monkeypatch)

    problems = []
    if warm != cold:
        problems.append(
            f"{name}: a warm run over the base config's cache differs from a "
            "cold run (stale replay: the field never reaches a cache key)"
        )
    if (cold != base_reports) != changes_reports:
        problems.append(
            f"{name}: perturbation to {value!r} "
            f"{'leaves the reports unchanged' if changes_reports else 'changes the reports'}"
            "; fix its PERTURBATIONS entry"
        )
    if not changes_reports and sweep_entries(warm_cache) != entries_before:
        problems.append(
            f"{name}: leaves every report unchanged but adds sweep_results/ "
            "entries (the field fragments the cache key)"
        )
    return problems


@pytest.fixture(scope="module")
def base_run(tmp_path_factory) -> Tuple[Path, Tuple[str, ...]]:
    """A cache filled by the base config, and the base config's reports."""
    base_cache = tmp_path_factory.mktemp("base-cache")
    with pytest.MonkeyPatch.context() as monkeypatch:
        reports = run_reports(BASE, base_cache, monkeypatch)
    clear_stream_cache()
    return base_cache, reports


@pytest.fixture
def check(base_run, tmp_path, monkeypatch):
    base_cache, base_reports = base_run

    def run(name: str) -> List[str]:
        try:
            return check_field(name, base_cache, base_reports, tmp_path, monkeypatch)
        finally:
            clear_stream_cache()

    return run


def test_every_config_field_has_a_perturbation():
    assert missing_perturbations() == []
    names = {field.name for field in dataclasses.fields(ExperimentConfig)}
    assert set(PERTURBATIONS) <= names, "table names a field that is gone"


def test_a_field_without_a_perturbation_is_reported():
    extended = dataclasses.make_dataclass(
        "ExtendedConfig",
        [("speculative_depth", int, 4)],
        bases=(ExperimentConfig,),
        frozen=True,
    )
    assert missing_perturbations(extended) == ["speculative_depth"]


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
def test_warm_replay_matches_cold_run(name, check):
    assert check(name) == []


def test_checker_flags_a_key_that_ignores_seed(check, monkeypatch):
    def pinned(builder):
        def build(*args, **kwargs):
            kwargs["seed"] = 0
            return builder(*args, **kwargs)

        return build

    monkeypatch.setattr(cache, "stream_key", pinned(cache.stream_key))
    monkeypatch.setattr(
        runner, "sweep_result_key", pinned(runner.sweep_result_key)
    )
    problems = check("seed")
    assert any("seed: a warm run" in problem for problem in problems), problems
