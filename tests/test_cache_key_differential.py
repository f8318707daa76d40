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
  such as ``jobs``) must not add grid results to ``sweep_results/`` in
  the warm cache (a key that fragments the cache).

The warm copy holds no cached report: those would answer before any
stream or grid entry is read, and ``tests/test_report_entry_key.py``
covers their key.

Every entry is also keyed by the program digest, so an edit to the code
or to a workload definition reaches every family: with the digest
changed, a warm run over a cache holding stream, chunk, sweep, pipeline
and report entries hits none of them (its hits are those a cold run
makes on what it wrote itself) and prints the cold reports.

A self-check pins ``seed=0`` inside the key builders and asserts that
the checker then flags ``seed``.
"""

from __future__ import annotations

import dataclasses
import shutil
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro import observability
from repro.experiments import extension_pipeline, runner
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import run_all_reports
from repro.sim import cache, diskcache
from repro.sim.cache import clear_stream_cache
from repro.sim.diskcache import ENTRY_SUFFIX

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
    """The grid results of ``sweep_results/``, without cached reports."""
    return sorted(
        path.name
        for path in cache_dir.glob(f"sweep_results/*{ENTRY_SUFFIX}")
        if not path.name.startswith("report-")
    )


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
    for report in warm_cache.glob(f"sweep_results/report-*{ENTRY_SUFFIX}"):
        report.unlink()
    entries_before = sweep_entries(warm_cache)
    observability.reset_metrics()
    warm = run_reports(config, warm_cache, monkeypatch)

    problems = []
    if observability.counter_value("report_cache.disk_hits"):
        problems.append(f"{name}: the warm run replayed cached reports")
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


#: A short pipeline run, so the digest case has a pipeline entry.
PIPELINE_LENGTH = 400

#: The entry files of every family, by its counter prefix.
FAMILIES = {
    "stream_cache.disk": "predictor_streams/*",
    "stream_cache.chunk": "stream_chunks/*",
    "sweep_cache.disk": "sweep_results/*-g*",
    "pipeline_cache.disk": "sweep_results/pipeline-*",
    "report_cache.disk": "sweep_results/report-*",
}


def every_family(
    cache_dir: Path, monkeypatch: pytest.MonkeyPatch
) -> "Tuple[Tuple[str, ...], Dict[str, int]]":
    """Reports read through every family, and each family's disk hits.

    The base run reads the chunk tier; ``fig2``, whose grid the base run
    does not sweep, reads the whole-trace tier.  Each part starts with an
    empty stream memo, as a fresh process would.
    """
    observability.reset_metrics()
    reports = run_reports(BASE, cache_dir, monkeypatch)
    clear_stream_cache()
    reports += tuple(report.text for report in run_all_reports(
        BASE.scaled(chunk_size=None), experiment_ids=("fig2",)))
    clear_stream_cache()
    reports += (extension_pipeline.run(BASE, trace_length=PIPELINE_LENGTH).format(),)
    counters = observability.snapshot()["counters"]
    hits = {family: counters.get(f"{family}_hits", 0) for family in FAMILIES}
    return reports, hits


def test_program_digest_reaches_every_family(base_run, tmp_path, monkeypatch):
    base_cache, _ = base_run
    cold, cold_hits = every_family(tmp_path / "cold", monkeypatch)
    warm_cache = tmp_path / "warm"
    shutil.copytree(base_cache, warm_cache)
    assert every_family(warm_cache, monkeypatch)[0] == cold
    for pattern in FAMILIES.values():
        assert list(warm_cache.glob(pattern + ENTRY_SUFFIX)), pattern

    monkeypatch.setattr(diskcache, "program_digest", lambda: "edited")
    edited, edited_hits = every_family(warm_cache, monkeypatch)
    assert edited == cold
    # A cold run reads back what it wrote itself; beyond that, no entry
    # of the old program is hit.
    assert edited_hits == cold_hits
