"""Key coverage of the cached experiment reports.

``run_all_reports`` stores every report it computes under
:func:`~repro.experiments.registry.report_key` and replays it on a
later run.  An input the key misses would replay another
configuration's report, and a knob the key holds needlessly would
fragment the store.  So, by running the reports over a copy of a cache
filled by a base run:

* every :class:`ExperimentConfig` field is either keyed, and its
  perturbation misses every base entry, or a named execution knob
  (:data:`~repro.experiments.config.EXECUTION_KNOBS`), and its
  perturbation hits them and equals a recomputation with the store
  disabled (a new field without a decision fails the test);
* a changed program digest misses every entry;
* an all-hit run loads no stream, sweeps no grid and starts no pool,
  and a partially warm pool run computes only its misses.
"""

from __future__ import annotations

import dataclasses
import shutil
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import pytest

from repro import observability
from repro.experiments.config import EXECUTION_KNOBS, ExperimentConfig
from repro.experiments.registry import run_all_reports
from repro.sim import diskcache
from repro.sim.cache import clear_stream_cache
from repro.sim.diskcache import ENTRY_SUFFIX

IDS = ("fig5", "table1")

BASE = ExperimentConfig(benchmarks=("jpeg_play", "gcc"), trace_length=1_000)

#: One perturbed value per ``ExperimentConfig`` field, and whether the
#: field must reach the key.  ``chunk_size`` does, although reports are
#: identical at any value: chunked and unchunked runs keep their own
#: entries, so each still exercises its own path.
PERTURBATIONS: Dict[str, Tuple[object, bool]] = {
    "benchmarks": (("jpeg_play", "nroff"), True),
    "trace_length": (1_200, True),
    "seed": (7, True),
    "predictor_entries": (1 << 12, True),
    "predictor_history_bits": (12, True),
    "ct_index_bits": (12, True),
    "cir_bits": (12, True),
    "headline_percent": (30.0, True),
    "chunk_size": (256, True),
    "jobs": (2, False),
    "max_retries": (0, False),
    "task_timeout": (60.0, False),
}


def missing_decisions(config_type: type = ExperimentConfig) -> List[str]:
    """Fields of ``config_type`` that the table neither keys nor exempts."""
    return [
        field.name
        for field in dataclasses.fields(config_type)
        if field.name not in PERTURBATIONS
    ]


def texts(config: ExperimentConfig, ids: Sequence[str] = IDS) -> Tuple[str, ...]:
    clear_stream_cache()
    return tuple(report.text for report in run_all_reports(config, experiment_ids=ids))


def recomputed(config: ExperimentConfig, ids: Sequence[str] = IDS) -> Tuple[str, ...]:
    """The reports of ``config`` with the store disabled."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        return texts(config, ids)


def report_entries(cache: Path) -> List[str]:
    return sorted(path.name for path in cache.glob(f"sweep_results/report-*{ENTRY_SUFFIX}"))


@pytest.fixture(scope="module")
def filled_cache(tmp_path_factory) -> Path:
    """A cache holding the base run's report entries (and every tier)."""
    cache = tmp_path_factory.mktemp("base-cache")
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        texts(BASE)
    clear_stream_cache()
    assert len(report_entries(cache)) == len(IDS)
    return cache


@pytest.fixture
def base_cache(filled_cache, cache_dir) -> Path:
    """A private copy of the filled cache; counters zeroed."""
    shutil.copytree(filled_cache, cache_dir, dirs_exist_ok=True)
    return cache_dir


def counter(name: str) -> int:
    return observability.counter_value(name)


def test_every_field_has_a_decision():
    assert missing_decisions() == []
    names = {field.name for field in dataclasses.fields(ExperimentConfig)}
    assert set(PERTURBATIONS) <= names, "table names a field that is gone"
    exempt = {name for name, (_, keyed) in PERTURBATIONS.items() if not keyed}
    assert exempt == set(EXECUTION_KNOBS)


def test_a_field_without_a_decision_is_reported():
    extended = dataclasses.make_dataclass(
        "ExtendedConfig",
        [("speculative_depth", int, 4)],
        bases=(ExperimentConfig,),
        frozen=True,
    )
    assert missing_decisions(extended) == ["speculative_depth"]


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
def test_config_field(name, base_cache):
    value, keyed = PERTURBATIONS[name]
    config = BASE.scaled(**{name: value})
    warm = texts(config)
    if keyed:
        assert counter("report_cache.disk_hits") == 0
        assert counter("report_cache.disk_misses") == len(IDS)
        assert counter("report_cache.stores") == len(IDS)
        return
    assert counter("report_cache.disk_hits") == len(IDS)
    assert counter("report_cache.stores") == 0
    assert warm == recomputed(config)


def test_program_digest_reaches_the_key(base_cache, monkeypatch):
    monkeypatch.setattr(diskcache, "program_digest", lambda: "edited")
    warm = texts(BASE)
    assert counter("report_cache.disk_hits") == 0
    assert counter("report_cache.disk_misses") == len(IDS)
    # Every stream and grid entry is keyed by the digest too.
    assert counter("sweep_cache.disk_hits") == 0
    assert counter("batched.grid_sweeps") > 0
    assert warm == recomputed(BASE)


def test_program_digest_covers_every_source_file(tmp_path, monkeypatch):
    """Any ``*.py`` under the package, at any depth, changes the digest."""
    package = tmp_path / "repro"
    (package / "workloads").mkdir(parents=True)
    (package / "sim").mkdir()
    for relative in ("__init__.py", "workloads/ibs.py", "sim/diskcache.py"):
        (package / relative).write_text("VALUE = 1\n")
    monkeypatch.setattr(diskcache, "__file__", str(package / "sim" / "diskcache.py"))

    def digest() -> str:
        diskcache.program_digest.cache_clear()
        return diskcache.program_digest()

    try:
        base = digest()
        (package / "workloads" / "ibs.py").write_text("VALUE = 2\n")
        edited = digest()
        (package / "workloads" / "notes.txt").write_text("not source\n")
        assert digest() == edited
    finally:
        # The next caller recomputes the real package's digest.
        diskcache.program_digest.cache_clear()
    assert edited != base


def test_all_hit_run_does_no_work(base_cache):
    reports = run_all_reports(BASE.scaled(jobs=2), experiment_ids=IDS)
    assert counter("report_cache.disk_hits") == len(IDS)
    assert counter("pool.started") == 0
    assert counter("batched.grid_sweeps") == 0
    for name in ("stream_cache.disk_hits", "stream_cache.chunk_hits",
                 "stream_cache.sweeps", "sweep_cache.disk_hits"):
        assert counter(name) == 0, name
    # A hit's seconds is its load time, not the old compute time.
    assert all(0.0 < report.seconds < 1.0 for report in reports)
    assert tuple(report.text for report in reports) == recomputed(BASE)


def test_partially_warm_pool_run_computes_only_the_misses(base_cache):
    ids = ("fig5", "fig2", "table1", "fig8")
    warm = texts(BASE.scaled(jobs=2), ids)
    assert counter("report_cache.disk_hits") == 2
    assert counter("report_cache.disk_misses") == 2
    assert counter("report_cache.stores") == 2
    assert counter("pool.started") == 1
    timers = observability.snapshot()["timers"]
    assert {"experiment.fig2.seconds", "experiment.fig8.seconds"} <= set(timers)
    assert not {"experiment.fig5.seconds", "experiment.table1.seconds"} & set(timers)
    assert warm == recomputed(BASE, ids)


def test_disabled_store_reads_and_writes_no_report(tmp_path, monkeypatch):
    cache = tmp_path / "absent"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
    observability.reset_metrics()
    texts(BASE)
    assert not cache.exists()
    assert not any(name.startswith("report_cache.")
                   for name in observability.snapshot()["counters"])
