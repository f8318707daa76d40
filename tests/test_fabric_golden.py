"""Fabric equivalence: sharded runs must be byte-identical to serial.

The acceptance bar for the run fabric is that ``repro run-all`` output
is the same byte stream whether it was produced serially, by a single
``--shards 1`` worker, or by a multi-worker fleet — at every chunk-size
regime (per-branch chunks, the default 1024, and monolithic full-stream
entries) — and that a cold fleet computes every work unit exactly once.
Serial and sharded runs share one family of report entries, so each
replays the other's reports.
"""

import json
import multiprocessing
from pathlib import Path

import pytest

from repro import observability
from repro.cli import main
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import run_all_reports
from repro.fabric.plan import build_plan
from repro.fabric.runtime import (
    FabricOptions,
    default_fabric_dir,
    fabric_complete,
    fabric_status,
    merge_reports_text,
    run_worker,
    write_plan_manifest,
)
from repro.sim.cache import clear_stream_cache
from repro.sim.diskcache import ENTRY_SUFFIX, sweep_cache_dir

#: fig10 reads the small-predictor geometry, so the plan's dependency
#: wiring (not just the default-geometry path) is on the line.
IDS = ["table1", "fig5", "fig10"]

#: (chunk_size, trace_length) pairs pinning the three cache regimes:
#: per-branch chunk entries, the default chunk size, and monolithic
#: full-stream entries.
REGIMES = [(1, 400), (1024, 2000), (None, 2000)]

#: ``run-all`` flags of the CLI tests.
CONFIG_FLAGS = [
    "--benchmarks", "jpeg_play", "gcc",
    "--length", "2000",
    "--experiments", *IDS,
]

#: One fabric shard over :data:`CONFIG_FLAGS`.
SHARD = ["run-all", "--shards", "1", "--shard-id", "0", *CONFIG_FLAGS]


def make_config(chunk_size, length):
    return ExperimentConfig(
        benchmarks=("jpeg_play", "gcc"),
        trace_length=length,
        chunk_size=chunk_size,
    )


def serial_text(config):
    reports = run_all_reports(config, experiment_ids=IDS, jobs=1)
    return "".join(
        f"=== {r.experiment_id}: {r.description}\n{r.text}\n\n"
        for r in reports
    )


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    def activate(name):
        cache = tmp_path / name
        cache.mkdir()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        clear_stream_cache()
        observability.reset_metrics()
        return cache

    yield activate
    clear_stream_cache()
    observability.reset_metrics()


@pytest.mark.parametrize("chunk_size,length", REGIMES)
def test_single_shard_matches_serial(chunk_size, length, fresh_cache):
    config = make_config(chunk_size, length)
    fresh_cache("serial")
    golden = serial_text(config)

    cache = fresh_cache("fabric")
    fabric_dir = cache / "fabric"
    result = run_worker(
        config, IDS, FabricOptions(shards=1, fabric_dir=fabric_dir)
    )
    assert fabric_complete(config, IDS)
    assert merge_reports_text(config, IDS) == golden
    # A cold single shard computes everything and warm-skips nothing.
    plan = build_plan(config, IDS)
    assert sorted(result.computed) == sorted(u.name for u in plan.units)
    assert result.skipped_warm == []


@pytest.mark.parametrize("chunk_size,length", REGIMES)
def test_three_worker_fleet_matches_serial(chunk_size, length, fresh_cache):
    config = make_config(chunk_size, length)
    fresh_cache("serial")
    golden = serial_text(config)

    cache = fresh_cache("fabric")
    fabric_dir = cache / "fabric"
    plan = build_plan(config, IDS)
    computed = []
    # Static no-steal partition in two phases, like the critical-path
    # gate: every unit is attributable to exactly one shard.
    for phase in ("streams", "reports"):
        for shard_id in range(3):
            result = run_worker(
                config,
                IDS,
                FabricOptions(
                    shards=3,
                    shard_id=shard_id,
                    fabric_dir=fabric_dir,
                    no_steal=True,
                    phase=phase,
                ),
            )
            computed.extend(result.computed)
    assert merge_reports_text(config, IDS) == golden
    # Exactly once fleet-wide: no unit computed twice, none missed.
    assert sorted(computed) == sorted(u.name for u in plan.units)


def test_stealing_fleet_run_sequentially_is_exactly_once(fresh_cache):
    config = make_config(1024, 2000)
    cache = fresh_cache("fabric")
    fabric_dir = cache / "fabric"
    plan = build_plan(config, IDS)
    computed = []
    warm = []
    for shard_id in range(3):
        result = run_worker(
            config,
            IDS,
            FabricOptions(shards=3, shard_id=shard_id, fabric_dir=fabric_dir),
        )
        computed.extend(result.computed)
        warm.extend(result.skipped_warm)
    # Sequentially, the first worker drains the whole plan; the others
    # observe every unit done — never recompute it.
    assert sorted(computed) == sorted(u.name for u in plan.units)
    assert len(computed) == len(set(computed))
    assert len(warm) == 2 * len(plan.units)


def _worker_process(config, fabric_dir, shard_id, results):
    result = run_worker(
        config,
        IDS,
        FabricOptions(shards=2, shard_id=shard_id, fabric_dir=fabric_dir),
    )
    results.put((shard_id, result.computed))


def test_two_concurrent_stealing_workers_compute_each_unit_once(fresh_cache):
    # Two live processes race for the same leases: the claim protocol,
    # not test sequencing, must keep every unit computed exactly once
    # and every shared artifact written by its lease holder only.
    config = make_config(1024, 2000)
    fresh_cache("serial")
    golden = serial_text(config)

    cache = fresh_cache("fabric")
    fabric_dir = cache / "fabric"
    context = multiprocessing.get_context("spawn")
    results = context.Queue()
    workers = [
        context.Process(
            target=_worker_process, args=(config, fabric_dir, shard_id, results)
        )
        for shard_id in range(2)
    ]
    for worker in workers:
        worker.start()
    computed = dict(results.get(timeout=300) for _ in workers)
    for worker in workers:
        worker.join(timeout=60)
        assert worker.exitcode == 0

    plan = build_plan(config, IDS)
    fleet = computed[0] + computed[1]
    assert len(fleet) == len(set(fleet)), "a unit was computed twice"
    assert sorted(fleet) == sorted(u.name for u in plan.units)
    assert merge_reports_text(config, IDS) == golden


def rerun_a_finished_fabric(tmp_path, monkeypatch=None):
    """A one-shard pass over a plan its own earlier pass finished.

    Needs a private cache dir in ``REPRO_CACHE_DIR``; counters cover the
    second pass only.  ``tests/test_taxonomy.py`` drives
    ``fabric.warm_skips`` through it.
    """
    config = make_config(1024, 2000)
    options = FabricOptions(shards=1, fabric_dir=tmp_path / "fabric")
    run_worker(config, IDS, options)
    observability.reset_metrics()
    return run_worker(config, IDS, options)


def test_warm_fabric_pass_is_pool_free_and_computes_nothing(fresh_cache):
    result = rerun_a_finished_fabric(fresh_cache("fabric"))
    plan = build_plan(make_config(1024, 2000), IDS)
    assert result.computed == []
    assert len(result.skipped_warm) == len(plan.units)
    assert observability.counter_value("fabric.warm_skips") == len(plan.units)
    assert observability.counter_value("pool.started") == 0
    assert observability.counter_value("stream_cache.chunk_sweeps") == 0
    assert observability.counter_value("stream_cache.sweeps") == 0


def test_run_all_shards_cli_matches_serial(fresh_cache, capsys):
    fresh_cache("serial")
    assert main(["run-all", *CONFIG_FLAGS]) == 0
    golden = capsys.readouterr().out

    fresh_cache("sharded")
    assert main(["run-all", "--shards", "1", *CONFIG_FLAGS]) == 0
    assert capsys.readouterr().out == golden


def test_fabric_over_a_serial_cache_computes_no_report(fresh_cache, capsys):
    fresh_cache("shared")
    assert main(["run-all", *CONFIG_FLAGS]) == 0
    golden = capsys.readouterr().out

    observability.reset_metrics()
    clear_stream_cache()
    assert main(SHARD) == 0
    assert capsys.readouterr().out == golden
    config = make_config(None, 2000)
    metrics = default_fabric_dir(config, IDS) / "metrics" / "shard0.json"
    computed = json.loads(metrics.read_text())["computed"]
    assert not [name for name in computed if name.startswith("report-")], computed
    assert observability.counter_value("report_cache.stores") == 0


def test_serial_run_replays_a_fabric_run(fresh_cache, capsys):
    fresh_cache("shared")
    assert main(SHARD) == 0
    sharded = capsys.readouterr().out

    observability.reset_metrics()
    clear_stream_cache()
    assert main(["run-all", *CONFIG_FLAGS]) == 0
    assert capsys.readouterr().out == sharded
    assert observability.counter_value("report_cache.disk_hits") == len(IDS)
    assert observability.counter_value("report_cache.stores") == 0


def test_warm_single_shard_loads_each_report_twice(fresh_cache, capsys, tmp_path):
    fresh_cache("serial")
    assert main(["run-all", *CONFIG_FLAGS]) == 0
    golden = capsys.readouterr().out

    fresh_cache("sharded")
    assert main(SHARD) == 0
    capsys.readouterr()
    observability.reset_metrics()
    clear_stream_cache()
    profile = tmp_path / "warm.json"
    assert main([*SHARD, "--profile", str(profile)]) == 0
    assert capsys.readouterr().out == f"{golden}\nwrote {profile}\n"
    counters = json.loads(profile.read_text())["counters"]
    # One load in the worker's done-check and one in the merge.
    assert counters["report_cache.disk_hits"] == 2 * len(IDS)


def test_merge_has_no_fabric_dir_option(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["fabric", "merge", *CONFIG_FLAGS, "--fabric-dir", "elsewhere"])
    assert exit_info.value.code == 2
    assert "--fabric-dir" in capsys.readouterr().err


def _report_entry(experiment_id: str) -> Path:
    (entry,) = sweep_cache_dir().glob(f"report-{experiment_id}-*{ENTRY_SUFFIX}")
    return entry


def test_corrupt_report_is_recomputed_by_cli_and_refused_by_merge(fresh_cache, capsys):
    fresh_cache("serial")
    assert main(["run-all", *CONFIG_FLAGS]) == 0
    golden = capsys.readouterr().out

    cache = fresh_cache("sharded")
    fabric_flags = ["--fabric-dir", str(cache / "fabric")]
    shard = [*SHARD, *fabric_flags]
    assert main(shard) == 0
    assert capsys.readouterr().out == golden
    report = _report_entry("fig5")

    report.write_bytes(report.read_bytes()[:100])  # truncated on disk
    assert main(shard) == 0
    assert capsys.readouterr().out == golden
    assert observability.counter_value("report_cache.disk_corrupt") == 1

    report = _report_entry("fig5")
    report.write_bytes(b"not a report")
    with pytest.raises(SystemExit) as exit_info:
        main(["fabric", "merge", *CONFIG_FLAGS])
    message = str(exit_info.value.code)
    assert "'fig5'" in message and "\n" not in message
    assert capsys.readouterr().out == ""


def test_worker_rejects_bad_shard_geometry(fresh_cache):
    config = make_config(1024, 2000)
    with pytest.raises(ValueError):
        run_worker(config, IDS, FabricOptions(shards=0))
    with pytest.raises(ValueError):
        run_worker(config, IDS, FabricOptions(shards=2, shard_id=2))


def _manifest_with(tmp_path, edit):
    """A valid plan manifest, passed through ``edit`` (dict -> dict)."""
    path = write_plan_manifest(make_config(1024, 2000), IDS, tmp_path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return path


def _with_unknown_field(payload):
    payload["config"]["nosuch"] = 1
    return payload


def _with_wrong_digest(payload):
    payload["digest"] = "0" * 16
    return payload


@pytest.mark.parametrize(
    "make_plan,message",
    [
        (lambda tmp: tmp / "missing.json", "cannot read plan manifest"),
        (lambda tmp: _write(tmp / "plan.json", "{not json"), "JSONDecodeError"),
        (lambda tmp: _manifest_with(tmp, _with_unknown_field), "nosuch"),
        (lambda tmp: _manifest_with(tmp, _with_wrong_digest), "digest mismatch"),
    ],
    ids=["missing", "malformed-json", "unknown-field", "digest-mismatch"],
)
def test_worker_rejects_bad_plan_manifest(make_plan, message, fresh_cache, tmp_path):
    plan = make_plan(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["fabric", "worker", "--plan", str(plan)])
    text = str(exit_info.value.code)
    assert message in text
    assert "\n" not in text


def _write(path, text):
    path.write_text(text)
    return path


def test_fabric_status_reports_progress(fresh_cache):
    config = make_config(1024, 2000)
    cache = fresh_cache("fabric")
    fabric_dir = cache / "fabric"
    plan = build_plan(config, IDS)
    before = fabric_status(config, IDS, fabric_dir)
    assert "0/%d units done" % len(plan.units) in before
    run_worker(config, IDS, FabricOptions(shards=1, fabric_dir=fabric_dir))
    after = fabric_status(config, IDS, fabric_dir)
    assert "%d/%d units done" % (len(plan.units), len(plan.units)) in after
