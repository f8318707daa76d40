"""Parallel experiment runner: worker fan-out must be invisible in results."""

import json

import numpy as np
import pytest

from repro import observability
from repro.cli import main
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import run_all_reports, run_experiment_report
from repro.experiments.runner import one_level_pattern_spec, suite_streams, sweep_grid
from repro.sim import cache as stream_cache
from repro.sim.cache import clear_stream_cache
from repro.sim.diskcache import disk_cache_stats, sweep_cache_dir

CONFIG = ExperimentConfig(benchmarks=("jpeg_play", "gcc"), trace_length=3000)


class TestParallelSuiteStreams:
    def test_matches_serial(self, cache_dir):
        serial = suite_streams(CONFIG)
        clear_stream_cache()
        parallel = suite_streams(CONFIG.scaled(jobs=2))
        assert list(serial) == list(parallel)
        for name in serial:
            assert np.array_equal(serial[name].correct, parallel[name].correct)
            assert np.array_equal(serial[name].bhrs, parallel[name].bhrs)
            assert np.array_equal(serial[name].pcs, parallel[name].pcs)

    def test_workers_populate_shared_disk_cache(self, cache_dir):
        suite_streams(CONFIG.scaled(jobs=2))
        assert disk_cache_stats().entries == len(CONFIG.benchmarks)
        # The parent can now serve the whole suite without a single sweep.
        clear_stream_cache()
        observability.reset_metrics()
        suite_streams(CONFIG)
        assert observability.counter_value("stream_cache.sweeps") == 0
        assert observability.counter_value("stream_cache.disk_hits") == len(
            CONFIG.benchmarks
        )

    def test_worker_metrics_are_merged(self, cache_dir):
        suite_streams(CONFIG.scaled(jobs=2))
        assert observability.counter_value("stream_cache.sweeps") == len(
            CONFIG.benchmarks
        )

    def test_parent_loads_what_the_workers_swept(self, cache_dir):
        suite_streams(CONFIG.scaled(jobs=2))
        # Each request is swept once, by a worker, and the parent reads
        # every stream back from the store.
        benchmarks = len(CONFIG.benchmarks)
        assert observability.counter_value("stream_cache.sweeps") == benchmarks
        assert observability.counter_value("stream_cache.disk_hits") == benchmarks

    def test_jobs_compose_with_chunk_size(self, cache_dir):
        """Regression: jobs > 1 used to silently drop config.chunk_size.

        Workers must sweep through the per-chunk cache tier (bounded
        memory, resumable entries) and still return streams byte-identical
        to a serial monolithic run.
        """
        serial = suite_streams(CONFIG)
        clear_stream_cache()
        observability.reset_metrics()
        parallel = suite_streams(CONFIG.scaled(jobs=2, chunk_size=1024))
        assert list(serial) == list(parallel)
        for name in serial:
            assert np.array_equal(serial[name].correct, parallel[name].correct)
            assert np.array_equal(serial[name].bhrs, parallel[name].bhrs)
            assert np.array_equal(serial[name].pcs, parallel[name].pcs)
        assert observability.counter_value("stream_cache.chunk_sweeps") > 0
        assert observability.counter_value("stream_cache.sweeps") == 0

    def test_warm_disk_runs_stay_serial(self, cache_dir):
        """A warm disk tier must not pay process-pool startup cost."""
        suite_streams(CONFIG)
        clear_stream_cache()
        observability.reset_metrics()
        warm = suite_streams(CONFIG.scaled(jobs=2))
        assert list(warm) == list(CONFIG.benchmarks)
        assert observability.counter_value("pool.started") == 0
        assert observability.counter_value("stream_cache.disk_hits") == len(
            CONFIG.benchmarks
        )
        assert observability.counter_value("stream_cache.sweeps") == 0

    def test_warm_chunk_tier_stays_serial(self, cache_dir):
        chunked = CONFIG.scaled(chunk_size=1024)
        suite_streams(chunked)
        clear_stream_cache()
        observability.reset_metrics()
        warm = suite_streams(chunked.scaled(jobs=2))
        assert list(warm) == list(CONFIG.benchmarks)
        assert observability.counter_value("pool.started") == 0
        assert observability.counter_value("stream_cache.chunk_hits") > 0
        assert observability.counter_value("stream_cache.chunk_sweeps") == 0

    def test_cold_chunk_tier_uses_pool(self, cache_dir):
        observability.reset_metrics()
        suite_streams(CONFIG.scaled(jobs=2, chunk_size=1024))
        assert observability.counter_value("pool.started") == 1


class TestParallelSweepGrid:
    def test_cold_chunked_grid_holds_no_stream_in_the_parent(
        self, cache_dir, monkeypatch
    ):
        config = ExperimentConfig(
            benchmarks=("jpeg_play", "gcc"), trace_length=4096, chunk_size=512
        )
        specs = [one_level_pattern_spec(config)]
        parallel = sweep_grid(config.scaled(jobs=2), specs)
        assert observability.counter_value("pool.started") == 1
        # Workers fill the chunk tier; the parent folds chunk entries and
        # never builds a whole stream.
        assert len(stream_cache._memory) == 0
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        clear_stream_cache()
        serial = sweep_grid(config, specs)
        for name in config.benchmarks:
            assert parallel[0][name].counts.tolist() == serial[0][name].counts.tolist()
            assert (
                parallel[0][name].mispredicts.tolist()
                == serial[0][name].mispredicts.tolist()
            )


class TestRunAllReports:
    IDS = ["fig5", "table1"]

    def test_parallel_reports_byte_identical(self, cache_dir):
        serial = run_all_reports(CONFIG, experiment_ids=self.IDS, jobs=1)
        # Cached reports would answer without a pool.
        for entry in sweep_cache_dir().glob("report-*"):
            entry.unlink()
        observability.reset_metrics()
        parallel = run_all_reports(CONFIG, experiment_ids=self.IDS, jobs=2)
        assert observability.counter_value("pool.started") == 1
        assert observability.counter_value("report_cache.disk_hits") == 0
        assert [r.experiment_id for r in serial] == [r.experiment_id for r in parallel]
        assert [r.text for r in serial] == [r.text for r in parallel]

    def test_reports_carry_description_and_timing(self, cache_dir):
        (report,) = run_all_reports(CONFIG, experiment_ids=["fig5"])
        assert report.experiment_id == "fig5"
        assert "one-level" in report.description
        assert report.seconds > 0.0
        assert report.text == run_experiment_report("fig5", CONFIG).text

    def test_jobs_defaults_to_config(self, cache_dir):
        reports = run_all_reports(
            CONFIG.scaled(jobs=2), experiment_ids=self.IDS
        )
        assert [r.experiment_id for r in reports] == self.IDS

    def test_unknown_id_raises(self, cache_dir):
        with pytest.raises(KeyError):
            run_all_reports(CONFIG, experiment_ids=["fig99"])


class TestCliIntegration:
    def test_run_jobs_flag(self, cache_dir, capsys):
        code = main([
            "run", "fig5",
            "--length", "3000",
            "--benchmarks", "jpeg_play", "gcc",
            "--jobs", "2",
        ])
        assert code == 0
        assert "BHRxorPC" in capsys.readouterr().out

    def test_rejects_non_positive_jobs(self, cache_dir):
        with pytest.raises(SystemExit):
            main(["run", "fig5", "--jobs", "0"])

    def test_profile_export_and_warm_cache(self, cache_dir, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        argv = [
            "run", "fig5",
            "--length", "3000",
            "--benchmarks", "jpeg_play",
            "--profile", str(profile),
        ]
        assert main(argv) == 0
        first = json.loads(profile.read_text())
        assert first["counters"]["stream_cache.sweeps"] == 1
        assert "experiment.fig5.seconds" in first["timers"]
        assert first["extra"]["experiment"] == "fig5"

        # Second invocation from a cold process-memory but warm disk cache:
        # the acceptance bar is zero predictor sweeps.
        clear_stream_cache()
        observability.reset_metrics()
        assert main(argv) == 0
        second = json.loads(profile.read_text())
        assert second["counters"].get("stream_cache.sweeps", 0) == 0
        assert second["counters"]["stream_cache.disk_hits"] == 1
        capsys.readouterr()

    def test_cache_subcommand(self, cache_dir, capsys):
        assert main(["cache", "path"]) == 0
        assert str(cache_dir) in capsys.readouterr().out

        main(["run", "fig5", "--length", "3000", "--benchmarks", "jpeg_play"])
        capsys.readouterr()

        # One predictor-stream entry plus one batched sweep-result entry.
        assert main(["cache", "stats"]) == 0
        stats_output = capsys.readouterr().out
        assert "entries: 2" in stats_output

        assert main(["cache", "clear"]) == 0
        assert "removed 2 cache entries" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        assert "entries: 0" in capsys.readouterr().out
