"""Fault-injection harness: injected faults must be invisible in results.

Every test here pins the same invariant from a different angle: under any
deterministic fault schedule (worker crashes, slow tasks, cache-store
``OSError``, corrupted entries, mid-write crashes), run output stays
byte-identical to a fault-free serial run — only the observability
counters differ.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import observability
from repro.cli import main
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import run_all_reports
from repro.experiments.runner import suite_streams
from repro.sim import cache as stream_cache
from repro.sim import diskcache
from repro.sim.cache import cached_predictor_streams, clear_stream_cache
from repro.sim.diskcache import (
    ENTRY_SUFFIX,
    chunk_cache_dir,
    disk_cache_stats,
    read_entry,
    stream_cache_dir,
)
from repro.testing import faults

CONFIG = ExperimentConfig(benchmarks=("jpeg_play", "gcc"), trace_length=3000)

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

#: A cell size that cuts a 3,000-branch request into three cells.
SMALL_CELL = 1_000


def _suite_arrays(config):
    return {
        name: (streams.correct.copy(), streams.bhrs.copy(), streams.pcs.copy())
        for name, streams in suite_streams(config).items()
    }


def _assert_identical(expected, actual):
    assert list(expected) == list(actual)
    for name in expected:
        for left, right in zip(expected[name], actual[name]):
            assert np.array_equal(left, right)


def _wipe_disk_tier():
    for directory in (stream_cache_dir(), chunk_cache_dir()):
        if directory.is_dir():
            for item in directory.iterdir():
                item.unlink()


def _arm(monkeypatch, spec):
    monkeypatch.setenv(faults.FAULT_SPEC_ENV, spec)
    faults.reset_fault_state()
    observability.reset_metrics()


# Scenarios that provoke one failure mode each.  ``tests/test_taxonomy.py``
# checks through them that each error-taxonomy counter rises; the tests
# below pin the exact counts and what else each scenario leaves behind.
# Each takes the shared ``(tmp_path, monkeypatch)`` signature and
# needs a private cache dir in ``REPRO_CACHE_DIR``.


def fail_every_store(tmp_path, monkeypatch):
    """Every cache store raises ``OSError``; the run retries and survives."""
    baseline = _suite_arrays(CONFIG)
    _wipe_disk_tier()
    clear_stream_cache()
    _arm(monkeypatch, "store_oserror=1.0,seed=1")
    _assert_identical(baseline, _suite_arrays(CONFIG))


def crash_every_worker(tmp_path, monkeypatch):
    """Every pool worker dies; every benchmark finishes on the serial path."""
    baseline = _suite_arrays(CONFIG)
    _wipe_disk_tier()
    clear_stream_cache()
    _arm(monkeypatch, "worker_crash=1.0")
    _assert_identical(baseline, _suite_arrays(CONFIG.scaled(jobs=2)))


def time_out_every_task(tmp_path, monkeypatch):
    """Every pool task outlives its timeout and falls back to serial."""
    baseline = _suite_arrays(CONFIG)
    _wipe_disk_tier()
    clear_stream_cache()
    _arm(monkeypatch, "slow_task=1.0,slow_seconds=2.0")
    faulted = _suite_arrays(CONFIG.scaled(jobs=2, max_retries=1, task_timeout=0.3))
    _assert_identical(baseline, faulted)


class TestFaultSpecParsing:
    def test_full_spec(self):
        spec = faults.parse_fault_spec(
            "seed=7,worker_crash=0.2;store_oserror=0.5, slow_task=1.0, slow_seconds=0.5"
        )
        assert spec.seed == 7
        assert spec.slow_seconds == 0.5
        assert spec.rates == {
            "worker_crash": 0.2,
            "store_oserror": 0.5,
            "slow_task": 1.0,
        }

    def test_defaults(self):
        spec = faults.parse_fault_spec("corrupt_entry=1.0")
        assert spec.seed == 0
        assert spec.slow_seconds == 0.25
        assert spec.rates == {"corrupt_entry": 1.0}

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            faults.parse_fault_spec("explode=0.5")

    def test_rejects_out_of_range_rate(self):
        with pytest.raises(ValueError, match="outside"):
            faults.parse_fault_spec("worker_crash=1.5")

    def test_rejects_malformed_entry(self):
        with pytest.raises(ValueError, match="malformed"):
            faults.parse_fault_spec("worker_crash")

    def test_decisions_are_deterministic(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_SPEC_ENV, "store_oserror=0.5,seed=3")
        faults.reset_fault_state()
        first = [faults.should_inject("store_oserror", "site") for _ in range(32)]
        faults.reset_fault_state()
        second = [faults.should_inject("store_oserror", "site") for _ in range(32)]
        assert first == second
        assert any(first) and not all(first)

    def test_stable_draws_repeat(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_SPEC_ENV, "worker_crash=0.5,seed=3")
        faults.reset_fault_state()
        draws = {
            faults.should_inject("worker_crash", "task", stable=True)
            for _ in range(8)
        }
        assert len(draws) == 1

    def test_no_spec_means_no_faults(self, monkeypatch):
        monkeypatch.delenv(faults.FAULT_SPEC_ENV, raising=False)
        faults.reset_fault_state()
        assert faults.current_spec() is None
        assert not faults.should_inject("worker_crash", "task")


class TestCacheIOFaults:
    def test_store_oserror_is_retried_and_survived(self, cache_dir, monkeypatch):
        fail_every_store(cache_dir, monkeypatch)
        benchmarks = len(CONFIG.benchmarks)
        assert observability.counter_value("stream_cache.store_errors") == benchmarks
        assert observability.counter_value("retries.attempted") >= benchmarks
        assert observability.counter_value("faults.injected") >= benchmarks
        assert disk_cache_stats().entries == 0

    def test_corrupt_entry_recovers_by_recompute(self, cache_dir, monkeypatch):
        baseline = _suite_arrays(CONFIG)
        clear_stream_cache()
        _arm(monkeypatch, "corrupt_entry=1.0")
        faulted = _suite_arrays(CONFIG)
        _assert_identical(baseline, faulted)
        benchmarks = len(CONFIG.benchmarks)
        assert observability.counter_value("stream_cache.disk_corrupt") == benchmarks
        assert observability.counter_value("stream_cache.sweeps") == benchmarks

    def test_load_oserror_recovers_by_recompute(self, cache_dir, monkeypatch):
        baseline = _suite_arrays(CONFIG)
        clear_stream_cache()
        _arm(monkeypatch, "load_oserror=1.0")
        faulted = _suite_arrays(CONFIG)
        _assert_identical(baseline, faulted)
        assert observability.counter_value("stream_cache.disk_corrupt") == len(
            CONFIG.benchmarks
        )

    def test_corrupt_chunk_entry_recovers(self, cache_dir, monkeypatch):
        chunked = CONFIG.scaled(chunk_size=1024)
        baseline = _suite_arrays(chunked)
        clear_stream_cache()
        _arm(monkeypatch, "corrupt_entry=1.0")
        faulted = _suite_arrays(chunked)
        _assert_identical(baseline, faulted)
        assert observability.counter_value("stream_cache.chunk_corrupt") > 0
        assert observability.counter_value("stream_cache.chunk_sweeps") > 0


class TestWorkerFaults:
    def test_worker_crash_degrades_to_serial(self, cache_dir, monkeypatch):
        crash_every_worker(cache_dir, monkeypatch)
        assert observability.counter_value("degraded.serial_fallback") == len(
            CONFIG.benchmarks
        )

    def test_pool_break_during_submission_rebuilds(self, cache_dir, monkeypatch):
        # A worker dying before the last submit surfaces from submit()
        # itself, not from a future; the pool must be rebuilt all the same.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        baseline = _suite_arrays(CONFIG)
        _wipe_disk_tier()
        clear_stream_cache()
        observability.reset_metrics()
        submit = ProcessPoolExecutor.submit
        calls = []

        def breaking_submit(pool, *args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise BrokenProcessPool("worker died during submission")
            return submit(pool, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", breaking_submit)
        faulted = _suite_arrays(CONFIG.scaled(jobs=2))
        _assert_identical(baseline, faulted)
        assert len(calls) == 3  # two in the first pool, one after the rebuild
        assert observability.counter_value("pool.broken") >= 1

    def test_worker_crash_composes_with_chunk_tier(self, cache_dir, monkeypatch):
        baseline = _suite_arrays(CONFIG)
        _wipe_disk_tier()
        clear_stream_cache()
        _arm(monkeypatch, "worker_crash=1.0")
        faulted = _suite_arrays(CONFIG.scaled(jobs=2, chunk_size=1024))
        _assert_identical(baseline, faulted)
        assert observability.counter_value("pool.broken") >= 1
        assert observability.counter_value("stream_cache.chunk_sweeps") > 0

    def test_slow_task_times_out_and_falls_back(self, cache_dir, monkeypatch):
        time_out_every_task(cache_dir, monkeypatch)
        assert observability.counter_value("degraded.serial_fallback") == len(
            CONFIG.benchmarks
        )


class TestCrashConsistency:
    """A writer killed mid-store must never publish a half-written entry."""

    def _crash_child(self, cache_dir, chunk_size=None):
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        env[faults.FAULT_SPEC_ENV] = "store_crash=1.0"
        env.pop("REPRO_CACHE_DISABLE", None)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        chunk = f", chunk_size={chunk_size}" if chunk_size else ""
        script = (
            "from repro.sim import cache; "
            f"cache.CELL_BRANCHES = {SMALL_CELL}; "
            f"cache.cached_predictor_streams(benchmark='jpeg_play', length=3000, seed=0{chunk})"
        )
        return subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def _fault_free_baseline(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        baseline = cached_predictor_streams(
            benchmark="jpeg_play", length=3000, seed=0
        ).correct.copy()
        monkeypatch.delenv("REPRO_CACHE_DISABLE")
        clear_stream_cache()
        return baseline

    def test_monolithic_store_crash_recovers(self, cache_dir, monkeypatch):
        baseline = self._fault_free_baseline(monkeypatch)
        proc = self._crash_child(cache_dir)
        assert proc.returncode == faults.STORE_CRASH_EXIT_CODE, proc.stderr
        assert list(stream_cache_dir().glob(f"*{ENTRY_SUFFIX}")) == []
        assert len(list(stream_cache_dir().glob("*.tmp"))) == 1
        stats = disk_cache_stats()
        assert stats.entries == 0 and stats.stale_tmp == 1
        # The next (fault-free) run recovers by recomputing and publishes.
        observability.reset_metrics()
        streams = cached_predictor_streams(benchmark="jpeg_play", length=3000, seed=0)
        assert np.array_equal(streams.correct, baseline)
        assert observability.counter_value("stream_cache.sweeps") == 1
        assert observability.counter_value("stream_cache.disk_misses") == 1
        assert len(list(stream_cache_dir().glob(f"*{ENTRY_SUFFIX}"))) == 1

    def test_chunk_store_crash_recovers(self, cache_dir, monkeypatch):
        # 1,000-branch cells, so the 3,000-branch request is three of them.
        monkeypatch.setattr(stream_cache, "CELL_BRANCHES", SMALL_CELL)
        baseline = self._fault_free_baseline(monkeypatch)
        proc = self._crash_child(cache_dir, chunk_size=1000)
        assert proc.returncode == faults.STORE_CRASH_EXIT_CODE, proc.stderr
        assert list(chunk_cache_dir().glob(f"*{ENTRY_SUFFIX}")) == []
        assert len(list(chunk_cache_dir().glob("*.tmp"))) == 1
        assert disk_cache_stats().stale_tmp == 1
        observability.reset_metrics()
        streams = cached_predictor_streams(
            benchmark="jpeg_play", length=3000, seed=0, chunk_size=1000
        )
        assert np.array_equal(streams.correct, baseline)
        assert observability.counter_value("stream_cache.chunk_sweeps") == 3
        assert len(list(chunk_cache_dir().glob(f"*{ENTRY_SUFFIX}"))) == 3


class TestKilledRunAll:
    """A chunked ``--jobs 2`` run SIGKILLed mid-run resumes to the serial bytes."""

    FLAGS = ("--benchmarks", "jpeg_play", "gcc", "--length", "16384")

    @staticmethod
    def _command(*flags):
        return [sys.executable, "-m", "repro", "run-all", *TestKilledRunAll.FLAGS, *flags]

    @staticmethod
    def _env(cache):
        env = dict(os.environ, REPRO_CACHE_DIR=str(cache))
        env.pop("REPRO_CACHE_DISABLE", None)
        env.pop(faults.FAULT_SPEC_ENV, None)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def test_sigkill_at_the_first_cell_then_rerun_matches_serial(self, tmp_path):
        cache = tmp_path / "cache"
        chunked = ("--jobs", "2", "--chunk-size", "4096")
        # A session of its own, so one killpg reaches the pool's workers too.
        victim = subprocess.Popen(
            self._command(*chunked), env=self._env(cache), start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while not list((cache / "stream_chunks").glob(f"*{ENTRY_SUFFIX}")):
                assert victim.poll() is None, "the run ended before it stored a cell"
                assert time.monotonic() < deadline, "the run stored no cell"
                time.sleep(0.002)
            os.killpg(victim.pid, signal.SIGKILL)
        finally:
            victim.wait(timeout=60)
        assert victim.returncode == -signal.SIGKILL
        # Every published entry is whole: a killed writer leaves at most
        # a stray ``.tmp`` file.
        for path in cache.rglob(f"*{ENTRY_SUFFIX}"):
            meta, arrays = read_entry(path)
            assert meta["checksum"] == diskcache._checksum(arrays, meta["fields"]), path

        profile = tmp_path / "resumed.json"
        resumed = subprocess.run(
            self._command(*chunked, "--profile", str(profile)), env=self._env(cache),
            capture_output=True, text=True, timeout=300,
        )
        serial = subprocess.run(
            self._command(), env=self._env(tmp_path / "serial"),
            capture_output=True, text=True, timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert serial.returncode == 0, serial.stderr
        assert resumed.stdout == f"{serial.stdout}\nwrote {profile}\n"
        counters = json.loads(profile.read_text())["counters"]
        assert counters.get("stream_cache.chunk_hits", 0) > 0  # the killed run's cells


class TestFaultedRunAll:
    IDS = ["fig5", "table1"]

    def test_faulted_parallel_run_all_matches_serial(self, cache_dir, monkeypatch):
        serial = run_all_reports(CONFIG, experiment_ids=self.IDS, jobs=1)
        clear_stream_cache()
        _arm(
            monkeypatch,
            "seed=9,worker_crash=0.5,corrupt_entry=0.3,store_oserror=0.3",
        )
        faulted = run_all_reports(
            CONFIG.scaled(jobs=2, chunk_size=1024),
            experiment_ids=self.IDS,
            jobs=2,
        )
        # The chunk size keys the cached reports, so neither is replayed.
        assert observability.counter_value("report_cache.disk_hits") == 0
        assert observability.counter_value("pool.started") >= 1
        assert [r.experiment_id for r in serial] == [r.experiment_id for r in faulted]
        assert [r.text for r in serial] == [r.text for r in faulted]

    def test_profile_surfaces_error_taxonomy(self, cache_dir, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        code = main([
            "run", "fig5",
            "--length", "3000",
            "--benchmarks", "jpeg_play", "gcc",
            "--jobs", "2",
            "--chunk-size", "1024",
            "--max-retries", "3",
            "--task-timeout", "30",
            "--profile", str(profile),
        ])
        assert code == 0
        payload = json.loads(profile.read_text())
        for name in observability.ERROR_TAXONOMY:
            assert name in payload["counters"]
        assert payload["extra"]["config"]["max_retries"] == 3
        assert payload["extra"]["config"]["task_timeout"] == 30.0
        capsys.readouterr()

    def test_cli_rejects_bad_fault_tolerance_flags(self, cache_dir):
        with pytest.raises(SystemExit):
            main(["run", "fig5", "--max-retries", "-1"])
        with pytest.raises(SystemExit):
            main(["run", "fig5", "--task-timeout", "0"])
