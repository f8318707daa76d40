"""Unit tests for the metrics registry and profile export."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import observability
from repro.observability import PROFILE_SCHEMA, MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounters:
    def test_starts_at_zero(self, registry):
        assert registry.counter("never.touched") == 0

    def test_increment_accumulates(self, registry):
        registry.increment("a")
        registry.increment("a", 4)
        assert registry.counter("a") == 5

    def test_counters_are_independent(self, registry):
        registry.increment("a")
        registry.increment("b", 2)
        assert registry.counter("a") == 1
        assert registry.counter("b") == 2


class TestTimers:
    def test_timed_accumulates_and_counts_calls(self, registry):
        with registry.timed("stage"):
            pass
        with registry.timed("stage"):
            pass
        snap = registry.snapshot()
        assert snap["timers"]["stage"]["calls"] == 2
        assert snap["timers"]["stage"]["seconds"] >= 0.0

    def test_timed_records_on_exception(self, registry):
        with pytest.raises(RuntimeError):
            with registry.timed("stage"):
                raise RuntimeError("boom")
        assert registry.snapshot()["timers"]["stage"]["calls"] == 1

    def test_record_seconds(self, registry):
        registry.record_seconds("stage", 1.5)
        registry.record_seconds("stage", 0.5)
        assert registry.timer_seconds("stage") == pytest.approx(2.0)


class TestSnapshotMergeReset:
    def test_snapshot_is_json_serializable(self, registry):
        registry.increment("a")
        registry.record_seconds("t", 0.25)
        encoded = json.dumps(registry.snapshot())
        assert "0.25" in encoded

    def test_merge_folds_worker_snapshot(self, registry):
        worker = MetricsRegistry()
        worker.increment("sweeps", 3)
        worker.record_seconds("sweep.seconds", 1.0)
        registry.increment("sweeps", 1)
        registry.merge(worker.snapshot())
        assert registry.counter("sweeps") == 4
        assert registry.timer_seconds("sweep.seconds") == pytest.approx(1.0)
        assert registry.snapshot()["timers"]["sweep.seconds"]["calls"] == 1

    def test_reset_drops_everything(self, registry):
        registry.increment("a")
        registry.record_seconds("t", 1.0)
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "timers": {}}

    def test_summary_lines_cover_both_kinds(self, registry):
        registry.increment("hits", 2)
        registry.record_seconds("stage", 0.1)
        lines = registry.summary_lines()
        assert any("hits = 2" in line for line in lines)
        assert any("stage" in line and "call(s)" in line for line in lines)


class TestModuleLevelHelpers:
    def test_global_registry_roundtrip(self):
        observability.reset_metrics()
        observability.increment("test.counter", 2)
        with observability.timed("test.timer"):
            pass
        assert observability.counter_value("test.counter") == 2
        assert observability.snapshot()["timers"]["test.timer"]["calls"] == 1
        observability.reset_metrics()
        assert observability.counter_value("test.counter") == 0

    def test_write_profile(self, tmp_path):
        observability.reset_metrics()
        observability.increment("test.counter")
        path = tmp_path / "profile.json"
        observability.write_profile(str(path), extra={"note": "hi"})
        data = json.loads(path.read_text())
        assert data["schema"] == PROFILE_SCHEMA
        assert data["counters"]["test.counter"] == 1
        assert data["extra"]["note"] == "hi"
        observability.reset_metrics()


class TestPeakRssUnits:
    """``ru_maxrss`` is kibibytes on Linux but bytes on macOS."""

    class FakeUsage:
        ru_maxrss = 2048

    def test_linux_kibibytes_scaled_to_bytes(self, monkeypatch):
        import resource

        monkeypatch.setattr(
            resource, "getrusage", lambda who: self.FakeUsage()
        )
        monkeypatch.setattr(observability.sys, "platform", "linux")
        assert observability.peak_rss_bytes() == 2048 * 1024

    def test_darwin_already_bytes(self, monkeypatch):
        import resource

        monkeypatch.setattr(
            resource, "getrusage", lambda who: self.FakeUsage()
        )
        monkeypatch.setattr(observability.sys, "platform", "darwin")
        assert observability.peak_rss_bytes() == 2048

    def test_record_peak_rss_updates_max_gauge(self, monkeypatch):
        import resource

        observability.reset_metrics()
        monkeypatch.setattr(
            resource, "getrusage", lambda who: self.FakeUsage()
        )
        monkeypatch.setattr(observability.sys, "platform", "linux")
        assert observability.record_peak_rss() == 2048 * 1024
        assert (
            observability.max_value(observability.PEAK_RSS_GAUGE)
            == 2048 * 1024
        )
        observability.reset_metrics()


class TestPeakRssIncludesChildren:
    def test_larger_of_self_and_children(self, monkeypatch):
        import resource

        usage = {resource.RUSAGE_SELF: 100, resource.RUSAGE_CHILDREN: 300}

        class Usage:
            def __init__(self, who):
                self.ru_maxrss = usage[who]

        monkeypatch.setattr(resource, "getrusage", Usage)
        monkeypatch.setattr(observability.sys, "platform", "linux")
        assert observability.peak_rss_bytes() == 300 * 1024

    def test_every_profile_carries_peak_rss(self, tmp_path):
        observability.reset_metrics()
        path = tmp_path / "profile.json"
        observability.write_profile(str(path))
        data = json.loads(path.read_text())
        assert data["maxima"][observability.PEAK_RSS_GAUGE] > 0
        observability.reset_metrics()

    def test_reaped_child_peak_shows_in_exported_gauge(
        self, tmp_path, run_fresh_python
    ):
        # A fresh parent process, so its own peak is only the interpreter
        # plus the import; the child it reaps touches 96 MiB more.
        parent = (
            "import json, resource, subprocess, sys\n"
            "from repro import observability\n"
            "subprocess.run([sys.executable, '-c', "
            "\"data = b'x' * (96 << 20)\"], check=True)\n"
            "observability.write_profile(sys.argv[1])\n"
            "print(json.dumps({\n"
            "    'self': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,\n"
            "    'children': resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,\n"
            "}))\n"
        )
        profile = tmp_path / "profile.json"
        usage = json.loads(run_fresh_python("-c", parent, str(profile)).stdout)
        assert usage["children"] > usage["self"]
        scale = 1 if sys.platform == "darwin" else 1024
        gauge = json.loads(profile.read_text())["maxima"][
            observability.PEAK_RSS_GAUGE
        ]
        assert gauge == usage["children"] * scale


#: Runs the CLI with ``SyntheticProgram.generate`` wrapped to record the
#: length of every trace it synthesizes; prints them as the last line.
_COUNT_SYNTHESIS = (
    "import json, sys\n"
    "from repro.cli import main\n"
    "from repro.workloads.program import SyntheticProgram\n"
    "lengths = []\n"
    "generate = SyntheticProgram.generate\n"
    "def recorded(self, length, seed=0):\n"
    "    lengths.append(length)\n"
    "    return generate(self, length, seed)\n"
    "SyntheticProgram.generate = recorded\n"
    "assert main(sys.argv[1:]) == 0\n"
    "print(json.dumps(lengths))\n"
)


class TestSynthesisMetrics:
    def test_cold_run_profile_counts_synthesis(self, tmp_path, monkeypatch):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = src + os.pathsep + os.environ.get("PYTHONPATH", "")
        monkeypatch.setenv("PYTHONPATH", path)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        profile = tmp_path / "profile.json"
        result = subprocess.run(
            [sys.executable, "-c", _COUNT_SYNTHESIS, "run", "fig2",
             "--benchmarks", "gcc", "jpeg_play", "--length", "3000",
             "--profile", str(profile)],
            capture_output=True, text=True, timeout=300, check=True,
        )
        lengths = json.loads(result.stdout.strip().splitlines()[-1])
        data = json.loads(profile.read_text())
        assert data["counters"]["workloads.synthesize.calls"] == len(lengths) > 0
        assert data["counters"]["workloads.synthesize.branches"] == sum(lengths)
        assert data["timers"]["workloads.synthesize.seconds"]["calls"] == len(lengths)
