"""The unified bench envelope, regression compare, and RSS accounting."""

import json

import pytest

from repro import observability
from repro.bench import (
    BENCH_SCHEMA,
    DEFAULT_BAND,
    compare_reports,
    headline_metric,
    load_report,
    trajectory_table,
    write_bench_report,
)
from repro.cli import main as cli_main


def write(path, **kwargs):
    kwargs.setdefault("kind", "sweep")
    kwargs.setdefault("passed", True)
    kwargs.setdefault("headline", {"speedup": headline_metric(2.0, "higher")})
    return write_bench_report(path, **kwargs)


class TestEnvelope:
    def test_written_envelope_round_trips(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        envelope = write(
            path,
            metrics={"wall_seconds": 1.5},
            generated_by="tests/test_bench.py",
        )
        payload = json.loads(path.read_text())
        assert payload == envelope
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["kind"] == "sweep"
        assert payload["passed"] is True
        assert payload["headline"]["speedup"] == {
            "value": 2.0,
            "direction": "higher",
        }
        assert payload["metrics"] == {"wall_seconds": 1.5}
        assert payload["created_unix"] > 0

    def test_invalid_direction_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            headline_metric(1.0, "sideways")
        with pytest.raises(ValueError):
            write(
                tmp_path / "x.json",
                headline={"speedup": {"value": 1.0, "direction": "up"}},
            )

    def test_malformed_headline_shape_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write(tmp_path / "x.json", headline={"speedup": {"value": 1.0}})

    def test_non_numeric_value_rejected(self, tmp_path):
        with pytest.raises((TypeError, ValueError)):
            write(
                tmp_path / "x.json",
                headline={"speedup": {"value": "fast", "direction": "higher"}},
            )


class TestLegacyNormalization:
    def test_legacy_sweep_synthesizes_speedup_headline(self, tmp_path):
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps(
            {"schema": "repro-bench-sweep/2", "passed": True, "speedup": 2.4}
        ))
        report = load_report(path)
        assert report.kind == "sweep"
        assert report.headline["speedup"]["direction"] == "higher"
        assert report.metric_value("speedup") == 2.4

    def test_legacy_memory_is_lower_is_better(self, tmp_path):
        path = tmp_path / "BENCH_mem.json"
        path.write_text(json.dumps(
            {
                "schema": "repro-bench-memory/1",
                "passed": True,
                "rss_growth_bytes": 1024,
            }
        ))
        report = load_report(path)
        assert report.kind == "memory"
        assert report.headline["rss_growth_bytes"]["direction"] == "lower"

    def test_legacy_fault_gate_has_no_headline(self, tmp_path):
        path = tmp_path / "BENCH_faults.json"
        path.write_text(json.dumps(
            {"schema": "repro-fault-gate/1", "passed": True}
        ))
        assert load_report(path).headline == {}

    def test_unknown_schema_raises(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"schema": "not-a-bench/9"}))
        with pytest.raises(ValueError):
            load_report(path)


class TestCompare:
    def pair(self, tmp_path, old_value, new_value, direction="higher",
             old_kind="sweep", new_kind="sweep", new_passed=True):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        write(old, kind=old_kind,
              headline={"speedup": headline_metric(old_value, direction)})
        write(new, kind=new_kind, passed=new_passed,
              headline={"speedup": headline_metric(new_value, direction)})
        return load_report(old), load_report(new)

    def test_higher_metric_within_band_passes(self, tmp_path):
        old, new = self.pair(tmp_path, 2.0, 1.7)
        assert compare_reports(old, new, band=0.2).ok

    def test_higher_metric_below_band_fails(self, tmp_path):
        old, new = self.pair(tmp_path, 2.0, 1.5)
        result = compare_reports(old, new, band=0.2)
        assert not result.ok
        assert "FAIL" in result.render()

    def test_lower_metric_band_points_the_other_way(self, tmp_path):
        old, new = self.pair(tmp_path, 10.0, 11.0, direction="lower")
        assert compare_reports(old, new, band=0.2).ok
        old, new = self.pair(tmp_path, 10.0, 13.0, direction="lower")
        assert not compare_reports(old, new, band=0.2).ok

    def test_new_must_pass_its_own_gate(self, tmp_path):
        old, new = self.pair(tmp_path, 2.0, 2.5, new_passed=False)
        result = compare_reports(old, new)
        assert not result.ok
        assert "its own gate did not pass" in result.render()

    def test_cross_kind_compare_is_rejected(self, tmp_path):
        # Reports of different gates measure unrelated workloads, even
        # when both carry a "speedup": no verdict, a usage error.
        old, new = self.pair(tmp_path, 2.4, 2.0, new_kind="fabric")
        with pytest.raises(ValueError, match="compare same-kind reports only"):
            compare_reports(old, new)

    def test_cli_cross_kind_exits_2_with_one_line(self, tmp_path, capsys):
        old, new = self.pair(tmp_path, 2.4, 2.0, new_kind="fabric")
        assert cli_main(["bench", "compare", old.path, new.path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "'sweep'" in captured.err and "'fabric'" in captured.err

    def test_default_band_is_twenty_percent(self):
        assert DEFAULT_BAND == 0.2


class TestTrajectoryTable:
    def test_renders_one_row_per_report(self, tmp_path):
        first = tmp_path / "BENCH_1.json"
        second = tmp_path / "BENCH_2.json"
        write(first, headline={"speedup": headline_metric(1.9, "higher")})
        write(second, kind="fabric", passed=False)
        table = trajectory_table([first, second])
        assert "| BENCH_1.json | sweep | pass | speedup 1.9 (higher) |" in table
        assert "| BENCH_2.json | fabric | FAIL |" in table


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
