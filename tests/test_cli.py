"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig5" in output
        assert "table1" in output

    def test_bench_command_is_gone(self):
        with pytest.raises(SystemExit) as raised:
            main(["bench", "compare", "a.json", "b.json"])
        assert raised.value.code == 2


class TestRun:
    def test_run_small_experiment(self, capsys):
        code = main([
            "run", "fig5",
            "--length", "8000",
            "--benchmarks", "jpeg_play",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "BHRxorPC" in output

    def test_run_with_plot(self, capsys):
        code = main([
            "run", "fig2",
            "--length", "8000",
            "--benchmarks", "jpeg_play",
            "--plot",
        ])
        assert code == 0
        assert "% of dynamic branches" in capsys.readouterr().out

    def test_run_with_csv(self, capsys, tmp_path):
        out = tmp_path / "fig2.csv"
        code = main([
            "run", "fig2",
            "--length", "8000",
            "--benchmarks", "jpeg_play",
            "--csv", str(out),
        ])
        assert code == 0
        assert out.exists()
        assert out.read_text().startswith("curve,")

    def test_table_csv(self, capsys, tmp_path):
        out = tmp_path / "table1.csv"
        code = main([
            "run", "table1",
            "--length", "8000",
            "--benchmarks", "jpeg_play",
            "--csv", str(out),
        ])
        assert code == 0
        assert out.read_text().startswith("count,")

    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "known ids" in capsys.readouterr().err

    def test_unknown_experiment_is_one_unquoted_line(self, capsys):
        assert main(["run", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("unknown experiment 'nosuch'")
        assert err.count("\n") == 1

    def test_run_all_unknown_experiment_is_one_unquoted_line(self):
        with pytest.raises(SystemExit) as raised:
            main(["run-all", "--experiments", "nosuch"])
        assert str(raised.value.code).startswith("unknown experiment 'nosuch'")


class TestSuite:
    def test_suite_listing(self, capsys):
        assert main(["suite", "--length", "4000"]) == 0
        output = capsys.readouterr().out
        assert "gcc" in output
        assert "mis%" in output


class TestApps:
    def test_dual_path(self, capsys):
        code = main([
            "apps", "dual-path",
            "--length", "8000",
            "--benchmarks", "jpeg_play",
        ])
        assert code == 0
        assert "fork" in capsys.readouterr().out

    def test_bad_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["apps", "teleporter"])


class TestTrace:
    def test_trace_dump(self, capsys, tmp_path):
        out = tmp_path / "t.npz"
        code = main([
            "trace", "jpeg_play", "--length", "2000", "--out", str(out)
        ])
        assert code == 0
        assert out.exists()

        from repro.traces import load_trace

        assert len(load_trace(out)) == 2000


class TestRunAll:
    def test_run_all_small(self, capsys):
        code = main([
            "run-all",
            "--length", "4000",
            "--benchmarks", "jpeg_play", "gcc",
        ])
        assert code == 0
        output = capsys.readouterr().out
        # Every registered experiment reported.
        from repro.experiments import EXPERIMENTS

        for experiment_id in EXPERIMENTS:
            assert f"=== {experiment_id}:" in output


class TestLeaveOneOutNeedsTwoBenchmarks:
    """A single-benchmark suite gets a one-line error, not a traceback."""

    MESSAGE = (
        "extension-crossval: leave-one-out cross-validation needs at least "
        "two benchmarks"
    )

    def test_run_crossval_single_benchmark(self):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "run", "extension-crossval",
                "--benchmarks", "gcc", "--length", "2000",
            ])
        assert excinfo.value.code == self.MESSAGE

    def test_run_all_single_benchmark_fails_fast(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run-all", "--benchmarks", "gcc", "--length", "2000"])
        assert excinfo.value.code == self.MESSAGE
        # Rejected before any experiment ran or printed.
        assert capsys.readouterr().out == ""


class TestBadLengthAndBenchmarks:
    """Bad --length / --benchmarks values exit 1 with one line, up front."""

    UNKNOWN = "unknown benchmark 'nosuch'; expected one of"

    @pytest.mark.parametrize("argv, message", [
        (["run", "fig5", "--benchmarks", "gcc", "--length", "0"],
         "--length must be >= 1"),
        (["run", "fig5", "--benchmarks", "nosuch", "--length", "100"], UNKNOWN),
        (["run-all", "--benchmarks", "gcc", "jpeg_play", "--length", "0"],
         "--length must be >= 1"),
        (["run-all", "--benchmarks", "gcc", "nosuch", "--length", "100"],
         UNKNOWN),
    ])
    def test_run_and_run_all(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        error = str(excinfo.value.code)
        assert error.startswith(message)
        assert "\n" not in error
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv, message", [
        (["trace", "gcc", "--length", "0"], "--length must be >= 1"),
        (["trace", "nosuch", "--length", "100"], UNKNOWN),
    ])
    def test_trace(self, argv, message, tmp_path):
        out = tmp_path / "trace.npz"
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--out", str(out)])
        error = str(excinfo.value.code)
        assert error.startswith(message)
        assert "\n" not in error
        assert not out.exists()


class TestSpecLikeBenchmarkNames:
    """SPEC-like names (``compress``) resolve in every command that loads
    traces, not only in the stream cache."""

    def test_run_extension_pipeline(self, capsys):
        code = main([
            "run", "extension-pipeline",
            "--benchmarks", "gcc", "compress", "--length", "2000",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "compress" in output
        assert "SMT (4 threads)" in output

    def test_apps_hybrid_selector(self, capsys):
        code = main([
            "apps", "hybrid-selector",
            "--benchmarks", "gcc", "compress", "--length", "2000",
        ])
        assert code == 0
        assert "compress" in capsys.readouterr().out
