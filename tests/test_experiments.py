"""Integration tests for the experiment modules (reduced configuration).

These use a small suite configuration so they run in seconds; the
paper-claim assertions at full scale live in test_paper_claims.py.
"""

import pytest

from repro.experiments import EXPERIMENTS, get_experiment, list_experiments
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig

CONFIG = ExperimentConfig(
    benchmarks=("jpeg_play", "gcc", "sdet"),
    trace_length=24_000,
)


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = set(EXPERIMENTS)
        expected = {
            "fig2", "fig5", "fig6", "fig7", "fig8",
            "table1", "fig9", "fig10", "fig11",
        }
        assert expected <= ids

    def test_list_matches_mapping(self):
        assert {e.id for e in list_experiments()} == set(EXPERIMENTS)

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="known ids"):
            get_experiment("fig99")


class TestConfig:
    def test_scaled_copy(self):
        config = DEFAULT_CONFIG.scaled(trace_length=10)
        assert config.trace_length == 10
        assert DEFAULT_CONFIG.trace_length != 10

    @pytest.mark.parametrize("length", [0, -5])
    def test_rejects_non_positive_trace_length(self, length):
        with pytest.raises(ValueError, match="--length must be >= 1"):
            ExperimentConfig(trace_length=length)

    @pytest.mark.parametrize("names", [("nosuch",), ("gcc", "nosuch")])
    def test_rejects_unknown_benchmarks(self, names):
        with pytest.raises(ValueError, match="unknown benchmark 'nosuch'"):
            ExperimentConfig(benchmarks=names)

    def test_accepts_both_suites(self):
        config = ExperimentConfig(benchmarks=("gcc", "compress"))
        assert config.benchmarks == ("gcc", "compress")

    def test_small_predictor_geometry(self):
        small = DEFAULT_CONFIG.small_predictor
        assert small.predictor_entries == 1 << 12
        assert small.predictor_history_bits == 12
        assert small.ct_index_bits == 12


class TestFig2:
    def test_runs_and_formats(self):
        result = get_experiment("fig2").run(CONFIG)
        assert 0 < result.suite_misprediction_rate < 0.5
        assert 0 < result.mispredictions_at_headline <= 100
        assert "Fig. 2" in result.format()

    def test_curve_reaches_100(self):
        result = get_experiment("fig2").run(CONFIG)
        assert result.curve.mispredictions_captured_at(100.0) == pytest.approx(
            100.0
        )


class TestFig5:
    def test_three_dynamic_curves(self):
        result = get_experiment("fig5").run(CONFIG)
        assert set(result.curves) == {"PC", "BHR", "BHRxorPC"}
        for value in result.at_headline.values():
            assert 0 < value <= 100

    def test_zero_bucket_present(self):
        result = get_experiment("fig5").run(CONFIG)
        assert result.zero_bucket_branch_percent > 10
        assert result.zero_bucket_misprediction_percent < 50


class TestFig6AndFig7:
    def test_fig6_variants(self):
        result = get_experiment("fig6").run(CONFIG)
        assert len(result.curves) == 3
        assert "BHRxorPC-CIR" in result.curves

    def test_fig7_consistency_with_fig5_fig6(self):
        fig7 = get_experiment("fig7").run(CONFIG)
        fig5 = get_experiment("fig5").run(CONFIG)
        assert fig7.one_level_at_headline == pytest.approx(
            fig5.at_headline["BHRxorPC"]
        )


class TestFig8:
    def test_reduction_ordering(self):
        result = get_experiment("fig8").run(CONFIG)
        # Ideal reduction dominates every practical reduction by definition
        # (it is the optimal sort of the same underlying patterns).
        ideal = result.at_headline["BHRxorPC (ideal)"]
        for label, value in result.at_headline.items():
            if label != "BHRxorPC (ideal)":
                assert value <= ideal + 1e-6, label

    def test_saturating_top_bucket_bloats(self):
        result = get_experiment("fig8").run(CONFIG)
        assert (
            result.top_bucket_misprediction_percent["BHRxorPC.Sat"]
            >= result.top_bucket_misprediction_percent["BHRxorPC.Reset"]
        )


class TestTable1:
    def test_seventeen_rows(self):
        result = get_experiment("table1").run(CONFIG)
        assert len(result.table.rows) == 17
        assert result.table.rows[-1].cumulative_percent_refs == pytest.approx(100.0)

    def test_counter_zero_has_highest_rate(self):
        table = get_experiment("table1").run(CONFIG).table
        rates = [row.misprediction_rate for row in table.rows]
        assert rates[0] == max(rates)


class TestFig9:
    def test_per_benchmark_curves(self):
        result = get_experiment("fig9").run(CONFIG)
        assert set(result.curves) == set(CONFIG.benchmarks)
        assert result.best_benchmark != result.worst_benchmark


class TestFig10:
    def test_all_sizes_present(self):
        result = get_experiment("fig10").run(CONFIG)
        assert set(result.curves) == {4096, 2048, 1024, 512, 256, 128}

    def test_smaller_tables_do_not_dominate(self):
        result = get_experiment("fig10").run(CONFIG)
        assert result.at_headline[4096] >= result.at_headline[128] - 2.0


class TestFig11:
    def test_policies_present(self):
        result = get_experiment("fig11").run(CONFIG)
        assert set(result.curves) == {"one", "zero", "lastbit", "random"}

    def test_zeros_worst(self):
        result = get_experiment("fig11").run(CONFIG)
        assert result.zero_is_worst


class TestExtensionExperiments:
    def test_cost_points(self):
        result = get_experiment("extension-cost").run(CONFIG)
        assert len(result.points) >= 5
        assert result.counter_saving_factor > 2.0
        cir = result.point("one-level CIR table (64K x 16b)")
        assert cir.storage_bits == (1 << 16) * 16
        with pytest.raises(KeyError):
            result.point("nonexistent")

    def test_cost_labels_follow_geometry(self):
        # Non-default widths once crashed: the saving factor looked its
        # points up by the default-geometry labels.
        config = ExperimentConfig(
            benchmarks=("jpeg_play", "gcc"),
            trace_length=3_000,
            cir_bits=12,
            ct_index_bits=14,
        )
        result = get_experiment("extension-cost").run(config)
        cir = result.point("one-level CIR table (16K x 12b)")
        counter = result.point("resetting counters (16K x 4b)")
        assert cir.storage_bits == (1 << 14) * 12
        assert counter.storage_bits == (1 << 14) * 4
        assert result.counter_saving_factor == pytest.approx(3.0)
        assert "64K" not in result.format()

    def test_trace_length_sweep(self):
        result = get_experiment("ablation-trace-length").run(
            CONFIG, lengths=(6_000, 12_000, 24_000)
        )
        assert [s.trace_length for s in result.samples] == [6_000, 12_000, 24_000]
        assert result.misprediction_rate_decreases
        assert "warmup" in result.format()

    def test_pipeline_small(self):
        from repro.experiments import extension_pipeline

        small = CONFIG.scaled(benchmarks=("jpeg_play", "gcc"))
        result = extension_pipeline.run(small, trace_length=8_000)
        assert set(result.dual_path_ipc) == {"jpeg_play", "gcc"}
        for baseline, forked in result.dual_path_ipc.values():
            assert baseline > 0 and forked > 0
        assert 0 <= result.smt_gated_waste <= 1
        assert "dual-path" in result.format()


class TestAblations:
    def test_indexing(self):
        result = get_experiment("ablation-indexing").run(CONFIG)
        assert set(result.curves) == {
            "BHRxorPC", "concat(PC,BHR)", "concat(PC,GCIR)", "GCIR",
            "BHRxorPCxorGCIR",
        }

    def test_counter_width_monotone_saturated_bucket(self):
        result = get_experiment("ablation-counter-width").run(CONFIG)
        branch_shares = [
            result.saturated_bucket[width][0] for width in sorted(result.curves)
        ]
        # Wider counters saturate less often.
        assert branch_shares == sorted(branch_shares, reverse=True)

    def test_context_switch_policies(self):
        result = get_experiment("ablation-context-switch").run(CONFIG)
        assert set(result.curves) == {"reinit", "keep", "keep_lastbit"}
        assert result.flush_interval > 0
