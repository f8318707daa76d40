"""Golden equivalence: the chunked pipeline reproduces the monolithic path.

The tentpole invariant of the streaming core — every statistic, stream,
and figure input is *bit-identical* for any chunk size, because all table
state carries across chunk boundaries.  These tests pin that invariant
for the reference engine, the fast sweep, the per-chunk disk cache, and
the figure-level bucket statistics (Fig. 5 / Fig. 6 / Fig. 8 inputs).
"""

import shutil

import numpy as np
import pytest

from repro import observability
from repro.core import OneLevelConfidence, PCIndex, ResettingCounterConfidence
from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.predictors import GsharePredictor
from repro.sim.cache import (
    cached_predictor_streams,
    chunk_stream_key,
    clear_stream_cache,
    iter_cached_stream_chunks,
)
from repro.sim.diskcache import chunk_entry_path, load_cached_chunk, sweep_cache_dir
from repro.sim.engine import simulate
from repro.sim.fast import predictor_streams

CHUNK_SIZES = [1, 7, 1024, None]  # None = full trace in one chunk

SMALL = ExperimentConfig(
    benchmarks=("jpeg_play", "gcc"),
    trace_length=5_000,
    predictor_entries=1 << 10,
    predictor_history_bits=8,
    ct_index_bits=8,
    cir_bits=4,
)


def _cold_caches():
    """Drop the memory memo and the sweep-result tier.

    Sweep results are keyed independently of the chunk size, so a warm
    entry from the reference run would answer the chunked rerun without
    running it.
    """
    clear_stream_cache()
    shutil.rmtree(sweep_cache_dir(), ignore_errors=True)


def _assert_statistics_identical(reference, candidate):
    assert set(reference) == set(candidate)
    for name in reference:
        assert np.array_equal(reference[name].counts, candidate[name].counts)
        assert np.array_equal(
            reference[name].mispredicts, candidate[name].mispredicts
        )


class TestEngineGolden:
    @pytest.fixture(scope="class")
    def reference(self, small_benchmark_trace):
        return self._run(small_benchmark_trace, None)

    @staticmethod
    def _run(trace, chunk_size):
        return simulate(
            trace,
            GsharePredictor(entries=1 << 10, history_bits=8),
            [
                OneLevelConfidence(PCIndex(6), cir_bits=4),
                ResettingCounterConfidence(PCIndex(6), maximum=4),
            ],
            history_bits=8,
            record_streams=True,
            chunk_size=chunk_size,
        )

    @pytest.mark.parametrize("chunk_size", [1, 7, 1024])
    def test_simulate_identical(self, small_benchmark_trace, reference, chunk_size):
        result = self._run(small_benchmark_trace, chunk_size)
        assert result.num_mispredicts == reference.num_mispredicts
        assert np.array_equal(result.correct_stream, reference.correct_stream)
        assert np.array_equal(result.bhr_stream, reference.bhr_stream)
        assert np.array_equal(result.gcir_stream, reference.gcir_stream)
        for name, run in reference.estimator_runs.items():
            assert np.array_equal(
                result.estimator_runs[name].counts, run.counts
            )
            assert np.array_equal(
                result.estimator_runs[name].mispredicts, run.mispredicts
            )


class TestFastSweepGolden:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_predictor_streams_identical(self, small_benchmark_trace, chunk_size):
        reference = predictor_streams(
            small_benchmark_trace, entries=1 << 10, history_bits=8
        )
        candidate = predictor_streams(
            small_benchmark_trace, entries=1 << 10, history_bits=8,
            chunk_size=chunk_size,
        )
        assert np.array_equal(reference.correct, candidate.correct)
        assert np.array_equal(reference.bhrs, candidate.bhrs)
        assert np.array_equal(reference.pcs, candidate.pcs)
        assert np.array_equal(reference.gcirs, candidate.gcirs)


class TestFigureStatisticsGolden:
    """Fig. 5 / Fig. 6 / Fig. 8 bucket statistics, chunked vs monolithic."""

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_fig5_one_level(self, cache_dir, chunk_size):
        reference = runner.one_level_pattern_statistics(SMALL)
        _cold_caches()
        candidate = runner.one_level_pattern_statistics(
            SMALL.scaled(chunk_size=chunk_size)
        )
        _assert_statistics_identical(reference, candidate)

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_fig6_two_level(self, cache_dir, chunk_size):
        reference = runner.two_level_pattern_statistics(
            SMALL, "pc", second_use_pc=True, second_use_bhr=True
        )
        _cold_caches()
        candidate = runner.two_level_pattern_statistics(
            SMALL.scaled(chunk_size=chunk_size),
            "pc", second_use_pc=True, second_use_bhr=True,
        )
        _assert_statistics_identical(reference, candidate)

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_fig8_counters(self, cache_dir, chunk_size):
        for build, kwargs in (
            (runner.resetting_counter_statistics, {"maximum": 8}),
            (runner.saturating_counter_statistics, {"maximum": 8}),
        ):
            reference = build(SMALL, **kwargs)
            _cold_caches()
            candidate = build(SMALL.scaled(chunk_size=chunk_size), **kwargs)
            _assert_statistics_identical(reference, candidate)

    @pytest.mark.parametrize("chunk_size", [1, 1024])
    def test_static_branch_statistics(self, cache_dir, chunk_size):
        reference = runner.static_branch_statistics(SMALL)
        _cold_caches()
        candidate = runner.static_branch_statistics(
            SMALL.scaled(chunk_size=chunk_size)
        )
        _assert_statistics_identical(reference, candidate)


class TestExperimentGolden:
    def test_fig5_experiment_identical_curves(self, cache_dir):
        from repro.experiments import get_experiment

        experiment = get_experiment("fig5")
        reference = experiment.run(SMALL)
        _cold_caches()
        candidate = experiment.run(SMALL.scaled(chunk_size=512))
        assert reference.format() == candidate.format()


class TestChunkDiskCache:
    REQUEST = dict(
        benchmark="jpeg_play", length=3000, seed=0, entries=1 << 10,
        history_bits=8, bhr_record_bits=8, gcir_bits=8,
    )

    def test_cold_then_warm_identical_and_counted(self, cache_dir):
        cold = list(iter_cached_stream_chunks(chunk_size=500, **self.REQUEST))
        assert observability.counter_value("stream_cache.chunk_sweeps") == 6
        assert observability.counter_value("stream_cache.chunk_stores") == 6
        warm = list(iter_cached_stream_chunks(chunk_size=500, **self.REQUEST))
        assert observability.counter_value("stream_cache.chunk_hits") == 6
        assert observability.counter_value("stream_cache.chunk_sweeps") == 6
        for before, after in zip(cold, warm):
            assert before.start == after.start
            assert np.array_equal(before.correct, after.correct)
            assert np.array_equal(before.bhrs, after.bhrs)
            assert np.array_equal(before.gcirs, after.gcirs)

    def test_resume_after_partial_eviction(self, cache_dir):
        cold = list(iter_cached_stream_chunks(chunk_size=500, **self.REQUEST))
        key = chunk_stream_key(
            self.REQUEST["benchmark"], 500, 2,
            **{k: v for k, v in self.REQUEST.items() if k != "benchmark"},
        )
        chunk_entry_path(key).unlink()
        observability.reset_metrics()
        resumed = list(iter_cached_stream_chunks(chunk_size=500, **self.REQUEST))
        # Only the evicted chunk is reswept; the rest replay from disk.
        assert observability.counter_value("stream_cache.chunk_sweeps") == 1
        assert observability.counter_value("stream_cache.chunk_hits") == 5
        for before, after in zip(cold, resumed):
            assert np.array_equal(before.correct, after.correct)

    def test_corrupt_chunk_entry_recomputed(self, cache_dir):
        list(iter_cached_stream_chunks(chunk_size=500, **self.REQUEST))
        key = chunk_stream_key(
            self.REQUEST["benchmark"], 500, 0,
            **{k: v for k, v in self.REQUEST.items() if k != "benchmark"},
        )
        path = chunk_entry_path(key)
        path.write_bytes(b"garbage")
        assert load_cached_chunk(key) is None
        assert observability.counter_value("stream_cache.chunk_corrupt") == 1
        assert not path.exists()  # dropped so the next run recomputes

    def test_cached_streams_equal_across_tiers(self, cache_dir):
        mono = cached_predictor_streams(**self.REQUEST)
        clear_stream_cache()
        chunked = cached_predictor_streams(chunk_size=700, **self.REQUEST)
        assert np.array_equal(mono.correct, chunked.correct)
        assert np.array_equal(mono.bhrs, chunked.bhrs)
        assert np.array_equal(mono.pcs, chunked.pcs)
        assert np.array_equal(mono.gcirs, chunked.gcirs)
