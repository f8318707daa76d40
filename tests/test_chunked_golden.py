"""Golden equivalence: the chunked pipeline reproduces the monolithic path.

The tentpole invariant of the streaming core — every statistic, stream,
and figure input is *bit-identical* for any chunk size, because all table
state carries across chunk boundaries.  These tests pin that invariant
for the reference engine, the fast sweep, the per-chunk disk cache, and
the figure-level bucket statistics (Fig. 5 / Fig. 6 / Fig. 8 inputs).
"""

import math
import shutil

import numpy as np
import pytest

from repro import observability
from repro.core import OneLevelConfidence, PCIndex, ResettingCounterConfidence
from repro.core.indexing import make_index
from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.predictors import GsharePredictor
from repro.sim import cache as stream_cache
from repro.sim.batched import GridObserver, SweepSpec
from repro.sim.cache import (
    cached_predictor_streams,
    chunk_stream_key,
    clear_stream_cache,
    iter_cached_stream_chunks,
)
from repro.sim.chunked import StreamChunk
from repro.sim.diskcache import (
    chunk_cache_dir,
    chunk_entry_path,
    load_cached_chunk,
    sweep_cache_dir,
)
from repro.sim.engine import simulate
from repro.sim.fast import predictor_streams
from repro.workloads.ibs import load_benchmark

CHUNK_SIZES = [1, 7, 1024, None]  # None = full trace in one chunk

#: The patched cell size of the ``SmallCells`` classes.
SMALL_CELL = 1_000

SMALL = ExperimentConfig(
    benchmarks=("jpeg_play", "gcc"),
    trace_length=5_000,
    predictor_entries=1 << 10,
    predictor_history_bits=8,
    ct_index_bits=8,
    cir_bits=4,
)


@pytest.fixture
def small_cells(monkeypatch):
    """Cut the cell tier at 1,000 branches, so short traces cross cells."""
    monkeypatch.setattr(stream_cache, "CELL_BRANCHES", SMALL_CELL)


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
    """The cell tier at the real cell size: 2,500 branches are one partial cell."""

    GEOMETRY = dict(seed=0, entries=1 << 10, history_bits=8, bhr_record_bits=8, gcir_bits=8)
    REQUEST = dict(benchmark="jpeg_play", length=2_500, **GEOMETRY)
    CHUNK = 700

    def _chunks(self, **overrides):
        request = dict(self.REQUEST, **overrides)
        return list(iter_cached_stream_chunks(chunk_size=self.CHUNK, **request))

    def _cell_key(self, index):
        cell = stream_cache.CELL_BRANCHES
        stop = min((index + 1) * cell, self.REQUEST["length"])
        return chunk_stream_key("jpeg_play", index * cell, stop, **self.GEOMETRY)

    def _cells(self):
        return math.ceil(self.REQUEST["length"] / stream_cache.CELL_BRANCHES)

    def _assert_fresh(self, chunks):
        """``chunks`` join into a fresh monolithic sweep, in cell-cut slices."""
        length, cell = self.REQUEST["length"], stream_cache.CELL_BRANCHES
        starts = [
            begin
            for first in range(0, length, cell)
            for begin in range(first, min(first + cell, length), self.CHUNK)
        ]
        assert [chunk.start for chunk in chunks] == starts
        fresh = predictor_streams(
            load_benchmark("jpeg_play", length, 0),
            **{k: v for k, v in self.GEOMETRY.items() if k != "seed"},
        )
        for stream in ("correct", "bhrs", "pcs", "gcirs"):
            joined = np.concatenate([getattr(chunk, stream) for chunk in chunks])
            assert np.array_equal(joined, getattr(fresh, stream)), stream

    def test_cold_then_warm_identical_and_counted(self, cache_dir):
        cold = self._chunks()
        cells = self._cells()
        self._assert_fresh(cold)
        assert observability.counter_value("stream_cache.chunk_sweeps") == cells
        assert observability.counter_value("stream_cache.chunk_stores") == cells
        clear_stream_cache()  # a fresh process: the cell memo is empty
        warm = self._chunks()
        assert observability.counter_value("stream_cache.chunk_hits") == cells
        assert observability.counter_value("stream_cache.chunk_sweeps") == cells
        for before, after in zip(cold, warm):
            assert before.start == after.start
            assert np.array_equal(before.correct, after.correct)
            assert np.array_equal(before.bhrs, after.bhrs)
            assert np.array_equal(before.gcirs, after.gcirs)
        # In one process the memo answers, with no disk read.
        observability.reset_metrics()
        self._chunks()
        assert observability.counter_value("stream_cache.cell_memory_hits") == cells
        assert observability.counter_value("stream_cache.chunk_hits") == 0

    def test_resume_after_partial_eviction(self, cache_dir):
        cold = self._chunks()
        evicted = self._cells() // 2
        chunk_entry_path(self._cell_key(evicted)).unlink()
        clear_stream_cache()
        observability.reset_metrics()
        resumed = self._chunks()
        # Only the evicted cell is reswept, from the state stored with the
        # cell before it (read a second time, for its table); the rest
        # replay from disk.
        assert observability.counter_value("stream_cache.chunk_sweeps") == 1
        assert observability.counter_value("stream_cache.chunk_hits") == (
            self._cells() - 1 + (evicted > 0)
        )
        self._assert_fresh(resumed)
        for before, after in zip(cold, resumed):
            assert np.array_equal(before.correct, after.correct)

    def test_corrupt_chunk_entry_recomputed(self, cache_dir):
        cold = self._chunks()
        key = self._cell_key(0)
        path = chunk_entry_path(key)
        path.write_bytes(b"garbage")
        assert load_cached_chunk(key) is None
        assert observability.counter_value("stream_cache.chunk_corrupt") == 1
        assert not path.exists()  # dropped so the next run recomputes
        path.write_bytes(b"garbage")
        clear_stream_cache()  # else the memo answers and nothing reads the disk
        observability.reset_metrics()
        rerun = self._chunks()
        assert observability.counter_value("stream_cache.chunk_corrupt") == 1
        assert observability.counter_value("stream_cache.chunk_sweeps") == 1
        assert path.exists()
        self._assert_fresh(rerun)
        for before, after in zip(cold, rerun):
            assert np.array_equal(before.bhrs, after.bhrs)

    def test_partial_last_cell_is_cut_from_its_full_cell(self, cache_dir):
        full_length = self._cells() * stream_cache.CELL_BRANCHES
        self._chunks(length=full_length)
        clear_stream_cache()
        observability.reset_metrics()
        chunks = self._chunks()
        assert observability.counter_value("stream_cache.chunk_sweeps") == 0
        assert observability.counter_value("stream_cache.chunk_hits") == self._cells()
        self._assert_fresh(chunks)
        assert not chunk_entry_path(self._cell_key(self._cells() - 1)).exists()

    def test_cached_streams_equal_across_tiers(self, cache_dir):
        mono = cached_predictor_streams(**self.REQUEST)
        clear_stream_cache()
        chunked = cached_predictor_streams(chunk_size=self.CHUNK, **self.REQUEST)
        assert np.array_equal(mono.correct, chunked.correct)
        assert np.array_equal(mono.bhrs, chunked.bhrs)
        assert np.array_equal(mono.pcs, chunked.pcs)
        assert np.array_equal(mono.gcirs, chunked.gcirs)


class TestChunkDiskCacheSmallCells(TestChunkDiskCache):
    """The cell-tier tests with 1,000-branch cells: 2,500 branches are
    two full cells and a partial one, and 700-branch slices are cut at
    every cell boundary."""

    @pytest.fixture(autouse=True)
    def _small_cells(self, small_cells):
        pass


class TestFigureStatisticsGoldenSmallCells(TestFigureStatisticsGolden):
    """The figure goldens with 1,000-branch cells: each 5,000-branch trace
    crosses five cells, and chunks of 7 and 1,024 branches do not divide
    them."""

    @pytest.fixture(autouse=True)
    def _small_cells(self, small_cells):
        pass


def test_cell_keys_hold_start_and_stop(cache_dir, monkeypatch):
    """A cell of another grid with the same stop is another entry.

    On one grid a cell's stop fixes its start; a grid patched in one
    process (as here) is where a key without ``start`` would alias.
    """
    geometry = TestChunkDiskCache.GEOMETRY
    partial = chunk_stream_key("jpeg_play", 0, 2_500, **geometry)
    tail = chunk_stream_key("jpeg_play", 2_000, 2_500, **geometry)
    assert partial.digest() != tail.digest()
    assert chunk_entry_path(partial) != chunk_entry_path(tail)
    request = dict(TestChunkDiskCache.REQUEST)
    with monkeypatch.context() as patch:
        patch.setattr(stream_cache, "CELL_BRANCHES", SMALL_CELL)
        list(iter_cached_stream_chunks(chunk_size=700, **request))
    clear_stream_cache()
    observability.reset_metrics()
    chunks = list(iter_cached_stream_chunks(chunk_size=700, **request))
    assert observability.counter_value("stream_cache.chunk_sweeps") == 1
    assert observability.counter_value("stream_cache.chunk_hits") == 0
    assert observability.counter_value("stream_cache.chunk_corrupt") == 0
    TestChunkDiskCache()._assert_fresh(chunks)


def test_cells_cover():
    """A longer request holds a shorter one's cells when each full cell,
    and the full cell its partial last cell is cut from, lie within it."""
    assert stream_cache.cells_cover(16_384, 16_384)
    assert stream_cache.cells_cover(12_288, 160_000)
    assert stream_cache.cells_cover(32_768, 40_000)
    assert stream_cache.cells_cover(40_000, 49_152)
    assert not stream_cache.cells_cover(40_000, 45_000)  # [32768, 40000) is not stored
    assert not stream_cache.cells_cover(20_000, 16_384)


class TestRealCells:
    """The paper geometry over 40,000 branches at the real cell size:
    two full cells and a partial one."""

    REQUEST = dict(
        benchmark="gcc", length=40_000, seed=0, entries=1 << 16,
        history_bits=16, bhr_record_bits=16, gcir_bits=16,
    )
    CONFIG = ExperimentConfig(benchmarks=("gcc",), trace_length=40_000)

    @pytest.fixture(scope="class")
    def reference(self):
        streams = predictor_streams(
            load_benchmark("gcc", 40_000, 0),
            **{k: v for k, v in self.REQUEST.items() if k not in ("benchmark", "length", "seed")},
        )
        return streams, self._statistics([StreamChunk(
            streams.trace_name, 0, streams.correct, streams.bhrs, streams.pcs, streams.gcirs,
        )])

    def _statistics(self, chunks):
        observer = GridObserver([
            runner.one_level_pattern_spec(self.CONFIG),
            SweepSpec.saturating(make_index("pc_xor_bhr", 16), 8),
        ])
        for chunk in chunks:
            observer.observe(chunk)
        return observer.statistics()

    @pytest.mark.parametrize("chunk_size", [1_000, 4_096, None])
    def test_forty_thousand_branches(self, cache_dir, reference, chunk_size):
        streams, statistics = reference
        cold = list(iter_cached_stream_chunks(chunk_size=chunk_size, **self.REQUEST))
        if chunk_size is None:
            assert len(cold) == 1
            assert observability.counter_value("stream_cache.sweeps") == 1
        else:
            assert max(chunk.num_branches for chunk in cold) == chunk_size
            assert observability.counter_value("stream_cache.chunk_sweeps") == 3
            assert sorted(path.name.split("-")[2:4] for path in chunk_cache_dir().iterdir()) == [
                ["b0", "16384"], ["b16384", "32768"], ["b32768", "40000"],
            ]
        for stream in ("correct", "bhrs", "pcs", "gcirs"):
            joined = np.concatenate([getattr(chunk, stream) for chunk in cold])
            assert np.array_equal(joined, getattr(streams, stream)), stream
        for left, right in zip(self._statistics(cold), statistics):
            assert np.array_equal(left.counts, right.counts)
            assert np.array_equal(left.mispredicts, right.mispredicts)

    def test_a_longer_request_shares_the_shorter_ones_cells(self, cache_dir, reference):
        request = dict(self.REQUEST, length=16_384)
        list(iter_cached_stream_chunks(chunk_size=4_096, **request))
        clear_stream_cache()
        observability.reset_metrics()
        longer = list(iter_cached_stream_chunks(chunk_size=4_096, **self.REQUEST))
        # Cell 0 is read for its streams, then again for the table the
        # sweep of cell 1 starts from; cells 1 and 2 are swept.
        assert observability.counter_value("stream_cache.chunk_hits") == 2
        assert observability.counter_value("stream_cache.chunk_sweeps") == 2
        joined = np.concatenate([chunk.correct for chunk in longer])
        assert np.array_equal(joined, reference[0].correct)
