"""Golden suite for the one statistics path (``sweep_grid`` -> ``GridObserver``).

Every confidence statistic runs through :func:`sweep_grid`, which feeds a
:class:`~repro.sim.batched.GridObserver` from the stream chunks of each
benchmark.  This suite pins that path at four levels: every registered
experiment's report against checked-in SHA-256 digests (recorded before
the per-config and monolithic paths were folded into it), ``sweep_grid``
statistics across chunk sizes against the per-spec chunk observers, the
raw kernel on hypothesis-generated ragged grids, and one-spec grids of
every kind against the reference engine (:func:`repro.sim.engine.simulate`),
small random ones and a paper-geometry grid on two workloads — plus the
serial-report and config-validation regressions.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability
from repro.analysis.buckets import BucketStatistics
from repro.cli import main
from repro.core import (
    OneLevelConfidence,
    ResettingCounterConfidence,
    SaturatingCounterConfidence,
    TwoLevelConfidence,
)
from repro.core.indexing import ConcatIndex, GlobalCIRIndex, XorIndex, make_index
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import (
    list_experiments,
    run_all_reports,
    run_experiment_report,
)
from repro.experiments.runner import _stream_request, sweep_grid
from repro.predictors import GsharePredictor
from repro.sim import simulate
from repro.sim.batched import GridObserver, SweepSpec
from repro.sim.cache import clear_stream_cache, iter_cached_stream_chunks
from repro.sim.chunked import (
    CIRTableObserver,
    ResettingCounterObserver,
    SaturatingCounterObserver,
    StreamChunk,
    TwoLevelObserver,
)
from repro.sim.fast import predictor_streams
from repro.testing import faults
from repro.traces import Trace
from repro.utils.bits import bit_mask
from repro.utils.resilient import resilient_map, serial_task
from repro.workloads import load_benchmark

CONFIG = ExperimentConfig(benchmarks=("jpeg_play", "gcc"), trace_length=3000)

#: Report digests of every registered experiment under ``CONFIG``.
DIGESTS = json.loads(
    (Path(__file__).resolve().parent / "report_digests.json").read_text()
)["sha256"]


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _mixed_grid(config):
    """A ragged grid touching every spec kind, index family, and init form."""
    bits = config.ct_index_bits
    index = make_index("pc_xor_bhr", bits)
    gcir_index = XorIndex(bits, use_pc=True, use_bhr=True, use_gcir=True)
    array_init = np.arange(index.table_entries, dtype=np.int64) & np.int64(
        bit_mask(5)
    )
    return [
        SweepSpec.pattern(index, config.cir_bits),
        SweepSpec.pattern(make_index("pc", bits), 4, init=0),
        SweepSpec.pattern(gcir_index, 5, init=array_init),
        SweepSpec.resetting(index, config.cir_bits),
        SweepSpec.saturating(make_index("bhr", bits), 3),
        SweepSpec.two_level(index, 4, second_use_pc=True),
        SweepSpec.two_level(make_index("pc", bits - 2), 5, second_use_bhr=True),
    ]


def _assert_grid_results_equal(left_grid, right_grid):
    assert len(left_grid) == len(right_grid)
    for left, right in zip(left_grid, right_grid):
        assert list(left) == list(right)
        for name in left:
            assert np.array_equal(left[name].counts, right[name].counts)
            assert np.array_equal(left[name].mispredicts, right[name].mispredicts)


class TestRegistryGolden:
    """Every registered experiment reproduces its checked-in report digest."""

    @pytest.mark.parametrize("chunk_size", [None, 64])
    def test_registry_matches_digests(self, cache_dir, monkeypatch, chunk_size):
        # Every statistic is computed, none replayed from disk.  This also
        # keeps the chunk-64 case fast: the trace-length ablation's fixed
        # 20k-160k traces are ~9k chunks whose disk round trips would take
        # minutes (the chunk tier has its own tests).
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        config = CONFIG.scaled(chunk_size=chunk_size)
        digests = {
            experiment.id: _digest(experiment.run(config).format())
            for experiment in list_experiments()
        }
        assert digests == DIGESTS

    def test_jobs_interplay_bit_identical(self, cache_dir):
        """jobs=2 fans the reports over the pool; digests unchanged."""
        ids = ["fig8", "fig10"]
        reports = run_all_reports(CONFIG.scaled(jobs=2), experiment_ids=ids)
        assert observability.counter_value("pool.started") == 1
        assert {r.experiment_id: _digest(r.text) for r in reports} == {
            experiment_id: DIGESTS[experiment_id] for experiment_id in ids
        }


class TestSweepGridGolden:
    """sweep_grid parity across chunk sizes, plus the sweep-result tier."""

    @pytest.mark.parametrize(
        ("chunk_size", "length"),
        [(1, 120), (64, 1200), (1024, 3000), (None, 3000)],
    )
    def test_chunk_sizes_bit_identical(self, cache_dir, chunk_size, length):
        config = CONFIG.scaled(trace_length=length, chunk_size=chunk_size)
        specs = _mixed_grid(config)
        grid = sweep_grid(config, specs)
        reference = [{} for _ in specs]
        for name in config.benchmarks:
            chunks = iter_cached_stream_chunks(**_stream_request(config, name))
            for position, stats in enumerate(_reference_statistics(specs, chunks)):
                reference[position][name] = stats
        _assert_grid_results_equal(grid, reference)

    def test_singleton_grid_runs_grid_observer(self, cache_dir):
        config = CONFIG.scaled(trace_length=1200)
        specs = [SweepSpec.pattern(make_index("pc_xor_bhr", config.ct_index_bits), 4)]
        sweep_grid(config, specs)
        assert observability.counter_value("batched.grid_sweeps") == len(
            config.benchmarks
        )
        assert observability.counter_value("sweep_cache.stores") == len(
            config.benchmarks
        )

    def test_sweep_cache_tiers(self, cache_dir):
        config = CONFIG.scaled(trace_length=1200)
        specs = _mixed_grid(config)
        cold = sweep_grid(config, specs)
        assert observability.counter_value("batched.grid_sweeps") == len(
            config.benchmarks
        )
        assert observability.counter_value("sweep_cache.stores") == len(
            config.benchmarks
        )
        assert observability.timer_seconds("batched.grid_sweep_seconds") > 0.0

        # The tier is disk-only: a same-process rerun loads from disk too.
        for drop_stream_memo in (False, True):
            if drop_stream_memo:
                clear_stream_cache()
            observability.reset_metrics()
            warm = sweep_grid(config, specs)
            assert observability.counter_value("batched.grid_sweeps") == 0
            assert observability.counter_value("sweep_cache.memory_hits") == 0
            assert observability.counter_value("sweep_cache.disk_hits") == len(
                config.benchmarks
            )
            _assert_grid_results_equal(cold, warm)

    def test_fig10_sweeps_each_benchmark_once(self, cache_dir):
        """Regression: fig10 used to recompute streams for headline sizes.

        The deduped grid submits every table size in one ``sweep_grid``
        call, so a cold run does exactly one grid sweep per benchmark —
        not one per (benchmark, size) — and a warm rerun does none.
        """
        from repro.experiments import fig10_small_tables

        config = CONFIG.scaled(trace_length=1200)
        first = fig10_small_tables.run(config).format()
        assert observability.counter_value("batched.grid_sweeps") == len(
            config.benchmarks
        )
        observability.reset_metrics()
        second = fig10_small_tables.run(config).format()
        assert observability.counter_value("batched.grid_sweeps") == 0
        assert first == second


def _reference_statistics(specs, chunks):
    """Per-config reference: the chunked observers, one spec at a time."""
    totals = [BucketStatistics.zeros(spec.num_buckets) for spec in specs]
    observers = []
    for spec in specs:
        entries = spec.index_function.table_entries
        if spec.kind == "pattern":
            observers.append(CIRTableObserver(spec.width, entries, spec.init))
        elif spec.kind == "resetting":
            observers.append(ResettingCounterObserver(spec.width, entries))
        elif spec.kind == "saturating":
            observers.append(SaturatingCounterObserver(spec.width, entries))
        else:
            ones = bit_mask(spec.width)
            observers.append(
                TwoLevelObserver(
                    level1_cir_bits=spec.width,
                    level2_cir_bits=spec.width,
                    table_entries=entries,
                    second_use_pc=spec.second_use_pc,
                    second_use_bhr=spec.second_use_bhr,
                    level1_init=ones,
                    level2_init=ones,
                )
            )
    for chunk in chunks:
        zero_gcirs = np.zeros(chunk.num_branches, dtype=np.int64)
        for position, (spec, observer) in enumerate(zip(specs, observers)):
            if spec.kind == "two_level":
                indices = spec.index_function.vectorized(
                    chunk.pcs, chunk.bhrs, zero_gcirs
                )
                values = observer.observe(indices, chunk.correct, chunk.pcs, chunk.bhrs)
            else:
                gcirs = chunk.gcirs if spec.index_function.uses_gcir else zero_gcirs
                indices = spec.index_function.vectorized(chunk.pcs, chunk.bhrs, gcirs)
                values = observer.observe(indices, chunk.correct)
            totals[position] = totals[position] + BucketStatistics.from_streams(
                values, chunk.correct, num_buckets=spec.num_buckets
            )
    return totals


def _split_chunks(chunk, piece):
    pieces = []
    for start in range(0, chunk.num_branches, piece):
        stop = start + piece
        pieces.append(
            StreamChunk(
                trace_name=chunk.trace_name,
                start=chunk.start + start,
                correct=chunk.correct[start:stop],
                bhrs=chunk.bhrs[start:stop],
                pcs=chunk.pcs[start:stop],
                gcirs=chunk.gcirs[start:stop],
            )
        )
    return pieces


_SPEC_DESCRIPTORS = st.lists(
    st.tuples(
        st.sampled_from(["pattern", "resetting", "saturating", "two_level"]),
        st.sampled_from(["pc", "bhr", "pc_xor_bhr", "gcir"]),
        st.integers(min_value=2, max_value=6),  # index bits
        st.integers(min_value=1, max_value=6),  # width / maximum
        st.booleans(),  # second_use_pc / array init toggle
        st.booleans(),  # second_use_bhr
    ),
    min_size=1,
    max_size=5,
)


class TestRaggedGridProperty:
    """Hypothesis: the kernel matches the per-config observers on any grid."""

    @staticmethod
    def _build_specs(descriptors, rng):
        specs = []
        for kind, index_kind, index_bits, width, flag_a, flag_b in descriptors:
            if index_kind == "gcir":
                index = XorIndex(index_bits, use_pc=True, use_bhr=True, use_gcir=True)
            else:
                index = make_index(index_kind, index_bits)
            if kind == "pattern":
                if flag_a:
                    init = rng.randint(
                        0, 1 << width, size=index.table_entries
                    ).astype(np.int64)
                else:
                    init = bit_mask(width)
                specs.append(SweepSpec.pattern(index, width, init=init))
            elif kind == "resetting":
                specs.append(SweepSpec.resetting(index, width))
            elif kind == "saturating":
                specs.append(SweepSpec.saturating(index, width))
            else:
                specs.append(
                    SweepSpec.two_level(
                        index, width, second_use_pc=flag_a, second_use_bhr=flag_b
                    )
                )
        return specs

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=160),
        piece=st.integers(min_value=1, max_value=64),
        descriptors=_SPEC_DESCRIPTORS,
    )
    @settings(max_examples=30, deadline=None)
    def test_kernel_matches_reference(self, seed, n, piece, descriptors):
        rng = np.random.RandomState(seed)
        chunk = StreamChunk(
            trace_name="ragged",
            start=0,
            correct=rng.randint(0, 2, size=n).astype(np.uint8),
            bhrs=rng.randint(0, 1 << 8, size=n).astype(np.int64),
            pcs=(rng.randint(0, 1 << 10, size=n) << 2).astype(np.int64),
            gcirs=rng.randint(0, 1 << 8, size=n).astype(np.int64),
        )
        specs = self._build_specs(descriptors, rng)

        reference = _reference_statistics(specs, [chunk])

        monolithic = GridObserver(specs)
        monolithic.observe(chunk)
        chunked = GridObserver(specs)
        for split in _split_chunks(chunk, piece):
            chunked.observe(split)

        for expected, mono, split in zip(
            reference, monolithic.statistics(), chunked.statistics()
        ):
            assert np.array_equal(expected.counts, mono.counts)
            assert np.array_equal(expected.mispredicts, mono.mispredicts)
            assert np.array_equal(expected.counts, split.counts)
            assert np.array_equal(expected.mispredicts, split.mispredicts)


def test_statistics_snapshot_survives_later_chunks():
    """``statistics()`` copies: the running folds are updated in place."""
    rng = np.random.RandomState(5)
    n = 400
    chunk = StreamChunk(
        trace_name="snapshot",
        start=0,
        correct=rng.randint(0, 2, size=n).astype(np.uint8),
        bhrs=rng.randint(0, 1 << 8, size=n).astype(np.int64),
        pcs=(rng.randint(0, 1 << 10, size=n) << 2).astype(np.int64),
        gcirs=rng.randint(0, 1 << 8, size=n).astype(np.int64),
    )
    first, second = _split_chunks(chunk, n // 2)
    observer = GridObserver(_mixed_grid(CONFIG))
    observer.observe(first)
    snapshot = observer.statistics()
    frozen = [(s.counts.copy(), s.mispredicts.copy()) for s in snapshot]
    observer.observe(second)
    for statistics, (counts, mispredicts), final in zip(
        snapshot, frozen, observer.statistics()
    ):
        assert np.array_equal(statistics.counts, counts)
        assert np.array_equal(statistics.mispredicts, mispredicts)
        assert final.total > statistics.total


def _random_trace(seed, n):
    """A small random trace over a few aligned branch sites."""
    rng = np.random.RandomState(seed)
    pcs = (rng.randint(0, 24, size=n) << 2).astype(np.uint64)
    return Trace(pcs, rng.randint(0, 2, size=n).astype(np.uint8), name="oracle")


class TestReferenceEngineOracle:
    """Hypothesis: GridObserver grids == the reference engine.

    Every spec kind (and the GCIR and PC/GCIR concatenation index
    families) runs on a small random trace, alone and with all the
    other specs in one multi-spec grid, fed to the observer as one chunk
    and as chunks of 1 and 7.  Each spec must reproduce the bucket
    statistics of :func:`repro.sim.engine.simulate` driving the matching
    :mod:`repro.core` estimator.  Both sides see 16-bit BHR/GCIR
    registers, so every index bit the specs consume agrees.
    """

    ENTRIES, HISTORY_BITS = 64, 6

    @staticmethod
    def _cases(rng, index_bits, width):
        pc = make_index("pc", index_bits)
        pc_xor_bhr = make_index("pc_xor_bhr", index_bits)
        gcir_index = XorIndex(index_bits, use_pc=True, use_bhr=True, use_gcir=True)
        scalar = int(rng.randint(0, 1 << width))
        patterns = rng.randint(0, 1 << width, size=pc_xor_bhr.table_entries)
        patterns = patterns.astype(np.int64)
        gcir = GlobalCIRIndex(index_bits)
        split = int(rng.randint(1, index_bits))
        concat = ConcatIndex(index_bits, fields=[("gcir", split), ("pc", index_bits - split)])
        return [
            (
                SweepSpec.pattern(pc_xor_bhr, width, init=scalar),
                OneLevelConfidence(
                    pc_xor_bhr, width, lambda entries, bits: np.full(entries, scalar)
                ),
            ),
            (
                SweepSpec.pattern(pc_xor_bhr, width, init=patterns),
                OneLevelConfidence(pc_xor_bhr, width, lambda entries, bits: patterns),
            ),
            (SweepSpec.pattern(gcir_index, width), OneLevelConfidence(gcir_index, width)),
            (SweepSpec.pattern(gcir, width), OneLevelConfidence(gcir, width)),
            (SweepSpec.pattern(concat, width), OneLevelConfidence(concat, width)),
            (
                SweepSpec.resetting(pc_xor_bhr, width),
                ResettingCounterConfidence(pc_xor_bhr, maximum=width),
            ),
            (
                SweepSpec.saturating(pc, width),
                SaturatingCounterConfidence(pc, maximum=width),
            ),
            (
                SweepSpec.two_level(pc, width, second_use_pc=True),
                TwoLevelConfidence(pc, width, width, second_use_pc=True),
            ),
            (
                SweepSpec.two_level(pc_xor_bhr, width, second_use_bhr=True),
                TwoLevelConfidence(pc_xor_bhr, width, width, second_use_bhr=True),
            ),
        ]

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=120),
        index_bits=st.integers(min_value=2, max_value=5),
        width=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_one_spec_grid_matches_reference_engine(self, seed, n, index_bits, width):
        trace = _random_trace(seed, n)
        streams = predictor_streams(
            trace, entries=self.ENTRIES, history_bits=self.HISTORY_BITS,
            bhr_record_bits=16, gcir_bits=16,
        )
        whole = StreamChunk(
            trace_name=trace.name,
            start=0,
            correct=streams.correct,
            bhrs=streams.bhrs,
            pcs=streams.pcs,
            gcirs=streams.gcirs,
        )
        rng = np.random.RandomState(seed)
        cases = self._cases(rng, index_bits, width)
        runs = []
        for _, estimator in cases:
            predictor = GsharePredictor(
                entries=self.ENTRIES, history_bits=self.HISTORY_BITS
            )
            runs.append(
                simulate(trace, predictor, [estimator]).estimator_runs[estimator.name]
            )
        # Each spec alone, then every spec in one multi-spec grid.
        grids = [[index] for index in range(len(cases))] + [list(range(len(cases)))]
        for grid in grids:
            specs = [cases[index][0] for index in grid]
            for chunks in ([whole], _split_chunks(whole, 1), _split_chunks(whole, 7)):
                observer = GridObserver(specs)
                for chunk in chunks:
                    observer.observe(chunk)
                results = observer.statistics()
                assert len(results) == len(grid)
                for index, statistics in zip(grid, results):
                    run = runs[index]
                    assert statistics.counts.tolist() == run.counts.tolist(), index
                    assert statistics.mispredicts.tolist() == run.mispredicts.tolist()


class TestPaperGeometryOracle:
    """GridObserver == the reference engine at the paper's geometry.

    The hypothesis oracle above stops at 120 branches and 32-entry
    tables; here two real workloads run at 16,384 branches through a
    2^16-entry gshare with a 16-bit history and 16-bit CT indices, so
    the 8- and 16-bit doubling spans of the shift-register kernels and
    the int32 counter scan over 2^16-entry tables meet
    :func:`repro.sim.engine.simulate`.  The grid is fed as one chunk and
    as 4,096-branch chunks.
    """

    ENTRIES, BITS, LENGTH = 1 << 16, 16, 16_384

    @pytest.mark.parametrize("workload", ["jpeg_play", "gcc"])
    def test_paper_geometry_grid_matches_reference_engine(self, workload):
        trace = load_benchmark(workload, self.LENGTH, 0)
        index = make_index("pc_xor_bhr", self.BITS)
        cases = [
            (SweepSpec.pattern(index, self.BITS), OneLevelConfidence(index, self.BITS)),
            (
                SweepSpec.resetting(index, self.BITS),
                ResettingCounterConfidence(index, maximum=self.BITS),
            ),
            (
                SweepSpec.saturating(index, self.BITS),
                SaturatingCounterConfidence(index, maximum=self.BITS),
            ),
            (
                SweepSpec.two_level(index, self.BITS, second_use_pc=True),
                TwoLevelConfidence(index, self.BITS, self.BITS, second_use_pc=True),
            ),
        ]
        estimators = [estimator for _, estimator in cases]
        predictor = GsharePredictor(entries=self.ENTRIES, history_bits=self.BITS)
        runs = simulate(trace, predictor, estimators).estimator_runs
        streams = predictor_streams(
            trace, entries=self.ENTRIES, history_bits=self.BITS,
            bhr_record_bits=self.BITS, gcir_bits=self.BITS,
        )
        whole = StreamChunk(
            trace_name=trace.name,
            start=0,
            correct=streams.correct,
            bhrs=streams.bhrs,
            pcs=streams.pcs,
            gcirs=streams.gcirs,
        )
        for chunks in ([whole], _split_chunks(whole, 4_096)):
            observer = GridObserver([spec for spec, _ in cases])
            for chunk in chunks:
                observer.observe(chunk)
            for statistics, estimator in zip(observer.statistics(), estimators):
                run = runs[estimator.name]
                assert statistics.counts.tolist() == run.counts.tolist(), estimator.name
                assert statistics.mispredicts.tolist() == run.mispredicts.tolist()


class TestSerialReportParity:
    """Satellite bugfix: the degraded serial path mirrors a pool worker."""

    def test_serial_report_matches_direct_run(self, cache_dir, monkeypatch):
        # Every pool worker crashes, so the report comes from
        # resilient_map's in-parent degraded path.
        config = CONFIG.scaled(benchmarks=("jpeg_play",), trace_length=1200)
        monkeypatch.setenv(faults.FAULT_SPEC_ENV, "worker_crash=1.0")
        faults.reset_fault_state()
        [report] = resilient_map(
            run_experiment_report, [("fig5", config)], jobs=2, keys=["fig5"]
        )
        assert observability.counter_value("degraded.serial_fallback") == 1
        monkeypatch.delenv(faults.FAULT_SPEC_ENV)
        faults.reset_fault_state()
        direct = run_experiment_report("fig5", config)
        assert report.text == direct.text
        assert report.experiment_id == "fig5"

    def test_serial_task_isolates_parent_counters(self):
        observability.reset_metrics()
        observability.increment("parent.only", 3)
        inner = {}

        def run():
            observability.increment("task.only")
            inner["snapshot"] = observability.snapshot()
            return 7

        assert serial_task("key", run) == 7
        # The task never saw the parent's counters (pool-worker parity) ...
        assert "parent.only" not in inner["snapshot"]["counters"]
        # ... yet afterwards both the parent state and the delta are merged.
        assert observability.counter_value("parent.only") == 3
        assert observability.counter_value("task.only") == 1

    def test_failing_serial_task_merges_nothing(self):
        observability.reset_metrics()
        observability.increment("parent.only", 2)

        def run():
            observability.increment("task.partial")
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            serial_task("key", run)
        # Matches a worker that died before reporting: no partial counters.
        assert observability.counter_value("task.partial") == 0
        assert observability.counter_value("parent.only") == 2

    def test_serial_fault_hooks_fire(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_SPEC_ENV, "slow_task=1.0,slow_seconds=0.0")
        faults.reset_fault_state()
        observability.reset_metrics()
        assert serial_task("task-key", lambda: 11) == 11
        assert observability.counter_value("faults.slow_task") == 1
        faults.reset_fault_state()

    def test_serial_path_survives_worker_crash_spec(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_SPEC_ENV, "worker_crash=1.0")
        faults.reset_fault_state()
        observability.reset_metrics()
        # The parent is the path of last resort: the crash fault must be
        # suppressed (not drawn, not counted), never kill the process.
        assert serial_task("task-key", lambda: 13) == 13
        assert observability.counter_value("faults.worker_crash") == 0
        faults.reset_fault_state()


class TestConfigValidation:
    """Satellite bugfix: programmatic configs fail fast like the CLI."""

    @pytest.mark.parametrize(
        ("overrides", "message"),
        [
            ({"jobs": 0}, "--jobs must be >= 1"),
            ({"chunk_size": 0}, "--chunk-size must be >= 1"),
            ({"max_retries": -1}, "--max-retries must be >= 0"),
            ({"task_timeout": 0.0}, "--task-timeout must be > 0"),
        ],
    )
    def test_programmatic_construction_fails_fast(self, overrides, message):
        with pytest.raises(ValueError) as excinfo:
            ExperimentConfig(**overrides)
        assert str(excinfo.value) == message
        with pytest.raises(ValueError) as excinfo:
            CONFIG.scaled(**overrides)
        assert str(excinfo.value) == message

    def test_cli_reports_identical_message(self, cache_dir):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig5", "--jobs", "0"])
        assert str(excinfo.value) == "--jobs must be >= 1"

    def test_cli_engine_flag(self, cache_dir, capsys):
        """There is one statistics path, so ``--engine`` is gone everywhere."""
        for command in (["run", "fig5"], ["run-all"], ["fabric", "status"]):
            with pytest.raises(SystemExit) as excinfo:
                main(command + ["--engine", "batched"])
            assert excinfo.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err
        with pytest.raises(TypeError):
            ExperimentConfig(engine="batched")
