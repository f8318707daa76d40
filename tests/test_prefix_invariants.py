"""The prefix invariants that let one run serve many trace lengths.

A benchmark's trace of ``L`` branches is a byte prefix of its longer
traces at the same seed, and the gshare sweep is causal, so shorter
traces, their predictor streams and their confidence statistics can all
be cut from a longer run.  These tests pin each step against a fresh
computation at the shorter length (down to the chunk-and-state carry at
random chunk boundaries), and pin the counters that show a cold run
computes each prefix once.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability
from repro.core.indexing import XorIndex, make_index
from repro.experiments import ablation_trace_length
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import sweep_grid, sweep_grid_prefixes
from repro.predictors import GsharePredictor
from repro.sim import simulate
from repro.sim.batched import GridObserver, SweepSpec
from repro.sim.cache import (
    cached_predictor_streams,
    clear_stream_cache,
    stream_key,
)
from repro.sim.chunked import GshareState, sweep_chunk
from repro.sim.diskcache import entry_path, load_cached_streams, stream_cache_dir
from repro.sim.fast import predictor_streams
from repro.traces import Trace
from repro.workloads.ibs import benchmark_names, load_benchmark
from repro.workloads.spec_like import load_spec_benchmark, spec_benchmark_names

WORKLOADS = [(name, load_benchmark) for name in benchmark_names()] + [
    (name, load_spec_benchmark) for name in spec_benchmark_names()
]


def test_every_suite_workload_is_registered():
    assert len(benchmark_names()) == 8
    assert len(spec_benchmark_names()) == 4


@pytest.mark.parametrize(("name", "load"), WORKLOADS, ids=[n for n, _ in WORKLOADS])
@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1 << 20),
    short=st.integers(min_value=1, max_value=3000),
    extra=st.integers(min_value=1, max_value=3000),
)
def test_trace_is_a_byte_prefix_of_any_longer_trace(name, load, seed, short, extra):
    shorter = load.__wrapped__(name, short, seed)
    longer = load.__wrapped__(name, short + extra, seed)
    assert shorter.name == longer.name
    assert shorter.pcs.tobytes() == longer.pcs[:short].tobytes()
    assert shorter.outcomes.tobytes() == longer.outcomes[:short].tobytes()


@settings(max_examples=8, deadline=None)
@given(
    name=st.sampled_from([name for name, _ in WORKLOADS]),
    seed=st.integers(min_value=0, max_value=1 << 20),
    short=st.integers(min_value=1, max_value=600),
    geometry=st.sampled_from([(1 << 8, 8), (1 << 10, 6), (1 << 12, 12)]),
)
def test_streams_of_a_prefix_are_the_prefix_of_the_streams(name, seed, short, geometry):
    load = dict(WORKLOADS)[name]
    trace = load.__wrapped__(name, 1200, seed)
    entries, history_bits = geometry
    full = predictor_streams(trace, entries=entries, history_bits=history_bits,
                             bhr_record_bits=history_bits, gcir_bits=history_bits)
    prefix = trace.slice(0, short)
    reference = simulate(
        prefix, GsharePredictor(entries=entries, history_bits=history_bits),
        history_bits=history_bits, record_streams=True,
    )
    assert np.array_equal(full.correct[:short], reference.correct_stream)
    assert np.array_equal(full.bhrs[:short], reference.bhr_stream)
    assert np.array_equal(full.gcirs[:short], reference.gcir_stream)


def _grid(config):
    """A grid touching every spec kind, plus a GCIR-fed index."""
    bits = config.ct_index_bits
    index = make_index("pc_xor_bhr", bits)
    return [
        SweepSpec.pattern(index, config.cir_bits),
        SweepSpec.pattern(XorIndex(bits, use_pc=True, use_bhr=True, use_gcir=True), 5),
        SweepSpec.resetting(index, config.cir_bits),
        SweepSpec.saturating(make_index("bhr", bits), 3),
        SweepSpec.two_level(index, 4, second_use_pc=True),
    ]


def _assert_statistics_equal(left, right):
    assert len(left) == len(right)
    for one, other in zip(left, right):
        assert np.array_equal(one.counts, other.counts)
        assert np.array_equal(one.mispredicts, other.mispredicts)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=400),
    cuts=st.lists(st.integers(min_value=1, max_value=399), max_size=6),
)
def test_chunk_state_at_any_cut_is_the_state_of_the_prefix(seed, n, cuts):
    """Cut the stream anywhere: the carry equals a monolithic run of the prefix.

    The gshare sweep (its ``GshareState`` carry) and a mixed grid
    observer are driven through chunks ending at random cut points.  At
    every boundary the carried predictor state, the streams so far and
    the grid statistics must equal those of one monolithic chunk over
    the same prefix.
    """
    rng = np.random.RandomState(seed)
    trace = Trace(
        (rng.randint(0, 40, size=n) << 2).astype(np.uint64),
        (rng.random_sample(n) < 0.7).astype(np.uint8),
        name="cuts",
    )
    geometry = dict(history_bits=6, bhr_record_bits=8, gcir_bits=8, trace_name="cuts")
    entries = 1 << 8
    index = make_index("pc_xor_bhr", 6)
    specs = [
        SweepSpec.pattern(index, 8),
        SweepSpec.pattern(XorIndex(6, use_pc=True, use_bhr=True, use_gcir=True), 5),
        SweepSpec.resetting(index, 6),
        SweepSpec.saturating(make_index("bhr", 6), 3),
        SweepSpec.saturating(make_index("pc", 5), 7),
        SweepSpec.two_level(index, 4, second_use_pc=True),
    ]
    bounds = [0] + sorted({cut for cut in cuts if cut < n}) + [n]

    state = GshareState.fresh(entries)
    observer = GridObserver(specs)
    parts = []
    for begin, end in zip(bounds, bounds[1:]):
        chunk = sweep_chunk(
            trace.pcs[begin:end], trace.outcomes[begin:end], state, **geometry
        )
        assert chunk.start == begin
        parts.append(chunk)
        observer.observe(chunk)

        prefix_state = GshareState.fresh(entries)
        prefix = sweep_chunk(trace.pcs[:end], trace.outcomes[:end], prefix_state, **geometry)
        assert np.array_equal(state.table, prefix_state.table)
        assert (state.bhr, state.gcir, state.position) == (
            prefix_state.bhr, prefix_state.gcir, prefix_state.position,
        )
        for stream in ("correct", "bhrs", "pcs", "gcirs"):
            joined = np.concatenate([getattr(part, stream) for part in parts])
            assert np.array_equal(joined, getattr(prefix, stream)), stream
        prefix_observer = GridObserver(specs)
        prefix_observer.observe(prefix)
        _assert_statistics_equal(observer.statistics(), prefix_observer.statistics())


@pytest.mark.parametrize("chunk_size", [None, 1024, 3000])
def test_one_pass_equals_a_fresh_sweep_at_each_length(chunk_size, monkeypatch):
    # 3000 does not divide 20,000, so that length falls inside a chunk.
    monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
    config = ExperimentConfig(
        benchmarks=("jpeg_play", "gcc"), trace_length=1, chunk_size=chunk_size
    )
    specs = _grid(config)
    lengths = (2048, 20_000, 7_000, 30_000)
    clear_stream_cache()
    observability.reset_metrics()
    prefixes = sweep_grid_prefixes(config, specs, lengths)
    assert observability.counter_value("batched.grid_sweeps") == len(config.benchmarks)
    assert sorted(prefixes) == sorted(lengths)
    for length in lengths:
        clear_stream_cache()
        fresh = sweep_grid(config.scaled(trace_length=length), specs)
        assert len(fresh) == len(prefixes[length])
        for left, right in zip(prefixes[length], fresh):
            assert list(left) == list(right)
            for name in left:
                assert np.array_equal(left[name].counts, right[name].counts)
                assert np.array_equal(left[name].mispredicts, right[name].mispredicts)
    clear_stream_cache()


def test_each_benchmark_passes_over_its_longest_missing_length(cache_dir):
    config = ExperimentConfig(benchmarks=("jpeg_play", "gcc"), trace_length=1, jobs=2)
    specs = _grid(config)
    sweep_grid_prefixes(config.scaled(benchmarks=("jpeg_play",)), specs, (6000,))
    observability.reset_metrics()
    mixed = sweep_grid_prefixes(config, specs, (2500, 6000))
    # jpeg_play misses only 2500 and passes over 2500 branches; gcc
    # misses both and passes over 6000.
    assert observability.counter_value("sweep_cache.disk_hits") == 1
    assert observability.counter_value("sweep_cache.stores") == 3
    assert observability.counter_value("stream_cache.sweeps") == 1
    for length in (2500, 6000):
        clear_stream_cache()
        fresh = sweep_grid_prefixes(config, specs, (length,))[length]
        for left, right in zip(mixed[length], fresh):
            for name in config.benchmarks:
                assert np.array_equal(left[name].counts, right[name].counts)
                assert np.array_equal(left[name].mispredicts, right[name].mispredicts)


REQUEST = dict(entries=1 << 12, history_bits=12, bhr_record_bits=12, gcir_bits=12)


def _fresh(length):
    return predictor_streams(load_benchmark.__wrapped__("gcc", length, 0), **REQUEST)


def _assert_streams_equal(left, right):
    assert left.trace_name == right.trace_name
    assert left.gcir_bits == right.gcir_bits
    for field in ("correct", "bhrs", "pcs", "gcirs"):
        assert np.array_equal(getattr(left, field), getattr(right, field)), field
        assert getattr(left, field).dtype == getattr(right, field).dtype, field


def test_memory_tier_serves_and_persists_a_prefix(cache_dir):
    cached_predictor_streams("gcc", length=4000, **REQUEST)
    observability.reset_metrics()
    short = cached_predictor_streams("gcc", length=2500, **REQUEST)
    assert observability.counter_value("stream_cache.prefix_hits") == 1
    assert observability.counter_value("stream_cache.sweeps") == 0
    assert observability.counter_value("stream_cache.disk_misses") == 0
    _assert_streams_equal(short, _fresh(2500))
    # Memoized under its own key, and persisted like a fresh sweep.
    assert cached_predictor_streams("gcc", length=2500, **REQUEST) is short
    key = stream_key("gcc", length=2500, **REQUEST)
    assert entry_path(key).exists()
    _assert_streams_equal(load_cached_streams(key), short)


def test_only_a_longer_entry_of_the_same_geometry_is_a_prefix(cache_dir):
    cached_predictor_streams("gcc", length=1800, **REQUEST)
    observability.reset_metrics()
    short = cached_predictor_streams("gcc", length=900, **REQUEST)
    assert observability.counter_value("stream_cache.prefix_hits") == 1
    assert observability.counter_value("stream_cache.sweeps") == 0
    _assert_streams_equal(short, _fresh(900))
    # Other geometries and longer lengths are not prefixes: each sweeps.
    other = dict(REQUEST, history_bits=10)
    for length, request in ((900, other), (3600, REQUEST)):
        observability.reset_metrics()
        cached_predictor_streams("gcc", length=length, **request)
        assert observability.counter_value("stream_cache.prefix_hits") == 0
        assert observability.counter_value("stream_cache.sweeps") == 1


def test_chunked_prefix_is_served_but_not_persisted(cache_dir):
    cached_predictor_streams("gcc", length=4000, chunk_size=512, **REQUEST)
    observability.reset_metrics()
    short = cached_predictor_streams("gcc", length=3000, chunk_size=512, **REQUEST)
    assert observability.counter_value("stream_cache.prefix_hits") == 1
    assert observability.counter_value("stream_cache.chunk_sweeps") == 0
    assert observability.counter_value("stream_cache.chunk_stores") == 0
    _assert_streams_equal(short, _fresh(3000))
    assert not stream_cache_dir().exists()


def test_cold_trace_length_ablation_synthesizes_each_trace_once(cache_dir):
    config = ExperimentConfig(benchmarks=("jpeg_play", "gcc"), trace_length=3000)
    load_benchmark.cache_clear()
    observability.reset_metrics()
    ablation_trace_length.run(config)
    info = load_benchmark.cache_info()
    assert info.misses == len(config.benchmarks)
    assert observability.counter_value("stream_cache.sweeps") == len(config.benchmarks)
    assert observability.counter_value("batched.grid_sweeps") == len(config.benchmarks)
    assert observability.counter_value("sweep_cache.stores") == (
        len(config.benchmarks) * len(ablation_trace_length.DEFAULT_LENGTHS)
    )


def test_trace_memo_serves_shorter_lengths_as_prefixes(cache_dir):
    from repro.sim.cache import _load_any_benchmark

    load_benchmark.cache_clear()
    longer = _load_any_benchmark("gcc", 3000, 7)
    shorter = _load_any_benchmark("gcc", 1000, 7)
    assert load_benchmark.cache_info().misses == 1
    assert observability.counter_value("workloads.prefix_hits") == 1
    assert shorter.pcs.tobytes() == longer.pcs[:1000].tobytes()
    assert _load_any_benchmark("gcc", 3000, 7) is longer
    _load_any_benchmark("gcc", 1000, 8)  # another seed is not a prefix
    assert load_benchmark.cache_info().misses == 2
