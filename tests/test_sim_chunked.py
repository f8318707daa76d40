"""Tests for the chunked streaming kernels (repro.sim.chunked)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cir import CIRTable
from repro.core.counters import (
    ResettingCounterConfidence,
    SaturatingCounterConfidence,
)
from repro.core.indexing import make_index
from repro.sim.chunked import (
    CIRTableObserver,
    GshareState,
    ResettingCounterObserver,
    SaturatingCounterObserver,
    TwoLevelObserver,
    iter_trace_chunks,
    lagged_register_stream,
    num_chunks,
    register_carry_out,
    resolve_chunk_size,
    segmented_clamped_walk,
    sweep_chunk,
)
from repro.sim.fast import (
    cir_pattern_stream,
    predictor_streams,
    resetting_counter_stream,
    saturating_counter_stream,
    two_level_pattern_stream,
)
from repro.traces.trace import Trace
from repro.utils.bits import bit_mask


def _reference_walk(indices, deltas, lo, hi, init_values):
    """Sequential model of the clamped-walk table."""
    table = np.asarray(init_values, dtype=np.int64).copy()
    pre = np.empty(len(indices), dtype=np.int64)
    for position, (index, delta) in enumerate(zip(indices, deltas)):
        pre[position] = table[index]
        table[index] = min(hi, max(lo, table[index] + delta))
    return pre, table


class TestSegmentedClampedWalk:
    def test_matches_sequential_reference_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(0, 300))
            entries = int(rng.integers(1, 9))
            hi = int(rng.integers(1, 20))
            indices = rng.integers(0, entries, n)
            deltas = rng.choice([-1, 1], n)
            init = rng.integers(0, hi + 1, entries)
            pre, finals = segmented_clamped_walk(indices, deltas, 0, hi, init)
            ref_pre, ref_finals = _reference_walk(indices, deltas, 0, hi, init)
            assert np.array_equal(pre, ref_pre)
            assert np.array_equal(finals, ref_finals)

    def test_single_entry_long_walk(self):
        n = 500
        indices = np.zeros(n, dtype=np.int64)
        deltas = np.where(np.arange(n) % 3 == 0, 1, -1)
        pre, finals = segmented_clamped_walk(indices, deltas, 0, 3, np.array([2]))
        ref_pre, ref_finals = _reference_walk(indices, deltas, 0, 3, np.array([2]))
        assert np.array_equal(pre, ref_pre)
        assert np.array_equal(finals, ref_finals)

    def test_empty_stream_returns_init_copy(self):
        init = np.array([1, 2, 3])
        pre, finals = segmented_clamped_walk(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 0, 3, init
        )
        assert pre.shape == (0,)
        assert np.array_equal(finals, init)
        finals[0] = 9
        assert init[0] == 1  # finals is a copy, not a view

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal length"):
            segmented_clamped_walk(
                np.zeros(3, dtype=np.int64),
                np.zeros(2, dtype=np.int64),
                0,
                3,
                np.zeros(1),
            )

    @given(
        data=st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from([-1, 1])),
            max_size=60,
        ),
        hi=st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_property(self, data, hi):
        indices = np.array([d[0] for d in data], dtype=np.int64)
        deltas = np.array([d[1] for d in data], dtype=np.int64)
        init = np.zeros(4, dtype=np.int64)
        pre, finals = segmented_clamped_walk(indices, deltas, 0, hi, init)
        ref_pre, ref_finals = _reference_walk(indices, deltas, 0, hi, init)
        assert np.array_equal(pre, ref_pre)
        assert np.array_equal(finals, ref_finals)


def _reference_register(bits, carry, width):
    """Sequential shift-register model returning pre-values and carry-out."""
    mask = bit_mask(width)
    value = int(carry) & mask
    values = []
    for bit in bits:
        values.append(value)
        value = ((value << 1) | int(bit)) & mask
    return np.array(values, dtype=np.int64), value


class TestLaggedRegisterStream:
    @pytest.mark.parametrize("width", [1, 3, 8, 16])
    @pytest.mark.parametrize("carry", [0, 0b1011])
    def test_matches_sequential_register(self, width, carry):
        rng = np.random.default_rng(width)
        bits = rng.integers(0, 2, 40)
        values = lagged_register_stream(bits, carry, width)
        ref_values, ref_carry = _reference_register(bits, carry, width)
        assert np.array_equal(values, ref_values)
        assert register_carry_out(bits, carry, width) == ref_carry

    def test_chunk_split_invariance(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, 64)
        whole = lagged_register_stream(bits, 0, 12)
        carry = 0
        parts = []
        for start in range(0, 64, 10):
            part = bits[start:start + 10]
            parts.append(lagged_register_stream(part, carry, 12))
            carry = register_carry_out(part, carry, 12)
        assert np.array_equal(whole, np.concatenate(parts))
        assert carry == register_carry_out(bits, 0, 12)

    def test_zero_width_is_all_zero(self):
        assert np.array_equal(
            lagged_register_stream(np.ones(5, dtype=np.int64), 7, 0),
            np.zeros(5, dtype=np.int64),
        )
        assert register_carry_out(np.ones(5, dtype=np.int64), 7, 0) == 0

    def test_width_above_int64_guard_raises(self):
        with pytest.raises(ValueError):
            lagged_register_stream(np.ones(4, dtype=np.int64), 0, 63)


class TestChunkHelpers:
    def test_resolve_chunk_size(self):
        assert resolve_chunk_size(None, 100) == 100
        assert resolve_chunk_size(None, 0) == 1
        assert resolve_chunk_size(7, 100) == 7
        with pytest.raises(ValueError):
            resolve_chunk_size(0, 100)

    def test_num_chunks(self):
        assert num_chunks(100, None) == 1
        assert num_chunks(100, 30) == 4
        assert num_chunks(0, 30) == 1

    def test_iter_trace_chunks_partitions_without_copy(self, random_trace):
        chunks = list(iter_trace_chunks(random_trace, 1000))
        assert sum(len(chunk) for chunk in chunks) == len(random_trace)
        assert np.shares_memory(chunks[0].pcs, random_trace.pcs)
        rebuilt = np.concatenate([chunk.outcomes for chunk in chunks])
        assert np.array_equal(rebuilt, random_trace.outcomes)


class TestGshareState:
    def test_fresh_requires_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            GshareState.fresh(1000)

    def test_copy_is_independent(self):
        state = GshareState.fresh(8)
        clone = state.copy()
        clone.table[0] = 0
        clone.bhr = 5
        assert state.table[0] == 2
        assert state.bhr == 0


class TestSweepChunk:
    @pytest.mark.parametrize("chunk_size", [1, 7, 1024])
    def test_chunked_sweep_matches_monolithic(self, random_trace, chunk_size):
        mono = predictor_streams(
            random_trace, entries=1 << 10, history_bits=8,
            bhr_record_bits=10, gcir_bits=6,
        )
        state = GshareState.fresh(1 << 10)
        correct, bhrs, gcirs = [], [], []
        for start in range(0, len(random_trace), chunk_size):
            stop = min(start + chunk_size, len(random_trace))
            chunk = sweep_chunk(
                random_trace.pcs[start:stop],
                random_trace.outcomes[start:stop],
                state,
                history_bits=8, bhr_record_bits=10, gcir_bits=6,
            )
            assert chunk.start == start
            correct.append(chunk.correct)
            bhrs.append(chunk.bhrs)
            gcirs.append(chunk.gcirs)
        assert np.array_equal(np.concatenate(correct), mono.correct)
        assert np.array_equal(np.concatenate(bhrs), mono.bhrs)
        assert np.array_equal(np.concatenate(gcirs), mono.gcirs)
        assert state.position == len(random_trace)

    def test_state_carries_between_calls(self, tiny_trace):
        state = GshareState.fresh(16)
        sweep_chunk(tiny_trace.pcs, tiny_trace.outcomes, state, history_bits=4,
                    bhr_record_bits=4, gcir_bits=4)
        assert state.position == len(tiny_trace)
        # BHR now holds the last 4 outcomes.
        expected = 0
        for outcome in tiny_trace.outcomes[-4:]:
            expected = ((expected << 1) | int(outcome)) & 0xF
        assert state.bhr == expected


def _split_observe(observer_factory, observe, indices, correct, chunk_size):
    """Feed (indices, correct) to a fresh observer in chunks; concatenate."""
    observer = observer_factory()
    parts = []
    for start in range(0, len(indices), chunk_size):
        stop = start + chunk_size
        parts.append(observe(observer, indices[start:stop], correct[start:stop]))
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def _cir_table_reads(indices, correct, cir_bits, entries, init):
    """Reference: the patterns a plain CIRTable returns, access by access."""
    table = CIRTable(entries, cir_bits, initializer=lambda e, b: np.full(e, init))
    reads = []
    for index, is_correct in zip(indices.tolist(), correct.tolist()):
        reads.append(table.read(index))
        table.record(index, bool(is_correct))
    return reads


def _counter_reads(estimator, indices, correct):
    """Reference: a counter estimator indexed by PC, access by access."""
    reads = []
    for index, is_correct in zip(indices.tolist(), correct.tolist()):
        pc = index << 2
        reads.append(estimator.lookup(pc, 0, 0))
        estimator.update(pc, 0, 0, bool(is_correct))
    return reads


def _two_level_reads(indices, correct, pcs, bhrs, width):
    """Reference: two CIRTables cascaded as TwoLevelConfidence does."""
    mask = bit_mask(width)
    level1 = CIRTable(64, width, initializer=lambda e, b: np.full(e, mask))
    level2 = CIRTable(1 << width, width, initializer=lambda e, b: np.full(e, mask))
    reads = []
    rows = zip(indices.tolist(), correct.tolist(), pcs.tolist(), bhrs.tolist())
    for index, is_correct, pc, bhr in rows:
        cir1 = level1.read(index)
        level2_index = (cir1 ^ (pc >> 2) ^ bhr) & mask
        reads.append(level2.read(level2_index))
        level2.record(level2_index, bool(is_correct))
        level1.record(index, bool(is_correct))
    return reads


class TestObservers:
    """Chunk-split observers against the core tables and the whole-trace paths."""

    @pytest.fixture(scope="class")
    def access_stream(self):
        rng = np.random.default_rng(11)
        n = 3000
        return rng.integers(0, 64, n), rng.integers(0, 2, n).astype(np.uint8)

    @pytest.mark.parametrize("chunk_size", [1, 17, 4096])
    def test_cir_table_observer(self, access_stream, chunk_size):
        indices, correct = access_stream
        mono = cir_pattern_stream(indices, correct, 5, bit_mask(5))
        split = _split_observe(
            lambda: CIRTableObserver(5, 64, bit_mask(5)),
            lambda observer, i, c: observer.observe(i, c),
            indices, correct, chunk_size,
        )
        assert split.tolist() == _cir_table_reads(indices, correct, 5, 64, bit_mask(5))
        assert np.array_equal(mono, split)

    @pytest.mark.parametrize("chunk_size", [1, 17, 4096])
    def test_resetting_counter_observer(self, access_stream, chunk_size):
        indices, correct = access_stream
        mono = resetting_counter_stream(indices, correct, maximum=8)
        split = _split_observe(
            lambda: ResettingCounterObserver(8, 64),
            lambda observer, i, c: observer.observe(i, c),
            indices, correct, chunk_size,
        )
        estimator = ResettingCounterConfidence(make_index("pc", 6), maximum=8)
        assert split.tolist() == _counter_reads(estimator, indices, correct)
        assert np.array_equal(mono, split)

    @pytest.mark.parametrize("chunk_size", [1, 17, 4096])
    def test_saturating_counter_observer(self, access_stream, chunk_size):
        indices, correct = access_stream
        mono = saturating_counter_stream(
            indices, correct, maximum=8, table_entries=64
        )
        split = _split_observe(
            lambda: SaturatingCounterObserver(8, 64),
            lambda observer, i, c: observer.observe(i, c),
            indices, correct, chunk_size,
        )
        estimator = SaturatingCounterConfidence(make_index("pc", 6), maximum=8)
        assert split.tolist() == _counter_reads(estimator, indices, correct)
        assert np.array_equal(mono, split)

    @pytest.mark.parametrize("chunk_size", [1, 17, 4096])
    def test_two_level_observer(self, access_stream, chunk_size):
        indices, correct = access_stream
        rng = np.random.default_rng(12)
        pcs = rng.integers(0, 1 << 12, len(indices)) * 4
        bhrs = rng.integers(0, 1 << 5, len(indices))
        mono = two_level_pattern_stream(
            indices, correct, pcs, bhrs,
            level1_cir_bits=5, level2_cir_bits=5,
            second_use_pc=True, second_use_bhr=True,
            level1_init=bit_mask(5), level2_init=bit_mask(5),
        )
        observer = TwoLevelObserver(
            5, 5, 64, second_use_pc=True, second_use_bhr=True,
            level1_init=bit_mask(5), level2_init=bit_mask(5),
        )
        parts = []
        for start in range(0, len(indices), chunk_size):
            stop = start + chunk_size
            parts.append(
                observer.observe(
                    indices[start:stop], correct[start:stop],
                    pcs[start:stop], bhrs[start:stop],
                )
            )
        split = np.concatenate(parts)
        assert split.tolist() == _two_level_reads(indices, correct, pcs, bhrs, 5)
        assert np.array_equal(mono, split)

    @pytest.mark.parametrize(
        "make_observer, observe",
        [
            (lambda: CIRTableObserver(4, 4, 0), lambda o, i: o.observe(i, [1] * len(i))),
            (lambda: ResettingCounterObserver(4, 4), lambda o, i: o.observe(i, [1] * len(i))),
            (lambda: SaturatingCounterObserver(4, 4), lambda o, i: o.observe(i, [1] * len(i))),
            (
                lambda: TwoLevelObserver(4, 4, 4),
                lambda o, i: o.observe(i, [1] * len(i), [0] * len(i), [0] * len(i)),
            ),
        ],
        ids=["cir", "resetting", "saturating", "two_level"],
    )
    @pytest.mark.parametrize("bad_index", [-1, 4, 9])
    def test_out_of_range_index_is_a_value_error(
        self, make_observer, observe, bad_index
    ):
        observer = make_observer()
        with pytest.raises(ValueError, match=r"table index"):
            observe(observer, np.array([0, bad_index]))


class TestStreamingSource:
    def test_generator_source_never_needs_full_trace(self):
        """The pipeline accepts chunks generated on the fly."""
        from repro.sim.chunked import sweep_stream_chunks

        rng = np.random.default_rng(5)

        def chunk_source():
            for _ in range(10):
                pcs = rng.integers(0, 1 << 10, 500).astype(np.uint64) * 4
                outcomes = rng.integers(0, 2, 500).astype(np.uint8)
                yield Trace(pcs, outcomes, name="streamed")

        total = 0
        for chunk in sweep_stream_chunks(chunk_source(), entries=1 << 8,
                                         history_bits=8):
            total += chunk.num_branches
        assert total == 5000
