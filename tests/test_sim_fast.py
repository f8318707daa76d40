"""Equivalence tests: the fast engine must match the reference engine exactly.

These are the contracts that make the fast path trustworthy: for random
traces, every stream it reconstructs (predictor correctness, BHR values,
CIR patterns, counter values, two-level patterns) is compared bit-for-bit
against the object-oriented reference implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    OneLevelConfidence,
    ResettingCounterConfidence,
    SaturatingCounterConfidence,
    TwoLevelConfidence,
)
from repro.core.indexing import ConcatIndex, GlobalCIRIndex, XorIndex, make_index
from repro.core.init_policies import init_ones
from repro.predictors import GsharePredictor
from repro.sim import simulate
from repro.sim.fast import (
    cir_pattern_stream,
    cir_pattern_stream_with_flushes,
    final_cir_patterns,
    predictor_streams,
    resetting_counter_stream,
    saturating_counter_stream,
    two_level_pattern_stream,
)
from repro.traces import Trace
from repro.utils.bits import bit_mask


def random_trace_strategy(max_sites=12, max_len=200):
    """Traces over a few aligned PCs with arbitrary outcomes."""
    return st.lists(
        st.tuples(st.integers(0, max_sites - 1), st.integers(0, 1)),
        min_size=1,
        max_size=max_len,
    ).map(
        lambda rows: Trace(
            np.asarray([4 * r[0] for r in rows], dtype=np.uint64),
            np.asarray([r[1] for r in rows], dtype=np.uint8),
            name="hyp",
        )
    )


class TestPredictorStreams:
    @settings(max_examples=40, deadline=None)
    @given(random_trace_strategy())
    def test_matches_reference_gshare(self, trace):
        entries, history_bits = 64, 6
        fast = predictor_streams(
            trace, entries=entries, history_bits=history_bits, bhr_record_bits=16
        )
        reference = simulate(
            trace,
            GsharePredictor(entries=entries, history_bits=history_bits),
            record_streams=True,
        )
        assert fast.correct.tolist() == reference.correct_stream.tolist()
        assert fast.bhrs.tolist() == reference.bhr_stream.tolist()
        assert fast.num_mispredicts == reference.num_mispredicts

    def test_paper_configs_on_benchmark(self, small_benchmark_trace):
        fast = predictor_streams(small_benchmark_trace)
        reference = simulate(
            small_benchmark_trace,
            GsharePredictor(entries=1 << 16, history_bits=16),
            record_streams=True,
        )
        assert np.array_equal(fast.correct, reference.correct_stream)
        assert np.array_equal(fast.bhrs, reference.bhr_stream)

    def test_gcir_derivation(self):
        trace = Trace([4, 8, 12], [0, 1, 1])
        fast = predictor_streams(trace, entries=16, history_bits=4)
        reference = simulate(
            trace, GsharePredictor(entries=16, history_bits=4), record_streams=True
        )
        assert fast.gcirs.tolist() == reference.gcir_stream.tolist()

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            predictor_streams(Trace([4], [1]), entries=100)

    def test_gcirs_are_cached(self, small_benchmark_trace):
        streams = predictor_streams(small_benchmark_trace, entries=256, history_bits=8)
        assert streams.gcirs is streams.gcirs

    def test_gcir_width_is_honored(self, small_benchmark_trace):
        wide = predictor_streams(small_benchmark_trace, entries=256, history_bits=8)
        narrow = predictor_streams(
            small_benchmark_trace, entries=256, history_bits=8, gcir_bits=3
        )
        assert wide.gcir_bits == 16
        assert narrow.gcir_bits == 3
        assert int(narrow.gcirs.max()) < 8
        # A narrow register is exactly the wide register's low bits.
        assert np.array_equal(narrow.gcirs, wide.gcirs & 0b111)

    @settings(max_examples=30, deadline=None)
    @given(random_trace_strategy(max_sites=6, max_len=120), st.integers(1, 20))
    def test_gcir_matches_sequential_register(self, trace, gcir_bits):
        streams = predictor_streams(
            trace, entries=64, history_bits=6, gcir_bits=gcir_bits
        )
        mask = bit_mask(gcir_bits)
        running = 0
        expected = []
        for is_correct in streams.correct.tolist():
            expected.append(running)
            running = ((running << 1) | (0 if is_correct else 1)) & mask
        assert streams.gcirs.tolist() == expected


class TestCirPatternStream:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 7), st.booleans()),
            min_size=1,
            max_size=150,
        ),
        st.integers(0, 2),
    )
    def test_matches_reference_table(self, accesses, init_choice):
        cir_bits = 6
        inits = [0, bit_mask(cir_bits), 0b100000]
        init = inits[init_choice]
        indices = np.asarray([a[0] for a in accesses], dtype=np.int64)
        correct = np.asarray([int(a[1]) for a in accesses], dtype=np.uint8)

        fast = cir_pattern_stream(indices, correct, cir_bits, init)

        # Reference: a plain CIRTable driven access by access.
        from repro.core.cir import CIRTable

        table = CIRTable(8, cir_bits, initializer=lambda e, b: np.full(e, init))
        expected = []
        for index, is_correct in accesses:
            expected.append(table.read(index))
            table.record(index, is_correct)
        assert fast.tolist() == expected

    def test_init_patterns_array(self):
        indices = np.asarray([0, 1, 0], dtype=np.int64)
        correct = np.asarray([1, 1, 1], dtype=np.uint8)
        init = np.asarray([0b01, 0b10], dtype=np.int64)
        patterns = cir_pattern_stream(indices, correct, 2, init)
        assert patterns.tolist() == [0b01, 0b10, 0b10]  # entry0: 01 -> 10

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cir_pattern_stream(np.zeros(2, dtype=np.int64), np.zeros(3), 4)

    def test_empty_stream(self):
        out = cir_pattern_stream(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint8), 4
        )
        assert out.shape == (0,)


class TestOneLevelEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(random_trace_strategy(max_sites=8, max_len=120))
    def test_full_stack_equivalence(self, trace):
        """Fast pattern stats == reference engine estimator stats."""
        index_bits, cir_bits = 5, 6
        estimator = OneLevelConfidence(
            make_index("pc_xor_bhr", index_bits),
            cir_bits=cir_bits,
            initializer=init_ones,
        )
        predictor = GsharePredictor(entries=32, history_bits=5)
        reference = simulate(trace, predictor, [estimator])
        run = reference.estimator_runs[estimator.name]

        streams = predictor_streams(
            trace, entries=32, history_bits=5, bhr_record_bits=16
        )
        indices = make_index("pc_xor_bhr", index_bits).vectorized(
            streams.pcs, streams.bhrs, np.zeros(len(trace), dtype=np.int64)
        )
        patterns = cir_pattern_stream(
            indices, streams.correct, cir_bits, bit_mask(cir_bits)
        )
        fast_counts = np.bincount(patterns, minlength=1 << cir_bits)
        assert fast_counts.tolist() == run.counts.tolist()


class TestGcirIndexedEquivalence:
    """GCIR-consuming index functions on the fast path vs the reference engine."""

    @staticmethod
    def _gcir_indexes(index_bits):
        return [
            GlobalCIRIndex(index_bits),
            XorIndex(index_bits, use_bhr=True, use_gcir=True),
            ConcatIndex(index_bits, fields=[("gcir", 3), ("pc", index_bits - 3)]),
        ]

    @settings(max_examples=20, deadline=None)
    @given(random_trace_strategy(max_sites=8, max_len=120))
    def test_gcir_index_equivalence(self, trace):
        index_bits, cir_bits = 5, 6
        streams = predictor_streams(
            trace, entries=32, history_bits=5, bhr_record_bits=16, gcir_bits=16
        )
        for index in self._gcir_indexes(index_bits):
            estimator = OneLevelConfidence(
                index, cir_bits=cir_bits, initializer=init_ones
            )
            reference = simulate(
                trace, GsharePredictor(entries=32, history_bits=5), [estimator]
            )
            run = reference.estimator_runs[estimator.name]

            indices = index.vectorized(streams.pcs, streams.bhrs, streams.gcirs)
            patterns = cir_pattern_stream(
                indices, streams.correct, cir_bits, bit_mask(cir_bits)
            )
            fast_counts = np.bincount(patterns, minlength=1 << cir_bits)
            assert fast_counts.tolist() == run.counts.tolist(), index.name


class TestTwoLevelEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(random_trace_strategy(max_sites=8, max_len=120))
    def test_two_level_matches_reference(self, trace):
        index_bits, l1_bits, l2_bits = 5, 5, 4
        estimator = TwoLevelConfidence(
            make_index("pc_xor_bhr", index_bits),
            level1_cir_bits=l1_bits,
            level2_cir_bits=l2_bits,
            second_use_pc=True,
            second_use_bhr=True,
            initializer=init_ones,
        )
        predictor = GsharePredictor(entries=32, history_bits=5)
        reference = simulate(trace, predictor, [estimator])
        run = reference.estimator_runs[estimator.name]

        streams = predictor_streams(
            trace, entries=32, history_bits=5, bhr_record_bits=16
        )
        l1_indices = make_index("pc_xor_bhr", index_bits).vectorized(
            streams.pcs, streams.bhrs, np.zeros(len(trace), dtype=np.int64)
        )
        patterns = two_level_pattern_stream(
            l1_indices,
            streams.correct,
            streams.pcs,
            streams.bhrs,
            level1_cir_bits=l1_bits,
            level2_cir_bits=l2_bits,
            second_use_pc=True,
            second_use_bhr=True,
            level1_init=bit_mask(l1_bits),
            level2_init=bit_mask(l2_bits),
        )
        fast_counts = np.bincount(patterns, minlength=1 << l2_bits)
        assert fast_counts.tolist() == run.counts.tolist()


class TestCounterStreams:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 7), st.booleans()),
            min_size=1,
            max_size=150,
        )
    )
    def test_resetting_counter_matches_estimator(self, accesses):
        maximum = 8
        indices = np.asarray([a[0] for a in accesses], dtype=np.int64)
        correct = np.asarray([int(a[1]) for a in accesses], dtype=np.uint8)
        fast = resetting_counter_stream(indices, correct, maximum=maximum)

        estimator = ResettingCounterConfidence(
            make_index("pc", 3), maximum=maximum
        )
        expected = []
        for (index, is_correct) in accesses:
            pc = index << 2
            expected.append(estimator.lookup(pc, 0, 0))
            estimator.update(pc, 0, 0, is_correct)
        assert fast.tolist() == expected

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 7), st.booleans()),
            min_size=1,
            max_size=150,
        )
    )
    def test_saturating_counter_matches_estimator(self, accesses):
        maximum = 8
        indices = np.asarray([a[0] for a in accesses], dtype=np.int64)
        correct = np.asarray([int(a[1]) for a in accesses], dtype=np.uint8)
        fast = saturating_counter_stream(indices, correct, maximum=maximum)

        estimator = SaturatingCounterConfidence(
            make_index("pc", 3), maximum=maximum
        )
        expected = []
        for (index, is_correct) in accesses:
            pc = index << 2
            expected.append(estimator.lookup(pc, 0, 0))
            estimator.update(pc, 0, 0, is_correct)
        assert fast.tolist() == expected

    def test_resetting_initial_value(self):
        indices = np.asarray([0], dtype=np.int64)
        correct = np.asarray([1], dtype=np.uint8)
        assert resetting_counter_stream(indices, correct, 8, initial=3)[0] == 3
        assert resetting_counter_stream(indices, correct, 8, initial=8)[0] == 8

    def test_saturating_initial_above_maximum_rejected(self):
        indices = np.asarray([0], dtype=np.int64)
        correct = np.asarray([1], dtype=np.uint8)
        with pytest.raises(ValueError, match="initial"):
            saturating_counter_stream(indices, correct, maximum=4, initial=5)
        with pytest.raises(ValueError, match="initial"):
            saturating_counter_stream(indices, correct, maximum=4, initial=-1)

    def test_saturating_initial_at_maximum_saturates_immediately(self):
        indices = np.asarray([0, 0], dtype=np.int64)
        correct = np.asarray([1, 1], dtype=np.uint8)
        values = saturating_counter_stream(indices, correct, maximum=4, initial=4)
        # Correct predictions cannot push the counter past the ceiling.
        assert values.tolist() == [4, 4]

    def test_saturating_rejects_non_positive_maximum(self):
        indices = np.asarray([0], dtype=np.int64)
        correct = np.asarray([1], dtype=np.uint8)
        with pytest.raises(ValueError, match="maximum"):
            saturating_counter_stream(indices, correct, maximum=0)


class TestFinalPatternsAndFlushes:
    def test_final_patterns(self):
        indices = np.asarray([0, 0, 1], dtype=np.int64)
        correct = np.asarray([0, 1, 1], dtype=np.uint8)
        finals = final_cir_patterns(indices, correct, 4, 0, table_entries=4)
        assert finals[0] == 0b10   # miss then correct
        assert finals[1] == 0b0
        assert finals[2] == 0      # untouched keeps init
        assert finals[3] == 0

    def test_keep_policy_equals_unflushed(self, random_trace):
        streams = predictor_streams(random_trace, entries=256, history_bits=8)
        indices = make_index("pc_xor_bhr", 8).vectorized(
            streams.pcs, streams.bhrs, np.zeros(len(random_trace), dtype=np.int64)
        )
        plain = cir_pattern_stream(indices, streams.correct, 8, bit_mask(8))
        kept = cir_pattern_stream_with_flushes(
            indices, streams.correct, 8, 256, flush_interval=500,
            policy="keep", base_init=bit_mask(8),
        )
        assert np.array_equal(plain, kept)

    def test_reinit_policy_resets_segments(self):
        indices = np.asarray([0, 0, 0, 0], dtype=np.int64)
        correct = np.asarray([1, 1, 1, 1], dtype=np.uint8)
        patterns = cir_pattern_stream_with_flushes(
            indices, correct, 4, 1, flush_interval=2,
            policy="reinit", base_init=0xF,
        )
        # After the flush the entry is back to all ones.
        assert patterns.tolist() == [0xF, 0xE, 0xF, 0xE]

    def test_keep_lastbit_sets_oldest_bit(self):
        indices = np.asarray([0, 0], dtype=np.int64)
        correct = np.asarray([1, 1], dtype=np.uint8)
        patterns = cir_pattern_stream_with_flushes(
            indices, correct, 4, 1, flush_interval=1,
            policy="keep_lastbit", base_init=0,
        )
        # Segment 1 reads 0; final state 0; flush sets bit 3 -> reads 0b1000.
        assert patterns.tolist() == [0, 0b1000]

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            cir_pattern_stream_with_flushes(
                np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.uint8),
                4, 4, 10, policy="whatever",
            )

    @pytest.mark.parametrize("flush_interval", [0, -1, -100])
    def test_non_positive_flush_interval_rejected(self, flush_interval):
        with pytest.raises(ValueError, match="flush_interval"):
            cir_pattern_stream_with_flushes(
                np.zeros(4, dtype=np.int64), np.ones(4, dtype=np.uint8),
                4, 4, flush_interval, policy="keep",
            )


@st.composite
def flush_cases(draw):
    """Random accesses, a flush interval (1 up to past the end), an init."""
    cir_bits = draw(st.integers(1, 8))
    accesses = draw(
        st.lists(st.tuples(st.integers(0, 7), st.booleans()), max_size=120)
    )
    interval = draw(st.one_of(st.just(1), st.integers(1, len(accesses) + 5)))
    mask = bit_mask(cir_bits)
    if draw(st.booleans()):
        base_init = draw(st.integers(0, mask))
    else:
        base_init = np.asarray(
            draw(st.lists(st.integers(0, mask), min_size=8, max_size=8)),
            dtype=np.int64,
        )
    return cir_bits, accesses, interval, base_init


class TestFlushesAgainstCIRTable:
    """The flushed stream against a CIRTable driven branch by branch."""

    @staticmethod
    def _reference(accesses, cir_bits, interval, policy, base_init):
        from repro.core.cir import CIRTable

        def initializer(entries, bits):
            return np.broadcast_to(base_init, (entries,)).copy()

        table = CIRTable(8, cir_bits, initializer=initializer)
        oldest_bit = 1 << (cir_bits - 1)
        reads = []
        for position, (index, is_correct) in enumerate(accesses):
            if position and position % interval == 0:
                if policy == "reinit":
                    table.reset()
                elif policy == "keep_lastbit":
                    kept = table.snapshot() | oldest_bit
                    table = CIRTable(8, cir_bits, initializer=lambda e, b: kept)
            reads.append(table.read(index))
            table.record(index, is_correct)
        return reads

    @settings(max_examples=60, deadline=None)
    @given(flush_cases(), st.sampled_from(["reinit", "keep", "keep_lastbit"]))
    def test_matches_cir_table(self, case, policy):
        cir_bits, accesses, interval, base_init = case
        indices = np.asarray([a[0] for a in accesses], dtype=np.int64)
        correct = np.asarray([int(a[1]) for a in accesses], dtype=np.uint8)
        patterns = cir_pattern_stream_with_flushes(
            indices, correct, cir_bits, 8, flush_interval=interval,
            policy=policy, base_init=base_init,
        )
        expected = self._reference(accesses, cir_bits, interval, policy, base_init)
        assert patterns.tolist() == expected


class TestOutOfRangeIndices:
    """Indices outside the table are a one-line ValueError, not a wrong read."""

    def test_negative_index_with_an_init_array(self):
        with pytest.raises(ValueError, match="outside a 4-entry table"):
            cir_pattern_stream(np.array([-1]), [1], 4, np.array([1, 2, 3, 4]))

    def test_index_past_an_init_array(self):
        with pytest.raises(ValueError, match="table index 7 is outside a 4-entry"):
            cir_pattern_stream(np.array([0, 7]), [1, 1], 4, np.array([1, 2, 3, 4]))

    def test_negative_index_with_a_scalar_init(self):
        with pytest.raises(ValueError, match="table index -2 is negative"):
            cir_pattern_stream(np.array([0, -2]), [1, 1], 4, 0)

    @pytest.mark.parametrize("bad_index", [-1, 4])
    def test_final_patterns(self, bad_index):
        with pytest.raises(ValueError, match="outside a 4-entry table"):
            final_cir_patterns(np.array([bad_index]), np.array([1]), 4, 0, 4)

    @pytest.mark.parametrize("policy", ["reinit", "keep", "keep_lastbit"])
    @pytest.mark.parametrize("bad_index", [-1, 4])
    def test_flushes(self, policy, bad_index):
        with pytest.raises(ValueError, match="outside a 4-entry table"):
            cir_pattern_stream_with_flushes(
                np.array([0, bad_index]), np.array([1, 1]), 4, 4,
                flush_interval=5, policy=policy,
            )

    @pytest.mark.parametrize("bad_index", [-1, 4])
    def test_saturating_counters(self, bad_index):
        with pytest.raises(ValueError, match="table index"):
            saturating_counter_stream(
                np.array([bad_index]), np.array([1]), maximum=4, table_entries=4
            )

    def test_counters_and_two_level_reject_negative_indices(self):
        with pytest.raises(ValueError, match="negative"):
            resetting_counter_stream(np.array([-1]), np.array([1]), maximum=4)
        with pytest.raises(ValueError, match="negative"):
            saturating_counter_stream(np.array([-1]), np.array([1]), maximum=4)
        with pytest.raises(ValueError, match="negative"):
            two_level_pattern_stream(
                np.array([-1]), np.array([1]), np.array([0]), np.array([0]),
                level1_cir_bits=4, level2_cir_bits=4,
            )
