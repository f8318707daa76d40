"""Unit tests for weighting, Table 1 building, and confidence metrics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import (
    BucketStatistics,
    ConfusionCounts,
    Table1,
    build_table1,
    concat_normalized,
    confidence_metrics,
    equal_weight_combine,
)


def stats(counts, mispredicts):
    return BucketStatistics(np.asarray(counts, float), np.asarray(mispredicts, float))


class TestEqualWeightCombine:
    def test_equal_contribution(self):
        # Benchmark A has 10x the branches of B; after weighting both
        # contribute the same mass.
        a = stats([100, 0], [50, 0])
        b = stats([0, 10], [0, 10])
        combined = equal_weight_combine({"a": a, "b": b})
        assert combined.counts[0] == pytest.approx(combined.counts[1])

    def test_rate_is_mean_of_rates(self):
        a = stats([100], [10])   # 10%
        b = stats([10], [3])     # 30%
        combined = equal_weight_combine([a, b])
        assert combined.misprediction_rate == pytest.approx(0.2)

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            equal_weight_combine([])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            equal_weight_combine([stats([1], [0]), stats([1, 1], [0, 0])])

    def test_zero_total_benchmark_skipped(self):
        combined = equal_weight_combine([stats([4], [1]), BucketStatistics.zeros(1)])
        assert combined.total == pytest.approx(1.0)

    @given(
        st.integers(1, 8).flatmap(
            lambda size: st.lists(
                st.lists(
                    st.tuples(st.integers(0, 50), st.integers(0, 50)),
                    min_size=size,
                    max_size=size,
                ),
                min_size=1,
                max_size=6,
            )
        )
    )
    def test_matches_sequential_algebra(self, benchmarks):
        items = [
            stats([c for c, _ in rows], [min(c, m) for c, m in rows])
            for rows in benchmarks
        ]
        # Reference: summing normalized statistics one object at a time.
        expected = BucketStatistics.zeros(items[0].num_buckets)
        for item in items:
            if item.total == 0:
                continue
            expected = expected + item.normalized()
        combined = equal_weight_combine(items)
        assert combined.counts.tolist() == expected.counts.tolist()
        assert combined.mispredicts.tolist() == expected.mispredicts.tolist()


class TestConcatNormalized:
    def test_disjoint_bucket_spaces(self):
        a = stats([2, 2], [1, 0])
        b = stats([4], [2])
        combined = concat_normalized({"a": a, "b": b})
        assert combined.num_buckets == 3
        assert combined.total == pytest.approx(2.0)
        # b's single bucket carries weight 1.0.
        assert combined.counts[2] == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            concat_normalized([])


class TestTable1:
    def make_table(self):
        counts = [10, 20, 70]
        mispredicts = [5, 2, 1]
        return build_table1(stats(counts, mispredicts))

    def test_rows_in_counter_order(self):
        table = self.make_table()
        assert [row.count for row in table.rows] == [0, 1, 2]

    def test_percentages(self):
        table = self.make_table()
        row0 = table.row(0)
        assert row0.misprediction_rate == pytest.approx(0.5)
        assert row0.percent_refs == pytest.approx(10.0)
        assert row0.percent_mispredicts == pytest.approx(62.5)

    def test_cumulative_reaches_100(self):
        table = self.make_table()
        last = table.rows[-1]
        assert last.cumulative_percent_refs == pytest.approx(100.0)
        assert last.cumulative_percent_mispredicts == pytest.approx(100.0)

    def test_low_confidence_split(self):
        table = self.make_table()
        refs, mispredicts = table.low_confidence_split(1)
        assert refs == pytest.approx(30.0)
        assert mispredicts == pytest.approx(87.5)

    def test_missing_row(self):
        with pytest.raises(KeyError):
            self.make_table().row(99)

    def test_empty_statistics_rejected(self):
        with pytest.raises(ValueError):
            build_table1(BucketStatistics.zeros(3))

    def test_format_contains_all_rows(self):
        text = self.make_table().format()
        assert "0" in text and "Cum.%" in text
        assert len(text.splitlines()) >= 5


class TestConfusionCounts:
    def make(self):
        return ConfusionCounts(
            high_correct=80, high_incorrect=2, low_correct=10, low_incorrect=8
        )

    def test_metrics(self):
        counts = self.make()
        assert counts.total == 100
        assert counts.low_fraction == pytest.approx(0.18)
        assert counts.sensitivity == pytest.approx(0.8)
        assert counts.specificity == pytest.approx(80 / 90)
        assert counts.predictive_value_positive == pytest.approx(80 / 82)
        assert counts.predictive_value_negative == pytest.approx(8 / 18)

    def test_degenerate_zero_division(self):
        counts = ConfusionCounts(0, 0, 0, 0)
        assert counts.sensitivity == 0.0
        assert counts.specificity == 0.0
        assert counts.low_fraction == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(-1, 0, 0, 0)


class TestConfidenceMetrics:
    def test_collapse(self):
        s = stats([10, 10], [8, 1])
        counts = confidence_metrics(s, low_buckets=[0])
        assert counts.low_incorrect == 8
        assert counts.low_correct == 2
        assert counts.high_incorrect == 1
        assert counts.high_correct == 9
        assert counts.sensitivity == pytest.approx(8 / 9)

    def test_out_of_range_low_bucket(self):
        with pytest.raises(ValueError):
            confidence_metrics(stats([1], [0]), low_buckets=[5])

    def test_empty_low_set(self):
        s = stats([10], [5])
        counts = confidence_metrics(s, low_buckets=[])
        assert counts.low_fraction == 0.0
        assert counts.sensitivity == 0.0

    @given(
        seed=st.integers(0, 2**32 - 1),
        buckets=st.integers(1, 300),
        low_share=st.floats(0.0, 1.0),
    )
    def test_matches_bucket_order_loop_bit_for_bit(self, seed, buckets, low_share):
        # Equal-weighted statistics are fractional, so the sums round and
        # the order in which buckets are added shows in the last bits.
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, 50, size=buckets) * (rng.random(buckets) < 0.7)
        counts = raw / max(int(raw.sum()), 1) * 0.25
        mispredicts = counts * rng.random(buckets)
        statistics = stats(counts, mispredicts)
        low = set(np.flatnonzero(rng.random(buckets) < low_share).tolist())

        # The per-bucket loop the vectorized version replaced.
        sums = {"hc": 0.0, "hi": 0.0, "lc": 0.0, "li": 0.0}
        for bucket in range(buckets):
            executions = float(counts[bucket])
            if executions == 0:
                continue
            wrong = float(mispredicts[bucket])
            side = "l" if bucket in low else "h"
            sums[side + "c"] += executions - wrong
            sums[side + "i"] += wrong

        result = confidence_metrics(statistics, low)
        assert result.high_correct.hex() == sums["hc"].hex()
        assert result.high_incorrect.hex() == sums["hi"].hex()
        assert result.low_correct.hex() == sums["lc"].hex()
        assert result.low_incorrect.hex() == sums["li"].hex()
