"""Unit tests for confidence-curve construction and queries."""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import BucketStatistics, ConfidenceCurve
from repro.analysis.curves import CurvePoint
from repro.experiments.serialize import result_to_jsonable


def stats(counts, mispredicts):
    return BucketStatistics(np.asarray(counts, float), np.asarray(mispredicts, float))


class TestEmpiricalConstruction:
    def test_sorts_by_rate_descending(self):
        # Bucket rates: 0 -> 0.5, 1 -> 1.0, 2 -> 0.0.
        curve = ConfidenceCurve.from_statistics(stats([4, 2, 4], [2, 2, 0]))
        assert [p.bucket for p in curve.points] == [1, 0, 2]

    def test_cumulative_percentages(self):
        curve = ConfidenceCurve.from_statistics(stats([5, 5], [5, 0]))
        first, second = curve.points
        assert first.dynamic_percent == pytest.approx(50.0)
        assert first.misprediction_percent == pytest.approx(100.0)
        assert second.dynamic_percent == pytest.approx(100.0)
        assert second.misprediction_percent == pytest.approx(100.0)

    def test_empty_buckets_skipped(self):
        curve = ConfidenceCurve.from_statistics(stats([5, 0, 5], [1, 0, 0]))
        assert all(p.bucket != 1 for p in curve.points)

    def test_ties_break_by_bucket_id(self):
        curve = ConfidenceCurve.from_statistics(stats([5, 5], [1, 1]))
        assert [p.bucket for p in curve.points] == [0, 1]

    def test_empty_statistics(self):
        curve = ConfidenceCurve.from_statistics(BucketStatistics.zeros(4))
        assert len(curve) == 0
        assert curve.mispredictions_captured_at(50.0) == 0.0


class TestExplicitOrder:
    def test_order_followed(self):
        curve = ConfidenceCurve.from_statistics(
            stats([5, 5], [0, 5]), order=[0, 1]
        )
        assert [p.bucket for p in curve.points] == [0, 1]
        # With the bad bucket last, 50% of branches capture 0%.
        assert curve.mispredictions_captured_at(50.0) == pytest.approx(0.0)

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            ConfidenceCurve.from_statistics(stats([1], [0]), order=[3])

    def test_order_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            ConfidenceCurve.from_statistics(
                stats([5, 5], [0, 5]), order=[0, 0, 1]
            )

    def test_order_skips_empty_buckets(self):
        curve = ConfidenceCurve.from_statistics(
            stats([5, 0, 5], [1, 0, 1]), order=[0, 1, 2]
        )
        assert [p.bucket for p in curve.points] == [0, 2]


class TestQueries:
    def make_curve(self):
        # Three buckets: rates 1.0, 0.5, 0.0 with equal counts.
        return ConfidenceCurve.from_statistics(
            stats([10, 10, 10], [10, 5, 0]), name="q"
        )

    def test_interpolation_through_origin(self):
        curve = self.make_curve()
        # First point at x=33.3% captures 66.7%; halfway there is ~33.3%.
        assert curve.mispredictions_captured_at(100 / 6) == pytest.approx(
            100 / 3, abs=0.1
        )

    def test_exact_points(self):
        curve = self.make_curve()
        assert curve.mispredictions_captured_at(100 / 3) == pytest.approx(
            200 / 3, abs=0.1
        )
        assert curve.mispredictions_captured_at(100.0) == pytest.approx(100.0)

    def test_invalid_percent(self):
        with pytest.raises(ValueError):
            self.make_curve().mispredictions_captured_at(101.0)

    def test_low_confidence_buckets(self):
        curve = self.make_curve()
        assert curve.low_confidence_buckets(34.0) == [0]
        assert curve.low_confidence_buckets(67.0) == [0, 1]
        assert curve.low_confidence_buckets(5.0) == []

    def test_area_under_curve_bounds(self):
        curve = self.make_curve()
        assert 0.5 < curve.area_under_curve() <= 1.0

    def test_diagonal_curve_auc_half(self):
        # All buckets the same rate -> curve is the diagonal.
        curve = ConfidenceCurve.from_statistics(stats([5, 5], [1, 1]))
        assert curve.area_under_curve() == pytest.approx(0.5, abs=0.02)

    def test_as_series_includes_origin(self):
        xs, ys = self.make_curve().as_series()
        assert xs[0] == 0.0 and ys[0] == 0.0


class TestSparsify:
    def test_keeps_far_points_and_endpoint(self):
        counts = [1] * 100
        mispredicts = [1] * 50 + [0] * 50
        curve = ConfidenceCurve.from_statistics(stats(counts, mispredicts))
        sparse = curve.sparsified(min_spacing_percent=2.5)
        assert len(sparse) < len(curve)
        assert sparse.points[-1].dynamic_percent == pytest.approx(
            curve.points[-1].dynamic_percent
        )

    def test_spacing_respected(self):
        counts = [1] * 100
        mispredicts = [1] * 50 + [0] * 50
        sparse = ConfidenceCurve.from_statistics(
            stats(counts, mispredicts)
        ).sparsified(2.5)
        xs = [p.dynamic_percent for p in sparse.points]
        gaps = [b - a for a, b in zip(xs, xs[1:-1])]
        ys = [p.misprediction_percent for p in sparse.points]
        y_gaps = [b - a for a, b in zip(ys, ys[1:-1])]
        assert all(
            gap >= 2.5 - 1e-9 or ygap >= 2.5 - 1e-9
            for gap, ygap in zip(gaps, y_gaps)
        )


class TestInvariants:
    @given(
        st.lists(
            st.tuples(st.integers(1, 30), st.integers(0, 30)),
            min_size=1,
            max_size=20,
        )
    )
    def test_monotone_non_decreasing(self, rows):
        counts = [c for c, _ in rows]
        mispredicts = [min(m, c) for (c, _), m in zip(rows, (m for _, m in rows))]
        curve = ConfidenceCurve.from_statistics(stats(counts, mispredicts))
        xs, ys = curve.as_series()
        assert (np.diff(xs) >= -1e-9).all()
        assert (np.diff(ys) >= -1e-9).all()
        # Empirical sorting makes the curve concave-ish: every prefix is at
        # least the diagonal.
        assert all(y + 1e-6 >= x for x, y in zip(xs, ys)) or ys[-1] == 0


class TestKnee:
    def test_knee_of_steep_curve(self):
        curve = ConfidenceCurve.from_statistics(
            stats([10, 10, 80], [8, 2, 0])
        )
        knee = curve.knee()
        # The knee sits where cumulative capture most exceeds the diagonal:
        # after the two misprediction-heavy buckets (x=20, y=100).
        assert knee.dynamic_percent == pytest.approx(20.0)
        assert knee.misprediction_percent == pytest.approx(100.0)

    def test_knee_empty_curve(self):
        curve = ConfidenceCurve.from_statistics(BucketStatistics.zeros(3))
        with pytest.raises(ValueError):
            curve.knee()

    def test_knee_on_diagonal_curve_is_valid_point(self):
        curve = ConfidenceCurve.from_statistics(stats([5, 5], [1, 1]))
        knee = curve.knee()
        assert 0 < knee.dynamic_percent <= 100


class TestPublicConstructor:
    def test_rejects_decreasing_x(self):
        points = [CurvePoint(50.0, 60.0, 0, 0.5), CurvePoint(40.0, 70.0, 1, 0.5)]
        with pytest.raises(ValueError, match="non-decreasing"):
            ConfidenceCurve("bad", points)

    def test_tolerates_rounding_dip(self):
        points = [CurvePoint(50.0, 60.0, 0, 0.5), CurvePoint(50.0 - 1e-12, 70.0, 1, 0.5)]
        assert len(ConfidenceCurve("ok", points)) == 2

    def test_from_statistics_builds_no_points(self, monkeypatch):
        import repro.analysis.curves as curves_module

        def forbidden(*args):
            raise AssertionError("a CurvePoint was built")

        monkeypatch.setattr(curves_module, "CurvePoint", forbidden)
        curve = ConfidenceCurve.from_statistics(stats([4, 2, 4, 0], [2, 2, 0, 0]))
        assert len(curve) == 3
        assert curve.mispredictions_captured_at(20.0) > 0.0
        assert curve.low_confidence_buckets(60.0) == [1, 0]
        assert len(curve.sparsified(2.5)) == 3

    def test_points_round_trip(self):
        points = [CurvePoint(25.0, 50.0, 3, 0.5), CurvePoint(100.0, 100.0, 1, 0.1)]
        curve = ConfidenceCurve("c", points)
        assert curve.points == points
        assert curve.knee() == points[0]


# ----- exact-equality oracle --------------------------------------------------
#
# The per-point construction loop and the point-list queries below are the
# original object-per-point implementation of ConfidenceCurve; the
# column-backed curve must reproduce every field bit for bit.


def reference_points(statistics, order=None):
    counts = statistics.counts
    mispredicts = statistics.mispredicts
    if order is None:
        rates = statistics.rates()
        occupied = np.flatnonzero(counts > 0)
        order_arr = occupied[np.lexsort((occupied, -rates[occupied]))]
    else:
        order_arr = np.asarray(list(order), dtype=np.int64)
        order_arr = order_arr[counts[order_arr] > 0]
    total = counts.sum()
    total_mispredicts = mispredicts.sum()
    if total == 0:
        return []
    cumulative_counts = np.cumsum(counts[order_arr])
    cumulative_mispredicts = np.cumsum(mispredicts[order_arr])
    points = []
    for position, bucket in enumerate(order_arr.tolist()):
        dynamic_percent = float(100.0 * cumulative_counts[position] / total)
        if total_mispredicts > 0:
            mis_percent = float(
                100.0 * cumulative_mispredicts[position] / total_mispredicts
            )
        else:
            mis_percent = 100.0
        rate = float(mispredicts[bucket] / counts[bucket])
        points.append(CurvePoint(dynamic_percent, mis_percent, bucket, rate))
    return points


def reference_captured_at(points, dynamic_percent):
    if not points:
        return 0.0
    xs = [0.0] + [p.dynamic_percent for p in points]
    ys = [0.0] + [p.misprediction_percent for p in points]
    position = bisect.bisect_left(xs, dynamic_percent)
    if position >= len(xs):
        return ys[-1]
    if xs[position] == dynamic_percent or position == 0:
        return ys[position]
    x0, x1 = xs[position - 1], xs[position]
    y0, y1 = ys[position - 1], ys[position]
    if x1 == x0:
        return y1
    return y0 + (y1 - y0) * (dynamic_percent - x0) / (x1 - x0)


def reference_low_confidence_buckets(points, max_dynamic_percent):
    selected = []
    for point in points:
        if point.dynamic_percent > max_dynamic_percent + 1e-9:
            break
        selected.append(point.bucket)
    return selected


def reference_knee(points):
    return max(points, key=lambda p: p.misprediction_percent - p.dynamic_percent)


def reference_sparsified(points, min_spacing_percent):
    if not points:
        return []
    kept = [points[0]]
    for point in points[1:-1]:
        previous = kept[-1]
        if (
            point.dynamic_percent - previous.dynamic_percent >= min_spacing_percent
            or point.misprediction_percent - previous.misprediction_percent
            >= min_spacing_percent
        ):
            kept.append(point)
    if len(points) > 1:
        kept.append(points[-1])
    return kept


def assert_points_identical(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        # Exact equality (not approx) and exact types, field by field.
        assert got.dynamic_percent == want.dynamic_percent
        assert got.misprediction_percent == want.misprediction_percent
        assert got.bucket == want.bucket
        assert got.bucket_rate == want.bucket_rate
        assert type(got.bucket) is int and type(got.dynamic_percent) is float
        assert type(got.bucket_rate) is float


# Small count values make rate ties common; zeros make empty buckets.
bucket_rows = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=40
)


@st.composite
def statistics_and_order(draw):
    rows = draw(bucket_rows)
    counts = [c for c, _ in rows]
    mispredicts = [min(m, c) for c, m in rows]
    if draw(st.booleans()):
        mispredicts = [0] * len(rows)
    statistics = stats(counts, mispredicts)
    order = None
    if draw(st.booleans()):
        ids = list(range(len(rows)))
        order = draw(st.permutations(ids))
        order = order[: draw(st.integers(0, len(order)))]
    return statistics, order


class TestExactOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        statistics_and_order(),
        st.lists(st.floats(0.0, 100.0), max_size=5),
        st.floats(0.0, 10.0),
    )
    def test_matches_per_point_loop(self, case, percents, spacing):
        statistics, order = case
        curve = ConfidenceCurve.from_statistics(statistics, order=order, name="o")
        expected = reference_points(statistics, order)
        assert_points_identical(curve.points, expected)
        assert len(curve) == len(expected)

        # Exact curve x values hit the equality branch of the bisection.
        probes = percents + [p.dynamic_percent for p in expected] + [0.0, 100.0]
        for percent in probes:
            assert curve.mispredictions_captured_at(
                percent
            ) == reference_captured_at(expected, percent)
            assert curve.low_confidence_buckets(
                percent
            ) == reference_low_confidence_buckets(expected, percent)

        if expected:
            assert curve.knee() == reference_knee(expected)
        else:
            with pytest.raises(ValueError):
                curve.knee()

        for min_spacing in (spacing, 2.5):
            sparse = curve.sparsified(min_spacing)
            assert sparse.name == "o"
            assert_points_identical(
                sparse.points, reference_sparsified(expected, min_spacing)
            )

        assert result_to_jsonable(curve) == {
            "name": "o",
            "points": [
                {
                    "dynamic_percent": p.dynamic_percent,
                    "misprediction_percent": p.misprediction_percent,
                    "bucket": p.bucket,
                    "bucket_rate": p.bucket_rate,
                }
                for p in expected
            ],
        }
