"""Tests for the inequality and agreement statistics."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tollshare as ts
from tollshare.equity import average_ranks

EPS = np.finfo(float).eps


class TestGini:
    def test_equal_vector(self):
        assert ts.gini([3.0, 3.0, 3.0, 3.0]) == 0.0

    def test_single_winner(self):
        # pairwise absolute differences total 6 over n=4, total=1
        assert ts.gini([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.75)

    def test_scale_invariance(self):
        x = np.array([1.0, 4.0, 2.0, 0.0, 3.0])
        assert ts.gini(17.5 * x) == pytest.approx(ts.gini(x), abs=1e-12)

    def test_permutation_invariance(self):
        x = np.array([5.0, 1.0, 3.0])
        assert ts.gini(x[::-1]) == pytest.approx(ts.gini(x), abs=1e-12)

    def test_zero_total(self):
        with pytest.raises(ts.ZeroTotalError):
            ts.gini([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ts.gini([-1.0, 2.0])

    def test_matches_pairwise_definition(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 60))
            x = rng.exponential(size=n) * 10.0 ** rng.uniform(-6, 6)
            x[rng.random(n) < 0.3] = 0.0
            if x.sum() <= 0.0:
                continue
            pairwise = np.abs(x[:, None] - x[None, :]).sum() / (2.0 * n * x.sum())
            assert ts.gini(x) == pytest.approx(pairwise, rel=1e-12, abs=1e-15)

    def test_constant_vector_is_exactly_zero(self):
        for n in (2, 7, 100):
            assert ts.gini(np.full(n, 1.0 / 3.0)) == 0.0


class TestLorenz:
    def test_equal_vector_is_diagonal(self):
        curve = ts.lorenz([2.0, 2.0])
        assert curve.points == ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0))

    def test_single_winner(self):
        curve = ts.lorenz([1.0, 0.0])
        assert curve.points == ((0.0, 0.0), (0.5, 0.0), (1.0, 1.0))

    def test_shape_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.uniform(0.0, 10.0, size=int(rng.integers(2, 12)))
            if x.sum() == 0.0:
                continue
            points = np.array(ts.lorenz(x).points)
            assert points[0, 1] == 0.0 and points[-1, 1] == pytest.approx(1.0)
            assert np.all(np.diff(points[:, 1]) >= -1e-12)
            assert np.all(points[:, 1] <= points[:, 0] + 1e-12)
            # convexity: increments grow along the sorted order
            assert np.all(np.diff(points[:, 1], 2) >= -1e-12)

    def test_gini_matches_area_within_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            x = rng.uniform(0.0, 5.0, size=n)
            x[rng.random(n) < 0.3] = 0.0
            if x.sum() <= 0.0:
                continue
            curve_estimate = ts.lorenz(x).gini_estimate()
            assert abs(ts.gini(x) - curve_estimate) <= 1.0 / n

    def test_gini_estimate_equals_gini(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(1, 200))
            x = rng.uniform(0.0, 5.0, size=n)
            x[rng.random(n) < 0.3] = 0.0
            if x.sum() <= 0.0:
                continue
            assert ts.lorenz(x).gini_estimate() == pytest.approx(ts.gini(x), abs=1e-12)

    def test_zero_total(self):
        with pytest.raises(ts.ZeroTotalError):
            ts.lorenz([0.0])


class TestCorrelations:
    def test_self_correlation(self):
        x = np.array([1.0, 5.0, 2.0, 4.0])
        assert ts.rank_correlations(x, x) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_symmetry(self):
        x = np.array([1.0, 5.0, 2.0, 4.0])
        y = np.array([0.5, 1.5, 8.0, 2.0])
        forward, backward = ts.rank_correlations(x, y), ts.rank_correlations(y, x)
        assert forward[0] == pytest.approx(backward[0], abs=1e-12)
        assert forward[1] == pytest.approx(backward[1], abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        x, y = rng.uniform(size=10), rng.uniform(size=10)
        base = ts.rank_correlations(x, y)
        mapped = ts.rank_correlations(3.0 * x + 2.0, y)
        assert mapped[0] == pytest.approx(base[0], abs=1e-12)
        assert mapped[1] == pytest.approx(base[1], abs=1e-12)

    def test_perfect_anticorrelation(self):
        spearman, pearson = ts.rank_correlations([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        assert spearman == pytest.approx(-1.0)
        assert pearson == pytest.approx(-1.0)

    def test_ties_use_average_ranks(self):
        spearman, _ = ts.rank_correlations([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert spearman == pytest.approx(0.866025, abs=1e-6)

    def test_constant_vector(self):
        with pytest.raises(ts.ConstantVectorError):
            ts.rank_correlations([1.0, 1.0], [1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ts.rank_correlations([1.0], [1.0, 2.0])

    def test_typed_errors(self):
        with pytest.raises(ts.VectorShapeError):
            ts.rank_correlations([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ts.VectorShapeError):
            ts.gini([[1.0, 2.0]])
        with pytest.raises(ts.VectorShapeError):
            ts.lorenz([])
        with pytest.raises(ts.InvalidAllocationError):
            ts.gini([1.0, -2.0])
        with pytest.raises(ts.InvalidAllocationError):
            ts.ranking([1.0, np.nan])
        assert issubclass(ts.VectorShapeError, ts.TollShareError)
        assert issubclass(ts.VectorShapeError, ValueError)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_non_finite_rejected(self, bad, side):
        v, w = [1.0, bad, 3.0], [1.0, 2.0, 3.0]
        x, y = (v, w) if side == "x" else (w, v)
        with pytest.raises(ts.InvalidAllocationError):
            ts.rank_correlations(x, y)

    def test_non_finite_checked_before_constant(self):
        with pytest.raises(ts.InvalidAllocationError):
            ts.rank_correlations([np.nan, np.nan], [1.0, 1.0])

    @pytest.mark.parametrize("y, sign", [([3.0, 7.5], 1.0), ([7.5, 3.0], -1.0),
                                         ([1e-5, 2.3e4], 1.0), ([2.3e4, 1e-5], -1.0)])
    def test_two_points_give_exact_unit_pearson(self, y, sign):
        assert ts.rank_correlations([0.1, 0.3], y)[1] == sign

    @pytest.mark.parametrize("x, y, expected", [([1, 2], [3, 1], (-1.0, -1.0)),
                                                ([1, 2], [1, 3], (1.0, 1.0)),
                                                ([2.5, 0.1], [4.0, 9.0], (-1.0, -1.0))])
    def test_two_points_give_exact_unit_spearman(self, x, y, expected):
        assert ts.rank_correlations(x, y) == expected

    def test_average_ranks(self):
        ranks = average_ranks(np.array([3.0, 1.0, 3.0, 2.0, 3.0]))
        assert ranks.tolist() == [4.0, 1.0, 4.0, 2.0, 4.0]


@st.composite
def correlation_pairs(draw):
    """Two vectors of length 2..40 with magnitudes 1e-5..1e4: independent
    draws, draws from a few levels (ties), or y an affine copy of x."""
    n = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["spread", "ties", "affine"]))

    def vector():
        scale = 10.0 ** draw(st.floats(-5.0, 4.0))
        if kind == "ties":
            levels = st.integers(0, 3).map(float)
        else:
            levels = st.floats(0.0, 1.0)
        return scale * np.array(draw(st.lists(levels, min_size=n, max_size=n)))

    x = vector()
    if kind == "affine":
        slope = draw(st.floats(1e-3, 1e3)) * draw(st.sampled_from([-1.0, 1.0]))
        y = slope * x + draw(st.floats(-1e4, 1e4))
    else:
        y = vector()
    assume(np.ptp(x) > 0.0 and np.ptp(y) > 0.0)
    return x, y


@pytest.fixture(scope="module")
def scipy_stats():
    return pytest.importorskip("scipy.stats")


class TestAgainstScipy:
    """scipy.stats is the independent reference; the exact bits on AP68 are
    pinned by the report digests, so a few eps leave room for a scipy upgrade."""

    @settings(max_examples=400)
    @given(correlation_pairs())
    def test_matches_spearmanr_and_pearsonr(self, scipy_stats, pair):
        x, y = pair
        spearman, pearson = ts.rank_correlations(x, y)
        with warnings.catch_warnings():
            # nearly constant affine copies warn in scipy; the values still compare
            warnings.simplefilter("ignore")
            expected_spearman = float(scipy_stats.spearmanr(x, y).statistic)
            expected_pearson = float(scipy_stats.pearsonr(x, y).statistic)
        assert abs(spearman - expected_spearman) <= 4 * EPS
        assert abs(pearson - expected_pearson) <= 4 * EPS
        assert np.array_equal(average_ranks(x), scipy_stats.rankdata(x))
        assert np.array_equal(average_ranks(y), scipy_stats.rankdata(y))


class TestRanking:
    def test_orders_descending(self):
        result = ts.ranking([5.0, 9.0, 1.0, 7.0], top=2, bottom=2)
        assert result.order == (2, 4, 1, 3)
        assert result.top == (2, 4)
        assert result.bottom == (1, 3)

    def test_ties_break_on_segment_index(self):
        result = ts.ranking([1.0, 1.0, 1.0], top=3, bottom=3)
        assert result.order == (1, 2, 3)

    def test_counts_past_the_segments_take_them_all(self):
        result = ts.ranking([3.0, 2.0, 1.0], top=5, bottom=5)
        assert result.top == result.bottom == (1, 2, 3)
        assert ts.ranking([3.0, 2.0, 1.0], top=0, bottom=0).bottom == ()

    @pytest.mark.parametrize("counts", [dict(top=-1), dict(bottom=-1), dict(top=-4, bottom=-4)])
    def test_negative_counts_are_refused(self, counts):
        with pytest.raises(ts.SegmentIndexError, match="ranking counts must be >= 0") as info:
            ts.ranking([3.0, 2.0, 1.0], **counts)
        assert isinstance(info.value, ts.TollShareError) and isinstance(info.value, ValueError)

    def test_integral_counts_count_as_ints(self):
        expected = ts.ranking([3.0, 2.0, 1.0], top=2, bottom=2)
        assert ts.ranking([3.0, 2.0, 1.0], top=2.0, bottom=np.int64(2)) == expected
        assert ts.ranking([3.0, 2.0, 1.0], top=np.float64(2.0), bottom=np.uint8(2)) == expected

    @pytest.mark.parametrize("name, count", [
        ("top", 1.5), ("bottom", 2.5), ("top", None), ("top", True), ("top", np.True_),
    ])
    def test_counts_that_are_no_integers_are_refused(self, name, count):
        shown = f"ranking count {name} must be an integer, got {count!r}"
        with pytest.raises(ts.SegmentIndexError, match=re.escape(shown)):
            ts.ranking([3.0, 2.0, 1.0], **{name: count})


class TestFloatRange:
    @pytest.mark.parametrize("call", [
        lambda: ts.gini([1.7e308, 1e308]),
        lambda: ts.gini([1.5e308, 1e307]),
        lambda: ts.lorenz([1.7e308, 1e308]),
        lambda: ts.rank_correlations([1.7e308, 1e308, 5.0], [1.0, 2.0, 3.0]),
        lambda: ts.rank_correlations([1.0, 2.0, 3.0], [-1e308, 0.0, 1e308]),
    ], ids=["gini", "gini_wide", "lorenz", "pearson_x", "pearson_y_signed"])
    def test_sum_times_length_past_the_largest_float_is_refused(self, call):
        # at these sizes the Gini pair sum, the Lorenz sums or the mean overflow
        with pytest.raises(ts.InvalidAllocationError, match="sum times their count must be finite"):
            call()

    def test_power_of_two_scale_under_the_range_keeps_the_bits(self):
        x, y = np.array([3.0, 0.0, 1.0]), np.array([2.0, 5.0, 1.0])
        scale = 2.0 ** 1019  # x sums to 2^1021, times 3 under 2^1023
        assert ts.gini(x * scale) == ts.gini(x)
        assert ts.lorenz(x * scale) == ts.lorenz(x)
        assert ts.rank_correlations(x * scale, y * scale) == ts.rank_correlations(x, y)
