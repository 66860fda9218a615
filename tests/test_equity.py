"""Tests for the inequality and agreement statistics."""

import numpy as np
import pytest

import tollshare as ts


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


class TestRanking:
    def test_orders_descending(self):
        result = ts.ranking([5.0, 9.0, 1.0, 7.0], top=2, bottom=2)
        assert result.order == (2, 4, 1, 3)
        assert result.top == (2, 4)
        assert result.bottom == (1, 3)

    def test_ties_break_on_segment_index(self):
        result = ts.ranking([1.0, 1.0, 1.0], top=3, bottom=3)
        assert result.order == (1, 2, 3)
