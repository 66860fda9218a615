"""Tests for the allocation methods and the generic weight-scheme family."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tollshare as ts
from tollshare import TollMatrix, model

from helpers import (
    coverage_loop_settle,
    coverage_two_step,
    exact_loads_loop,
    scs_loop,
    seeded_matrices,
    ses_loop,
    sps_decomposition_loop,
    sps_loop,
)


class TestKnownValues:
    def test_example_ses(self, example3):
        assert np.allclose(ts.ses(example3), [5 / 6, 5 / 6, 1 / 3], atol=1e-12)

    def test_example_sps(self, example3):
        assert np.allclose(ts.sps(example3), [4 / 5, 4 / 5, 2 / 5], atol=1e-12)

    def test_example_scs(self, example3):
        assert np.allclose(ts.scs(example3), [2 / 3, 1.0, 1 / 3], atol=1e-12)

    def test_unstable_example_sps(self, example61):
        expected = [3.401, 3.917, 0.441, 2.427, 0.425]
        assert np.allclose(ts.sps(example61), expected, atol=5e-4)

    def test_zero_matrix(self):
        zero = TollMatrix.zero(4)
        for method in (ts.ses, ts.sps, ts.scs):
            assert np.array_equal(method(zero), np.zeros(4))

    def test_diagonal_only_sps(self):
        matrix = TollMatrix(3, {(1, 1): 2.0, (2, 2): 0.5, (3, 3): 1.0})
        assert np.array_equal(ts.sps(matrix), [2.0, 0.5, 1.0])

    def test_single_segment(self):
        matrix = TollMatrix(1, {(1, 1): 3.5})
        for method in (ts.ses, ts.sps, ts.scs):
            assert np.array_equal(method(matrix), [3.5])

    def test_full_trip_split_evenly(self):
        matrix = TollMatrix.unit(1, 4, 4).scaled(8.0)
        for method in (ts.ses, ts.sps, ts.scs):
            assert np.allclose(method(matrix), [2.0, 2.0, 2.0, 2.0], atol=1e-12)


class TestMethodInvariants:
    @pytest.mark.parametrize("name", ["ses", "sps", "scs"])
    def test_efficiency_and_nonnegativity(self, name):
        method = ts.allocation_method(name)
        for matrix in seeded_matrices(56):
            shares = method(matrix)
            assert np.all(shares >= 0.0)
            assert abs(shares.sum() - matrix.total) <= 1e-9 * max(1.0, matrix.total)

    @pytest.mark.parametrize("name", ["ses", "sps", "scs"])
    def test_inessential_segment_gets_nothing(self, name):
        method = ts.allocation_method(name)
        for idx, matrix in enumerate(seeded_matrices(20, sizes=(3, 5, 7))):
            victim = 1 + idx % matrix.n
            pruned = TollMatrix(
                matrix.n,
                {(h, k): v for (h, k), v in matrix.trips() if not (h <= victim <= k)},
            )
            shares = method(pruned)
            for segment in ts.inessential_segments(pruned):
                assert shares[segment - 1] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("method", [ts.ses, ts.scs])
    def test_linearity_of_equal_and_compensated(self, method):
        a = ts.random_matrix(6, density=0.7, seed=21)
        b = ts.random_matrix(6, density=0.4, seed=22)
        lhs = method(a.scaled(2.0) + b.scaled(0.5))
        rhs = 2.0 * method(a) + 0.5 * method(b)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_sps_covariance(self):
        matrix = ts.random_matrix(5, density=0.8, seed=33)
        a = np.array([1.0, 0.0, 0.25, 0.0, 2.0])
        transformed = ts.covariance_transform(matrix, 2.0, a)
        assert np.allclose(ts.sps(transformed), 2.0 * ts.sps(matrix) + a, atol=1e-9)

    def test_ses_keeps_block_totals(self):
        matrix = ts.block_structured_matrix([{1, 2}, {3, 4}], seed=5)
        shares = ts.ses(matrix)

        def internal(lo, hi):
            return sum(t for (h, k), t in matrix.trips() if lo <= h and k <= hi)

        assert shares[0] + shares[1] == pytest.approx(internal(1, 2), abs=1e-9)
        assert shares[2] + shares[3] == pytest.approx(internal(3, 4), abs=1e-9)

    def test_equal_sharing_unit_trip_values(self):
        # one-segment widening of a unit trip shifts the equal split
        assert ts.ses(TollMatrix.unit(2, 3, 3))[2] == pytest.approx(1 / 2)
        assert ts.ses(TollMatrix.unit(1, 3, 3))[2] == pytest.approx(1 / 3)

    def test_sps_not_additive_beyond_two_segments(self):
        # beta is constant for n=2, so the smallest additivity failure needs n=3
        a, b = TollMatrix.unit(1, 2, 3), TollMatrix.unit(1, 3, 3)
        assert not np.allclose(ts.sps(a + b), ts.sps(a) + ts.sps(b), atol=1e-6)
        assert np.allclose(
            ts.sps(TollMatrix.unit(1, 1, 2) + TollMatrix.unit(1, 2, 2)),
            ts.sps(TollMatrix.unit(1, 1, 2)) + ts.sps(TollMatrix.unit(1, 2, 2)),
            atol=1e-12,
        )


    @pytest.mark.parametrize("matrix", [
        TollMatrix(4, {(3, 4): 1e308}),
        TollMatrix(3, {(1, 2): 3e307, (1, 3): 1e308, (2, 2): 4e307}),
        TollMatrix(6, {(2, 5): 1.79e308}),
    ])
    def test_near_limit_tolls_with_finite_total(self, matrix):
        for method in (ts.ses, ts.sps, ts.scs):
            shares = method(matrix)
            assert np.all(np.isfinite(shares)), method.__name__
            assert abs(shares.sum() - matrix.total) <= ts.DEFAULT_TOL * matrix.total


class TestSpsDecomposition:
    def test_example_values(self, example3):
        d = ts.sps_decomposition(example3)
        assert np.array_equal(d.separable, np.zeros(3))
        assert np.allclose(d.nonseparable, [2.0, 2.0, 1.0])
        assert d.nonseparable_total == pytest.approx(2.0)
        assert d.beta == pytest.approx(0.4)

    def test_invariants_on_random_matrices(self):
        for matrix in seeded_matrices(30):
            d = ts.sps_decomposition(matrix)
            assert d.nonseparable_total >= -1e-12
            assert np.all(d.nonseparable >= -1e-12)
            assert d.separable.sum() <= matrix.total + 1e-9
            if d.beta is not None:
                assert d.beta > 0.0

    def test_beta_undefined_without_shared_trips(self):
        assert ts.sps_decomposition(TollMatrix(2, {(1, 1): 3.0})).beta is None
        assert ts.sps_decomposition(TollMatrix.zero(3)).beta is None


class TestWeightSchemes:
    def test_builtin_names(self):
        for name in ("ses", "sps", "scs"):
            scheme = ts.builtin_scheme(name)
            assert scheme.name == name
        assert ts.builtin_scheme("ses").t_independent
        assert ts.builtin_scheme("scs").t_independent
        assert not ts.builtin_scheme("sps").t_independent
        with pytest.raises(ts.UnknownSchemeError):
            ts.builtin_scheme("nope")

    def test_equal_scheme_weights(self, example3):
        scheme = ts.builtin_scheme("ses")
        assert scheme.weight(example3, 1, 3, 2) == pytest.approx(1 / 3)
        assert scheme.weight(example3, 2, 2, 2) == 1.0

    def test_compensated_scheme_weights(self, example3):
        scheme = ts.builtin_scheme("scs")
        assert scheme.weight(example3, 1, 3, 2) == pytest.approx(1 / 3)
        assert scheme.weight(example3, 1, 3, 1) == pytest.approx(1 / 3)
        assert scheme.weight(example3, 1, 3, 3) == pytest.approx(1 / 3)
        assert scheme.weight(example3, 2, 3, 2) == pytest.approx(2 / 3)
        assert scheme.weight(example3, 2, 2, 2) == 1.0

    def test_proportional_scheme_weights(self, example3):
        scheme = ts.builtin_scheme("sps")
        assert scheme.weight(example3, 1, 1, 1) == 1.0
        assert scheme.weight(example3, 1, 3, 2) == pytest.approx(0.4)

    @pytest.mark.parametrize("name", ["ses", "scs"])
    def test_trip_weights_sum_to_one(self, name):
        scheme = ts.builtin_scheme(name)
        for n in range(1, 9):
            matrix = TollMatrix.zero(n)
            weight = scheme.factory(matrix)
            for h in range(1, n + 1):
                for k in range(h, n + 1):
                    total = sum(weight(h, k, i) for i in range(h, k + 1))
                    assert total == pytest.approx(1.0, abs=1e-12)

    def test_family_matches_direct_methods(self, example3):
        for name in ("ses", "sps", "scs"):
            direct = ts.allocation_method(name)(example3)
            family = ts.family_allocate(example3, ts.builtin_scheme(name))
            assert np.allclose(direct, family, atol=1e-12)

    def test_null_scheme_gives_zero(self, example3):
        null = ts.WeightScheme("null", True, lambda m: lambda h, k, i: 0.0)
        assert np.array_equal(ts.family_allocate(example3, null), np.zeros(3))

    def test_negative_weight_rejected(self, example3):
        bad = ts.WeightScheme("bad", True, lambda m: lambda h, k, i: -0.5)
        with pytest.raises(ts.NegativeWeightError):
            ts.family_allocate(example3, bad)

    def test_weight_off_the_trip_is_an_index_error(self, example3):
        with pytest.raises(ts.SegmentIndexError, match="segment 3 is not on trip"):
            ts.builtin_scheme("ses").weight(example3, 1, 2, 3)


@st.composite
def toll_matrices(draw, n=None):
    """n = 1..12, unless given, with no trip, one trip, every trip or a
    random subset, and tolls spanning 1e-12 to 1e12 so that prefix sums
    lose low-order bits."""
    n = draw(st.integers(1, 12)) if n is None else n
    cells = [(h, k) for h in range(1, n + 1) for k in range(h, n + 1)]
    kind = draw(st.sampled_from(("zero", "single", "dense", "subset")))
    if kind == "zero":
        trips = []
    elif kind == "single":
        trips = [draw(st.sampled_from(cells))]
    elif kind == "dense":
        trips = cells
    else:
        trips = draw(st.lists(st.sampled_from(cells), unique=True))
    return TollMatrix(n, {trip: draw(st.floats(1e-12, 1e12)) for trip in trips})


@st.composite
def wide_matrices(draw):
    """n = 1..12 with one trip or a nonempty random subset, each toll
    log-uniform from 1e-300 to 1e300 or subnormal.  Subnormals start at
    2**-1070, so that a toll split over 12 segments stays above 0."""
    n = draw(st.integers(1, 12))
    cells = [(h, k) for h in range(1, n + 1) for k in range(h, n + 1)]
    if draw(st.booleans()):
        trips = [draw(st.sampled_from(cells))]
    else:
        trips = draw(st.lists(st.sampled_from(cells), min_size=1, unique=True))
    tolls = (st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99), st.integers(-300, 299))
             | st.floats(2.0 ** -1070, 2.0 ** -1022, exclude_max=True))
    return TollMatrix(n, {trip: draw(tolls) for trip in trips})


@st.composite
def wide_array_matrices(draw):
    """Array-lane matrices: 16..40 segments, 128 trips or more, each toll
    log-uniform from 1e-300 to 1e300."""
    n = draw(st.integers(16, 40))
    cells = [(h, k) for h in range(1, n + 1) for k in range(h, n + 1)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    picked = np.sort(rng.choice(len(cells), draw(st.integers(128, len(cells))), replace=False))
    tolls = 10.0 ** rng.uniform(-300.0, 300.0, len(picked))
    return TollMatrix(n, {cells[j]: float(t) for j, t in zip(picked, tolls)})


@st.composite
def open_segment_matrices(draw):
    """n = 1..12 with tolls that leave prefix sums short of their bound:
    each log-uniform from 5e-324 to 1e300, or each from 0.01 to 10 but
    one of 1e16."""
    n = draw(st.integers(1, 12))
    cells = [(h, k) for h in range(1, n + 1) for k in range(h, n + 1)]
    trips = draw(st.lists(st.sampled_from(cells), min_size=1, unique=True))
    if draw(st.booleans()):
        tolls = st.floats(-1074.0, math.log2(1e300)).map(lambda e: 2.0 ** e)
        return TollMatrix(n, {trip: draw(tolls) for trip in trips})
    entries = {trip: draw(st.floats(0.01, 10.0)) for trip in trips}
    entries[draw(st.sampled_from(trips))] = 1e16
    return TollMatrix(n, entries)


def sps_exact(matrix):
    """sps in rational arithmetic, rounded once per share.  ``sps_loop``
    takes the pooled revenue as the total less the diagonal, which is all
    rounding when the diagonal swamps the other trips, so it cannot serve
    as the reference across 600 orders of magnitude."""
    n = matrix.n
    multi = [(h, k, Fraction(t)) for (h, k), t in matrix.trips() if h < k]
    involvement = [sum((t for h, k, t in multi if h <= i <= k), Fraction(0))
                   for i in range(1, n + 1)]
    pooled, denom = sum((t for _, _, t in multi), Fraction(0)), sum(involvement)
    beta = pooled / denom if denom else Fraction(0)
    return np.array([float(Fraction(matrix.entries.get((i, i), 0.0)) + beta * involvement[i - 1])
                     for i in range(1, n + 1)])


def _lane_outputs(matrix):
    """Every coverage-based result, ``sps_decomposition``'s ``nonseparable``
    included, for one matrix."""
    return [ts.ses(matrix), ts.sps(matrix), ts.scs(matrix),
            ts.sps_decomposition(matrix).nonseparable,
            ts.counterexample_method("A1_involvement_sum")(matrix)]


#: A threshold above the trip count of every matrix the tests build.
_LOOP_ONLY = 10 ** 9


class TestCoverageKernel:
    def test_sums_weights_over_each_trip(self, example3):
        assert np.array_equal(ts.coverage(example3, [1.0, 2.0]), [3.0, 3.0, 2.0])

    def test_zero_weight_trips_cover_nothing(self):
        matrix = TollMatrix(3, {(1, 1): 5.0, (1, 3): 1.0})
        assert np.array_equal(ts.coverage(matrix, [5.0, 0.0]), [5.0, 0.0, 0.0])

    def test_uncovered_segment_is_exactly_zero(self):
        # a plain prefix sum of the differences leaves -5.6e-17 on segment 4
        matrix = TollMatrix(4, {(1, 2): 0.001, (2, 3): 1.0})
        for method in (ts.ses, ts.sps, ts.scs):
            assert method(matrix)[3] == 0.0

    def test_small_trip_past_a_huge_one_keeps_its_share(self):
        # the prefix sum after the 1e300 trip exits is pure residue on 6..8
        matrix = TollMatrix(8, {(2, 5): 1e300, (1, 8): 1e-300})
        assert ts.inessential_segments(matrix) == []
        for threshold in (0, _LOOP_ONLY):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(model, "_ARRAY_LANE_TRIPS", threshold)
                assert np.array_equal(ts.ses(matrix)[5:], [1.25e-301] * 3)
                assert np.array_equal(ts.scs(matrix)[5:], [1.25e-301] * 3)
                assert np.array_equal(ts.sps(matrix)[5:], [2.5e-301] * 3)

    def test_positive_residue_is_summed_again(self):
        # the 1e16 trip swallows the 0.3 that enters with it, so the prefix
        # sums on segments 2 and 3 are 0.0 and 1.0, short of 0.3 and 1.3
        matrix = TollMatrix(3, {(1, 1): 1e16, (1, 3): 0.3, (3, 3): 1.0})
        for threshold in (0, _LOOP_ONLY):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(model, "_ARRAY_LANE_TRIPS", threshold)
                assert np.array_equal(ts.coverage(matrix, [1e16, 0.3, 1.0]), [1e16, 0.3, 1.3])

    def test_pooled_revenue_under_a_huge_diagonal(self):
        # total - sum(diagonal) is 0 here, while the pooled revenue is 1e-300
        matrix = TollMatrix(2, {(1, 1): 1e300, (1, 2): 1e-300})
        assert ts.sps_decomposition(matrix).nonseparable_total == 1e-300
        assert np.array_equal(ts.sps(matrix), [1e300, 5e-301])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.one_of(toll_matrices(), wide_matrices()))
    def test_lanes_return_the_same_bits(self, matrix):
        results = []
        for threshold in (0, _LOOP_ONLY):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(model, "_ARRAY_LANE_TRIPS", threshold)
                results.append(_lane_outputs(matrix))
        for array, loop in zip(*results):
            assert np.array_equal(array, loop)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(wide_matrices())
    @example(TollMatrix(8, {(2, 5): 1e300, (1, 8): 1e-300}))
    def test_loop_lane_settles_as_it_did_on_its_own(self, matrix):
        """Below ``_ARRAY_LANE_TRIPS`` trips, a segment left open goes to the
        array lane, with the bits of the loop lane's former own settle."""
        assert len(matrix.entries) < model._ARRAY_LANE_TRIPS
        tolls = [t for _, t in matrix.trips()]
        for weights in (tolls, [t / (k - h + 1) for (h, k), t in matrix.trips()],
                        [0.0 if j % 3 == 1 else t for j, t in enumerate(tolls)]):
            assert (ts.coverage(matrix, weights).tobytes()
                    == coverage_loop_settle(matrix, weights).tobytes())

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(open_segment_matrices())
    @example(TollMatrix(8, {(2, 5): 1e300, (1, 8): 1e-300}))
    @example(TollMatrix(60, {**ts.random_matrix(60, density=0.2, seed=3).entries, (1, 1): 1e16}))
    def test_settles_as_the_two_step_rule_did(self, matrix):
        """In either lane, one per-segment bound decides what the bound on
        the total weight cleared first and the array lane's settle decided
        after, with the same bits."""
        tolls = [t for _, t in matrix.trips()]
        for weights in (tolls, [t / (k - h + 1) for (h, k), t in matrix.trips()],
                        [0.0 if j % 3 == 1 else t for j, t in enumerate(tolls)]):
            for threshold in (0, _LOOP_ONLY):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(model, "_ARRAY_LANE_TRIPS", threshold)
                    for passed in (weights, np.array(weights)):
                        assert (ts.coverage(matrix, passed).tobytes()
                                == coverage_two_step(matrix, passed).tobytes())

    @pytest.mark.parametrize("zero", [False, True])
    def test_array_lane_counts_the_trips_of_nonzero_weight(self, zero):
        # segments 4 and 5 meet only the last trip: without its weight, the
        # prefix sums there are residue (5.6e-17), and the loads must be 0
        matrix = TollMatrix(5, {(1, 2): 0.1, (2, 3): 0.2, (4, 5): 0.7})
        weights = np.array([0.1, 0.2, 0.0 if zero else 0.7])
        lanes = []
        for threshold in (0, _LOOP_ONLY):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(model, "_ARRAY_LANE_TRIPS", threshold)
                lanes.append(ts.coverage(matrix, weights).tobytes())
        assert lanes[0] == lanes[1]
        assert np.frombuffer(lanes[0])[3:].tolist() == ([0.0, 0.0] if zero else [0.7, 0.7])

    def test_large_matrix_takes_the_array_lane_with_the_loop_bits(self, monkeypatch):
        matrix = ts.random_matrix(300, density=1.0, seed=8)
        assert len(matrix.entries) == 45150 >= model._ARRAY_LANE_TRIPS
        array = _lane_outputs(matrix)
        assert "columns" in vars(matrix)  # built by the array lane
        monkeypatch.setattr(model, "_ARRAY_LANE_TRIPS", _LOOP_ONLY)
        for shares, loop in zip(array, _lane_outputs(matrix)):
            assert np.array_equal(shares, loop)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(wide_matrices())
    def test_wide_magnitudes_share_every_covered_segment(self, matrix):
        """Whatever the spread of the tolls, a covered segment gets a
        positive share, and the shares stay within the loop references'
        bound (an exact reference for sps).  Below the normal range a
        product or quotient is off by up to half the smallest subnormal
        rather than by a relative eps; a trip's part of a segment's share
        passes at most five of them in a method and its reference together,
        so the bound adds four smallest subnormals per trip."""
        covered = np.ones(matrix.n, dtype=bool)
        covered[[i - 1 for i in ts.inessential_segments(matrix)]] = False
        underflow = 4 * len(matrix.entries) * np.finfo(float).smallest_subnormal
        bound = 8 * matrix.n * np.finfo(float).eps * matrix.total + underflow
        for method, reference in ((ts.ses, ses_loop), (ts.sps, sps_exact), (ts.scs, scs_loop)):
            shares = method(matrix)
            assert np.all(shares[covered] > 0.0), method.__name__
            assert np.all(shares[~covered] == 0.0), method.__name__
            assert np.max(np.abs(shares - reference(matrix))) <= bound, method.__name__

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(wide_array_matrices())
    def test_exact_loads_match_the_per_segment_sum(self, matrix):
        entry, exit, toll = matrix.columns
        segments = list(range(1, matrix.n + 1))
        for weights in (toll, toll / (exit - entry + 1)):
            assert (model._exact_loads(matrix.n, entry, exit, weights, segments)
                    == exact_loads_loop(matrix.n, entry, exit, weights, segments))
        shares = _lane_outputs(matrix)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model, "_exact_loads", exact_loads_loop)
            for new, former in zip(shares, _lane_outputs(matrix)):
                assert np.array_equal(new, former)

    def test_a_huge_toll_reads_each_trip_once(self, monkeypatch):
        # once the 1e16 trip has exited, every later prefix sum is mostly
        # its residue, so nearly every segment is summed exactly
        entries = dict(ts.random_matrix(1000, density=0.2, seed=3).entries)
        entries[1, 1] = 1e16
        matrix = TollMatrix(1000, entries)
        calls = []

        def counted(n, entry, exit, weights, segments):
            calls.append((len(weights), segments))
            return exact(n, entry, exit, weights, segments)

        exact = model._exact_loads
        monkeypatch.setattr(model, "_exact_loads", counted)
        shares = ts.ses(matrix)
        ts.scs(matrix)
        assert [trips for trips, _ in calls] == [99630, 99630]
        assert all(len(segments) > 900 for _, segments in calls)
        entry, exit, toll = matrix.columns
        sample = calls[0][1][::97]
        assert (shares[np.array(sample) - 1].tolist()
                == exact_loads_loop(1000, entry, exit, toll / (exit - entry + 1), sample))

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(toll_matrices())
    def test_methods_match_loop_references(self, matrix):
        bound = 8 * matrix.n * np.finfo(float).eps * matrix.total
        uncovered = [i - 1 for i in ts.inessential_segments(matrix)]
        involvement = [matrix.involvement(i) for i in range(1, matrix.n + 1)]
        pairs = [
            (ts.ses(matrix), ses_loop(matrix)),
            (ts.sps(matrix), sps_loop(matrix)),
            (ts.scs(matrix), scs_loop(matrix)),
            (ts.sps_decomposition(matrix).nonseparable,
             sps_decomposition_loop(matrix).nonseparable),
            (ts.counterexample_method("A1_involvement_sum")(matrix), involvement),
        ]
        for shares, reference in pairs:
            assert np.all(shares >= 0.0)
            assert np.all(shares[uncovered] == 0.0)
            assert np.max(np.abs(shares - reference), initial=0.0) <= bound


@settings(max_examples=200)
@given(toll_matrices())
def test_highway_reversal_reverses_shares(matrix):
    """Driving the highway the other way, trip [h,k] becomes [n+1-k, n+1-h].

    ses and scs commute with that map: the equal split ignores direction,
    and the compensated entry weight h/n becomes the exit weight of the
    reversed trip.  sps commutes as well: the diagonal stays diagonal, each
    segment's multi-segment revenue moves with it, and the pooled revenue,
    hence beta, is unchanged.  The game solutions commute because reversal
    only relabels the players.  The bound was fixed before the first run.
    """
    n = matrix.n
    reversed_ = TollMatrix(n, {(n + 1 - k, n + 1 - h): t for (h, k), t in matrix.entries.items()})
    solutions = [ts.ses, ts.sps, ts.scs, lambda m: ts.average_tree_value(ts.SegmentsGame(m))]
    if n <= 10:
        solutions.append(lambda m: ts.shapley_value(ts.SegmentsGame(m)))
    bound = 8 * n * np.finfo(float).eps * max(1.0, matrix.total)
    for solution in solutions:
        gap = np.max(np.abs(solution(reversed_) - solution(matrix)[::-1]))
        assert gap <= bound


@settings(max_examples=200)
@given(toll_matrices())
def test_game_oracles_equal_the_methods(matrix):
    """Shapley is ses, tau is sps and the average-tree value is scs, within
    the match rule of the CLI ``game`` command, ``1e-9 * max(1, total)``."""
    game = ts.SegmentsGame(matrix)
    bound = 1e-9 * max(1.0, matrix.total)
    for oracle, method in ((ts.shapley_value, ts.ses), (ts.tau_value, ts.sps),
                           (ts.average_tree_value, ts.scs)):
        assert np.max(np.abs(oracle(game) - method(matrix))) <= bound


@settings(max_examples=200)
@given(toll_matrices().filter(lambda matrix: matrix.n <= 10))
def test_interval_core_test_agrees_with_the_exhaustive_one(matrix):
    game = ts.SegmentsGame(matrix)
    for method in (ts.ses, ts.sps, ts.scs):
        shares = method(matrix)
        assert ts.core_check(game, shares).is_member == ts.core_check_exhaustive(game, shares)[0]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(wide_matrices())
@example(TollMatrix(12, {(1, 10): 2.225073858507e-311}))
@example(TollMatrix(12, {(1, 12): 17 * 5e-324}))
def test_efficiency_across_wide_magnitudes(matrix):
    """ses, sps and scs hand out the whole total, within the bound of
    ``test_wide_magnitudes_share_every_covered_segment`` summed over the
    roundings each method makes below the normal range, four smallest
    subnormals per rounding: ses rounds ``toll / (k - h + 1)`` once and
    hands it to each segment the trip covers, scs rounds ``toll / n`` once
    on each of them, and sps rounds ``beta * NS_i`` once per segment."""
    tiny = np.finfo(float).smallest_subnormal
    relative = 8 * matrix.n * np.finfo(float).eps * matrix.total
    covered = sum(k - h + 1 for (h, k), _ in matrix.trips())
    for method, roundings in ((ts.ses, covered), (ts.sps, matrix.n), (ts.scs, covered)):
        bound = relative + 4 * roundings * tiny
        assert abs(math.fsum(method(matrix)) - matrix.total) <= bound, method.__name__


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(toll_matrices())
def test_equal_and_compensated_shares_are_in_the_core(matrix):
    game = ts.SegmentsGame(matrix)
    for method in (ts.ses, ts.scs):
        assert ts.core_check(game, method(matrix)).is_member, method.__name__


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(toll_matrices(n), toll_matrices(n))),
       st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.7]), st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e-3]))
def test_additivity_of_ses_and_linearity_of_scs(pair, x, y):
    """ses(a + b) = ses(a) + ses(b) and scs(x a + y b) = x scs(a) + y scs(b),
    within the bound of ``test_methods_match_loop_references`` on the total
    of the left-hand side."""
    a, b = pair
    bound = 8 * a.n * np.finfo(float).eps
    assert np.max(np.abs(ts.ses(a + b) - (ts.ses(a) + ts.ses(b)))) <= bound * (a.total + b.total)
    combined = ts.scs(a.scaled(x) + b.scaled(y))
    assert np.max(np.abs(combined - (x * ts.scs(a) + y * ts.scs(b)))) <= (
        bound * (x * a.total + y * b.total))


class TestCounterexampleMethods:
    def test_involvement_sum(self, example3):
        f = ts.counterexample_method("A1_involvement_sum")
        assert np.allclose(f(example3), [2.0, 2.0, 1.0])

    def test_entrance(self, example3):
        f = ts.counterexample_method("A2_entrance")
        assert np.allclose(f(example3), [2.0, 0.0, 0.0])

    def test_zero_and_uniform(self, example3):
        assert np.array_equal(ts.counterexample_method("A2_zero")(example3), np.zeros(3))
        assert np.allclose(
            ts.counterexample_method("A2_uniform")(example3), [2 / 3, 2 / 3, 2 / 3]
        )

    def test_swap_diag_branches(self):
        f = ts.counterexample_method("A1_swap_diag")
        trigger = TollMatrix(2, {(1, 1): 1.0, (2, 2): 2.0})
        assert np.array_equal(f(trigger), [2.0, 1.0])
        other = TollMatrix(2, {(1, 1): 1.0, (2, 2): 3.0})
        assert np.array_equal(f(other), ts.sps(other))

    def test_tilde_branches(self):
        f = ts.counterexample_method("A1_tilde")
        inside = TollMatrix(3, {(1, 1): 0.5, (2, 3): 3.0})
        assert np.allclose(f(inside), [1.5, 1.0, 1.0])
        outside = TollMatrix(3, {(1, 2): 1.0, (2, 3): 3.0})
        assert np.array_equal(f(outside), ts.sps(outside))

    def test_hybrid_branches(self, example3):
        f = ts.counterexample_method("A2_hybrid")
        unit = TollMatrix.unit(1, 2, 3)
        assert np.array_equal(f(unit), ts.scs(unit))
        assert np.array_equal(f(example3), ts.ses(example3))

    def test_unknown_name(self):
        with pytest.raises(ts.UnknownMethodError):
            ts.counterexample_method("A3_missing")
        with pytest.raises(ts.UnknownMethodError):
            ts.allocation_method("frobnicate")


def test_share_percentages():
    shares = np.array([1.0, 3.0])
    assert np.array_equal(ts.share_percentages(shares), [25.0, 75.0])
    assert np.array_equal(ts.share_percentages(np.zeros(3)), np.zeros(3))
    # half-even at two decimals
    assert ts.share_percentages(np.array([1.0, 79.0]), total=800.0)[0] == 0.12


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(total=st.floats(1e-3, 1e12),
       parts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
def test_share_percentages_round_each_share_like_numpy_scalars(total, parts):
    shares = np.array(parts) * total
    expected = np.array([round(100.0 * s / total, 2) for s in shares])
    assert np.array_equal(ts.share_percentages(shares, total), expected)
