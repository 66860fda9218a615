"""Tests for the segments game, brute-force solutions, and core machinery."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tollshare as ts
from tollshare import SegmentsGame, TollMatrix, game as game_module
from tollshare.game import EXHAUSTIVE_CEILING, SWEEP_CEILING
from tollshare.methods import share_percentages

import helpers
from helpers import (
    all_coalitions,
    coalition_value_by_enumeration,
    compromise_bounds_loop,
    core_check_exhaustive_full,
    core_check_full_grid,
    interval_grid,
    mask_values_run_loop,
    perturbed_allocation,
    seeded_matrices,
    shapley_strided_loop,
    sps_core_criterion_full_grid,
)


class TestGameValues:
    def test_example_values(self, example3):
        game = SegmentsGame(example3)
        assert game.value([1, 2]) == 1.0
        assert game.value([2, 3]) == 0.0
        assert game.value([1, 3]) == 0.0
        assert game.grand_value == 2.0
        assert game.value([]) == 0.0

    def test_unstable_example_pair_value(self, example61):
        assert SegmentsGame(example61).value([1, 2]) == pytest.approx(7.5)

    def test_value_matches_trip_enumeration(self):
        for matrix in seeded_matrices(12, sizes=(2, 4, 6)):
            game = SegmentsGame(matrix)
            for members in all_coalitions(matrix.n):
                expected = coalition_value_by_enumeration(matrix, members)
                assert game.value(members) == pytest.approx(expected, abs=1e-9)

    def test_block_decomposition(self):
        for matrix in seeded_matrices(10, sizes=(5, 6, 7, 8)):
            game = SegmentsGame(matrix)
            for members in all_coalitions(matrix.n):
                runs, current = [], []
                for i in sorted(members):
                    if current and i != current[-1] + 1:
                        runs.append(current)
                        current = []
                    current.append(i)
                if current:
                    runs.append(current)
                split = sum(game.interval_value(r[0], r[-1]) for r in runs)
                assert game.value(members) == pytest.approx(split, abs=1e-9)

    def test_monotone(self):
        matrix = ts.random_matrix(6, density=0.6, seed=5)
        game = SegmentsGame(matrix)
        values = game.mask_values()
        for mask in range(1 << 6):
            for i in range(6):
                if not mask >> i & 1:
                    assert values[mask | 1 << i] >= values[mask] - 1e-12

    def test_out_of_range_member(self, example3):
        with pytest.raises(ts.SegmentIndexError):
            SegmentsGame(example3).value([4])

    def test_interval_value_bounds(self, example3):
        game = SegmentsGame(example3)
        assert game.interval_value(3, 2) == 0.0
        for start, end in ((0, 2), (2, 4)):
            with pytest.raises(ts.SegmentIndexError, match=r"out of range 1\.\.3"):
                game.interval_value(start, end)


class TestIntervalCeiling:
    """The ``O(n^2)`` interval sweep is bounded before a game is built."""

    def test_refused_above_the_ceiling(self, monkeypatch):
        monkeypatch.setattr(game_module, "SWEEP_CEILING", 5)
        assert SegmentsGame(ts.random_matrix(5, seed=1)).grand_value > 0.0
        with pytest.raises(ts.OracleSizeError, match="interval sweep limit is 5"):
            SegmentsGame(TollMatrix.zero(6))

    def test_default_ceiling(self):
        assert SWEEP_CEILING == (1 << 14) - 1
        assert SegmentsGame(TollMatrix(2000, {(1, 2000): 3.0})).grand_value == 3.0
        with pytest.raises(ts.OracleSizeError, match="interval sweep limit is 16383"):
            SegmentsGame(TollMatrix.zero(SWEEP_CEILING + 1))


def _oracle_bytes(game: SegmentsGame, bounds) -> list[bytes]:
    """Utopia, minimal rights, alpha and tau of ``game`` as bytes, with tau
    from ``bounds`` by the formula of :func:`tollshare.tau_value`."""
    grand = game.grand_value
    if bounds.alpha is not None:
        tau = bounds.minimal_rights + bounds.alpha * (bounds.utopia - bounds.minimal_rights)
    elif abs(float(bounds.minimal_rights.sum()) - grand) <= ts.DEFAULT_TOL * max(1.0, abs(grand)):
        tau = bounds.minimal_rights
    else:
        tau = None
    return [bounds.utopia.tobytes(), bounds.minimal_rights.tobytes(), repr(bounds.alpha).encode(),
            b"undefined" if tau is None else tau.tobytes()]


class TestOracleBits:
    """``mask_values``, ``shapley_value``, ``compromise_bounds`` and
    ``tau_value`` give the bits of the passes they replaced."""

    @staticmethod
    def _assert_same_bits(matrix):
        game = SegmentsGame(matrix)
        assert game.mask_values().tobytes() == mask_values_run_loop(matrix).tobytes()
        shapley = ts.shapley_value(game)
        assert shapley.tobytes() == shapley_strided_loop(game).tobytes()
        try:
            tau = ts.tau_value(game).tobytes()
        except ts.TauUndefinedError:
            tau = b"undefined"
        expected = _oracle_bytes(game, compromise_bounds_loop(game))
        assert _oracle_bytes(game, ts.compromise_bounds(game))[:3] == expected[:3]
        assert tau == expected[3]
        return shapley

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 12), density=st.sampled_from((0.1, 0.4, 0.7, 1.0)),
           max_toll=st.sampled_from((1e-300, 1e-3, 10.0, 1e300)),
           seed=st.integers(0, 2**32 - 1), null=st.integers(0, 12))
    def test_same_bits_as_strided_passes(self, n, density, max_toll, seed, null):
        matrix = ts.random_matrix(n, density=density, max_toll=max_toll, seed=seed)
        self._assert_same_bits(matrix)
        if 1 <= null <= n:
            # no trip runs through segment ``null``: a null player
            kept = {(h, k): t for (h, k), t in matrix.trips() if not h <= null <= k}
            shapley = self._assert_same_bits(TollMatrix(n, kept))
            assert shapley[null - 1].hex() == (0.0).hex()

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_and_two_players(self, n):
        for seed in range(8):
            for density in (0.3, 1.0):
                self._assert_same_bits(ts.random_matrix(n, density=density, seed=seed))
        self._assert_same_bits(TollMatrix.zero(n))
        self._assert_same_bits(TollMatrix(n, {(n, n): 2.5}))

    def test_ap68_and_oracle_sizes(self):
        # n = 18 is the benchmark's Shapley size: 16 blocks per player
        self._assert_same_bits(ts.random_matrix(16, density=0.7, seed=3))
        self._assert_same_bits(ts.random_matrix(18, density=0.7, seed=3))
        self._assert_same_bits(ts.ap68())


class TestOracleBlocks:
    """``shapley_value``, ``compromise_bounds`` and ``core_check_exhaustive``
    read the worths in blocks of ``ORACLE_BLOCK`` masks and give the bits of
    one pass over all of them.  With blocks of 2^7 the bounds and the core
    test span several blocks from n = 8 on, Shapley from n = 9, where
    players below and above bit 7 take different views."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 12), density=st.sampled_from((0.1, 0.4, 1.0)),
           max_toll=st.sampled_from((1e-300, 1.0, 1e300)), seed=st.integers(0, 2**32 - 1))
    @example(n=9, density=1.0, max_toll=1.0, seed=1)
    @example(n=12, density=0.4, max_toll=1.0, seed=2)
    def test_same_bits_as_one_pass(self, n, density, max_toll, seed):
        matrix = ts.random_matrix(n, density=density, max_toll=max_toll, seed=seed)
        rng = np.random.default_rng(seed)
        allocations = [ts.ses(matrix), perturbed_allocation(ts.sps(matrix), rng),
                       0.9 * ts.scs(matrix), np.zeros(n)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(game_module, "ORACLE_BLOCK", 1 << 7)
            game = SegmentsGame(matrix)
            assert ts.shapley_value(game).tobytes() == shapley_strided_loop(game).tobytes()
            assert (_oracle_bytes(game, ts.compromise_bounds(game))[:3]
                    == _oracle_bytes(game, compromise_bounds_loop(game))[:3])
            for x in allocations:
                assert ts.core_check_exhaustive(game, x) == core_check_exhaustive_full(game, x)

    def test_no_vector_besides_the_worths(self):
        # one 2^20 float vector is 8 MB; ses is in the core, so no violations
        matrix = ts.random_matrix(20, density=0.5, seed=7)
        game = SegmentsGame(matrix)
        game.mask_values()
        x = ts.ses(matrix)
        for oracle in (lambda: ts.shapley_value(game), lambda: ts.compromise_bounds(game),
                       lambda: ts.core_check_exhaustive(game, x)):
            assert _tracemalloc_peak(oracle) < 2 << 20


class TestSubsetDP:
    """The bit-doubling oracles against loop-based references."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_mask_values_match_trip_enumeration(self, n):
        matrices = [TollMatrix.zero(n), ts.random_matrix(n, density=0.6, seed=n),
                    ts.random_matrix(n, density=1.0, seed=100 + n)]
        for matrix in matrices:
            values = SegmentsGame(matrix).mask_values()
            assert values.shape == (1 << n,)
            expected = [coalition_value_by_enumeration(matrix, members)
                        for members in all_coalitions(n)]
            assert np.allclose(values, expected, rtol=0.0,
                               atol=1e-12 * max(1.0, matrix.total))

    @staticmethod
    def _violating_by_loop(matrix, x, tol=ts.DEFAULT_TOL):
        n = matrix.n
        slack = tol * max(1.0, matrix.total)
        violating = []
        for mask in range(1, (1 << n) - 1):
            allocated = 0.0
            for i in range(n):
                if mask >> i & 1:
                    allocated += x[i]
            members = [i + 1 for i in range(n) if mask >> i & 1]
            if allocated < coalition_value_by_enumeration(matrix, members) - slack:
                violating.append(tuple(members))
        return violating

    def test_exhaustive_violations_match_loop(self):
        rng = np.random.default_rng(17)
        violations_seen = 0
        for matrix in seeded_matrices(18, sizes=(2, 3, 5, 7, 9), seed_base=40):
            game = SegmentsGame(matrix)
            for x in (perturbed_allocation(ts.ses(matrix), rng),
                      perturbed_allocation(ts.sps(matrix), rng),
                      0.9 * ts.scs(matrix)):
                member, violating = ts.core_check_exhaustive(game, x)
                expected = self._violating_by_loop(matrix, x)
                assert violating == expected
                assert member == (not expected and ts.core_check(game, x).efficient)
                violations_seen += len(expected)
        assert violations_seen > 0

    def test_ceiling_applies_to_mask_values(self):
        with pytest.raises(ts.OracleSizeError):
            SegmentsGame(TollMatrix.zero(EXHAUSTIVE_CEILING + 1)).mask_values()

    @staticmethod
    def _oracles(game):
        return (lambda: ts.shapley_value(game), lambda: ts.tau_value(game),
                lambda: ts.compromise_bounds(game),
                lambda: ts.core_check_exhaustive(game, np.zeros(game.n)))

    def test_each_oracle_refuses_past_the_ceiling(self):
        game = SegmentsGame(TollMatrix.zero(EXHAUSTIVE_CEILING + 1))
        for oracle in self._oracles(game):
            with pytest.raises(ts.OracleSizeError, match="exhaustive limit is 22"):
                oracle()

    def test_each_oracle_refuses_before_any_enumeration(self):
        # one vector of 2^23 worths is 64 MB; the refusal allocates none
        game = SegmentsGame(ts.random_matrix(EXHAUSTIVE_CEILING + 1, density=0.5, seed=1))
        for oracle in self._oracles(game):
            def refused():
                with pytest.raises(ts.OracleSizeError, match="exhaustive limit is 22"):
                    oracle()

            assert _tracemalloc_peak(refused) < 1 << 20


class TestAP68Oracles:
    """The paper's own 22-segment instance, enumerated in full."""

    @pytest.fixture(scope="class")
    def ap68_game(self):
        return SegmentsGame(ts.ap68())

    def test_shapley_is_equal_sharing(self, ap68_game):
        matrix = ap68_game.matrix
        shapley = ts.shapley_value(ap68_game)
        assert np.max(np.abs(shapley - ts.ses(matrix))) <= 1e-9 * matrix.total

    def test_tau_is_proportional_sharing(self, ap68_game):
        matrix = ap68_game.matrix
        tau = ts.tau_value(ap68_game)
        assert np.max(np.abs(tau - ts.sps(matrix))) <= 1e-9 * matrix.total

    def test_exhaustive_core_agrees_with_interval_core(self, ap68_game):
        matrix = ap68_game.matrix
        for method in (ts.ses, ts.sps):
            x = method(matrix)
            member, violating = ts.core_check_exhaustive(ap68_game, x)
            report = ts.core_check(ap68_game, x)
            assert member == report.is_member
            assert bool(violating) == bool(report.violations)
        assert ts.core_check_exhaustive(ap68_game, ts.ses(matrix)) == (True, [])


class TestShapley:
    def test_example(self, example3):
        shapley = ts.shapley_value(SegmentsGame(example3))
        assert np.allclose(shapley, [5 / 6, 5 / 6, 1 / 3], atol=1e-12)

    def test_single_player(self):
        game = SegmentsGame(TollMatrix(1, {(1, 1): 4.0}))
        assert np.array_equal(ts.shapley_value(game), [4.0])

    def test_matches_equal_sharing(self):
        for matrix in seeded_matrices(40):
            game = SegmentsGame(matrix)
            assert np.allclose(ts.shapley_value(game), ts.ses(matrix), atol=1e-9)

    def test_size_limit(self):
        game = SegmentsGame(TollMatrix.zero(EXHAUSTIVE_CEILING + 1))
        with pytest.raises(ts.OracleSizeError):
            ts.shapley_value(game)
        with pytest.raises(ts.OracleSizeError):
            ts.tau_value(game)
        with pytest.raises(ts.OracleSizeError):
            ts.compromise_bounds(game)


class TestTau:
    def test_tolerance_is_keyword_only(self, example3):
        # so that a size limit passed by position cannot pass for a tolerance
        game = SegmentsGame(example3)
        for oracle in (ts.tau_value, ts.compromise_bounds):
            with pytest.raises(TypeError):
                oracle(game, 22)
        assert np.array_equal(ts.tau_value(game, tol=1e-6), ts.tau_value(game))

    def test_example(self, example3):
        tau = ts.tau_value(SegmentsGame(example3))
        assert np.allclose(tau, [4 / 5, 4 / 5, 2 / 5], atol=1e-12)

    def test_unstable_example(self, example61):
        assert np.allclose(
            ts.tau_value(SegmentsGame(example61)), ts.sps(example61), atol=1e-9
        )

    def test_diagonal_only(self):
        matrix = TollMatrix(3, {(1, 1): 1.0, (2, 2): 2.0, (3, 3): 3.0})
        assert np.allclose(ts.tau_value(SegmentsGame(matrix)), [1.0, 2.0, 3.0])

    def test_matches_proportional_sharing(self):
        for matrix in seeded_matrices(40):
            game = SegmentsGame(matrix)
            assert np.allclose(ts.tau_value(game), ts.sps(matrix), atol=1e-9)

    def test_utopia_equals_involvement(self):
        for matrix in seeded_matrices(15):
            bounds = ts.compromise_bounds(SegmentsGame(matrix))
            expected = [matrix.involvement(i) for i in range(1, matrix.n + 1)]
            assert np.allclose(bounds.utopia, expected, atol=1e-9)

    def test_undefined_for_coinciding_inefficient_bounds(self):
        class StubGame:
            # worth 1 for singletons, 1.5 for pairs, 2.5 for all three:
            # utopia and minimal rights coincide at 1 but sum past 2.5
            n = 3

            def mask_values(self):
                worth = {0: 0.0, 7: 2.5}
                values = np.zeros(8)
                for mask in range(1, 8):
                    values[mask] = worth.get(mask, 1.0 if mask.bit_count() == 1 else 1.5)
                return values

            @property
            def grand_value(self):
                return 2.5

        with pytest.raises(ts.TauUndefinedError):
            ts.tau_value(StubGame())


class TestAverageTree:
    def test_example(self, example3):
        at = ts.average_tree_value(SegmentsGame(example3))
        assert np.allclose(at, [2 / 3, 1.0, 1 / 3], atol=1e-12)

    def test_single_player(self):
        game = SegmentsGame(TollMatrix(1, {(1, 1): 2.5}))
        assert np.array_equal(ts.average_tree_value(game), [2.5])

    def test_matches_compensated_sharing(self):
        for matrix in seeded_matrices(40, sizes=(2, 3, 4, 5, 6, 7, 8, 9, 10)):
            game = SegmentsGame(matrix)
            assert np.allclose(ts.average_tree_value(game), ts.scs(matrix), atol=1e-9)


class TestCoreCheck:
    def test_equal_sharing_is_stable(self, example3):
        game = SegmentsGame(example3)
        report = ts.core_check(game, ts.ses(example3))
        assert report.is_member and report.efficient and not report.violations

    def test_unstable_example_report(self, example61):
        game = SegmentsGame(example61)
        report = ts.core_check(game, ts.sps(example61))
        assert not report.is_member
        assert report.efficient
        worst = report.violations[0]
        assert (worst.start, worst.end) == (1, 2)
        assert worst.value == pytest.approx(7.5)
        assert worst.allocated == pytest.approx(7.318, abs=1e-3)
        assert worst.deficit == pytest.approx(7.5 - 7.318, abs=1e-3)

    def test_zero_matrix(self):
        game = SegmentsGame(TollMatrix.zero(3))
        assert ts.core_check(game, np.zeros(3)).is_member

    def test_inefficient_vector(self, example3):
        game = SegmentsGame(example3)
        report = ts.core_check(game, np.array([1.0, 1.0, 1.0]))
        assert not report.is_member and not report.efficient

    def test_length_mismatch(self, example3):
        with pytest.raises(ts.LengthMismatchError):
            ts.core_check(SegmentsGame(example3), np.zeros(4))

    def test_negative_vector_rejected(self, example3):
        with pytest.raises(ValueError):
            ts.core_check(SegmentsGame(example3), np.array([-0.1, 1.1, 1.0]))

    def test_invalid_allocation_is_typed(self, example3):
        game = SegmentsGame(example3)
        for bad in ([-0.1, 1.1, 1.0], [np.nan, 1.0, 1.0]):
            with pytest.raises(ts.InvalidAllocationError):
                ts.core_check(game, np.array(bad))
            with pytest.raises(ts.TollShareError):
                ts.core_check_exhaustive(game, np.array(bad))

    def test_json_shape(self, example61):
        report = ts.core_check(SegmentsGame(example61), ts.sps(example61))
        payload = report.to_json_dict()
        assert payload["is_member"] is False
        assert payload["violations"][0]["interval"] == [1, 2]

    def test_interval_check_agrees_with_exhaustive(self):
        rng = np.random.default_rng(99)
        checked_violating = 0
        for matrix in seeded_matrices(24, sizes=(2, 3, 4, 5, 6)):
            game = SegmentsGame(matrix)
            candidates = [ts.ses(matrix), ts.scs(matrix), ts.sps(matrix)]
            candidates.append(perturbed_allocation(ts.ses(matrix), rng))
            for x in candidates:
                full, _ = ts.core_check_exhaustive(game, x)
                assert ts.core_check(game, x).is_member == full
                checked_violating += not full
        assert checked_violating > 0


class TestSpsCoreCriterion:
    def test_unstable_example(self, example61):
        crit = ts.sps_core_criterion(example61)
        assert not crit.satisfied
        assert crit.worst_interval == (1, 2)
        assert crit.beta < crit.rhs_max

    def test_small_problems_always_satisfy(self):
        for matrix in seeded_matrices(60, sizes=(3, 4)):
            assert ts.sps_core_criterion(matrix).satisfied

    def test_degenerate_diagonal_matrix(self):
        crit = ts.sps_core_criterion(TollMatrix(3, {(1, 1): 1.0}))
        assert crit.satisfied and crit.beta is None

    def test_agrees_with_direct_core_check(self):
        for matrix in seeded_matrices(60, sizes=(2, 3, 4, 5, 6, 7, 8)):
            game = SegmentsGame(matrix)
            direct = ts.core_check(game, ts.sps(matrix)).is_member
            assert ts.sps_core_criterion(matrix).satisfied == direct

    def test_accepts_a_built_game(self, example61, monkeypatch):
        game = SegmentsGame(example61)
        built = []
        monkeypatch.setattr(SegmentsGame, "__init__",
                            lambda self, matrix: built.append(matrix))
        criterion = ts.sps_core_criterion(game)
        assert built == []
        monkeypatch.undo()
        assert criterion == ts.sps_core_criterion(example61)

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_a_defined_beta_always_counts_an_interval(self, scale):
        # the first segment with nonseparable load spans exactly that load
        for matrix in seeded_matrices(84, sizes=(2, 3, 4, 5, 6, 7, 8), densities=(0.1, 0.3, 1.0)):
            crit = ts.sps_core_criterion(matrix.scaled(scale))
            if crit.beta is not None:
                assert crit.worst_interval is not None and crit.rhs_max > -np.inf


def _tracemalloc_peak(call) -> int:
    """Bytes at the tracemalloc peak while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBandedCoreTests:
    """``core_check`` and ``sps_core_criterion`` read the interval worths from
    a sweep in bands of start rows, one sweep for every allocation and the
    criterion in ``interval_tests``, and give the reports of the full-grid
    versions."""

    @staticmethod
    def _assert_same_reports(matrix, allocations):
        game = SegmentsGame(matrix)
        fulls = [core_check_full_grid(game, x) for x in allocations]
        for x, full in zip(allocations, fulls):
            banded = ts.core_check(game, x)
            assert banded == full and repr(banded) == repr(full)
        expected = sps_core_criterion_full_grid(matrix)
        for source in (matrix, game):
            criterion = ts.sps_core_criterion(source)
            assert criterion == expected and repr(criterion) == repr(expected)
        reports, criterion = game_module.interval_tests(
            game, allocations, ts.DEFAULT_TOL, game_module.sps_decomposition(matrix))
        assert repr(reports) == repr(fulls) and repr(criterion) == repr(expected)
        return expected

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 40), density=st.sampled_from((0.1, 0.4, 1.0)),
           tolls=st.sampled_from(("uniform", "one_or_two", "diagonal")),
           seed=st.integers(0, 2**32 - 1), cut=st.integers(0, 40))
    def test_same_reports_as_the_full_grid(self, n, density, tolls, seed, cut):
        matrix = ts.random_matrix(n, density=density, seed=seed)
        if tolls == "one_or_two":
            # few distinct ratios, so the worst interval ties across bands
            matrix = TollMatrix(n, {trip: float(1 + int(t) % 2) for trip, t in matrix.trips()})
        elif tolls == "diagonal":
            matrix = TollMatrix(n, {(h, k): t for (h, k), t in matrix.trips() if h == k})
        if 1 <= cut < n:
            # no multi-segment trip past ``cut``: start rows there count no interval
            matrix = TollMatrix(n, {(h, k): t for (h, k), t in matrix.trips()
                                    if h == k or k <= cut})
        rng = np.random.default_rng(seed)
        allocations = [ts.ses(matrix), ts.sps(matrix), ts.scs(matrix),
                       perturbed_allocation(ts.sps(matrix), rng),
                       perturbed_allocation(ts.ses(matrix), rng)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(game_module, "BAND_CELLS", 8)
            self._assert_same_reports(matrix, allocations)

    def test_ties_keep_the_first_interval(self, monkeypatch):
        # one toll on every trip [i, i+1]: [1, n-1] and [2, n] tie for the worst ratio
        monkeypatch.setattr(game_module, "BAND_CELLS", 8)
        matrix = TollMatrix(9, {(i, i + 1): 1.0 for i in range(1, 9)})
        criterion = self._assert_same_reports(matrix, [ts.sps(matrix)])
        assert criterion.worst_interval == (1, 8)

    def test_no_counted_interval_gives_the_first_cell(self, monkeypatch):
        def no_nonseparable_load(matrix):
            d = ts.sps_decomposition(matrix)
            return ts.SpsDecomposition(d.separable, np.zeros(matrix.n), d.nonseparable_total, 1.0)

        monkeypatch.setattr(game_module, "BAND_CELLS", 8)
        for module in (game_module, helpers):
            monkeypatch.setattr(module, "sps_decomposition", no_nonseparable_load)
        criterion = self._assert_same_reports(ts.random_matrix(12, seed=4), [])
        assert criterion == game_module.SpsCoreCriterion(True, (1, 1), -np.inf, 1.0)

    def test_the_real_budget(self):
        rng = np.random.default_rng(300)
        for seed, density in ((1, 0.05), (2, 0.3)):
            matrix = ts.random_matrix(300, density=density, seed=seed)
            x = perturbed_allocation(ts.sps(matrix), rng)
            self._assert_same_reports(matrix, [ts.ses(matrix), ts.sps(matrix), x])

    @pytest.mark.parametrize("budget", [1, 8, 100, 1 << 15])
    def test_bands_tile_the_proper_intervals(self, monkeypatch, budget):
        monkeypatch.setattr(game_module, "BAND_CELLS", budget)
        for n in (1, 2, 7, 300):
            game = SegmentsGame(ts.random_matrix(n, seed=n))
            grid = interval_grid(game.matrix)
            next_row = n
            for s0, s1, worth in game_module._sweep(game):
                assert 0 <= s0 < s1 == next_row and worth.shape == (s1 - s0, n - s0)
                assert worth.size <= budget or s1 - s0 == 1
                assert np.array_equal(worth, grid[s0 + 1 : s1 + 1, s0 + 1 : n + 1])
                next_row = s0
            assert next_row == 0
            assert np.array_equal(game._row(1), grid[1, 1 : n + 1])
            assert game.grand_value == grid[1, n]

    def test_one_scan_rows_match_the_grid(self):
        sizes = (1, 2, 3, 8, 21, 40)
        for matrix in seeded_matrices(12, sizes=sizes, densities=(0.2, 1.0), seed_base=70):
            game, grid, n = SegmentsGame(matrix), interval_grid(matrix), matrix.n
            for s in range(1, n + 1):
                for e in range(s, n + 1):
                    assert game.interval_value(s, e) == grid[s, e], (n, s, e)
        # 45,150 trips: more than one slice of the 32,768 the rows were once read in
        matrix = ts.random_matrix(300, density=1.0, seed=5)
        assert len(matrix.columns.toll) == 45_150
        assert SegmentsGame(matrix).grand_value == interval_grid(matrix)[1, 300]

    def test_memory_is_bounded_by_the_band(self):
        # one n x n float table is 18 MB here; the full-grid tests held two
        matrix = ts.random_matrix(1500, density=0.2, seed=3)
        game = SegmentsGame(matrix)
        for method in (ts.ses, ts.sps, ts.scs):
            x = method(matrix)
            assert _tracemalloc_peak(lambda: ts.core_check(game, x)) < 4 << 20
        # the criterion first splits the 225k trips' tolls, O(trips) memory
        # of its own; the bands add less than 4 MB on top of that
        decomposition = _tracemalloc_peak(lambda: ts.sps_decomposition(matrix))
        criterion = _tracemalloc_peak(lambda: ts.sps_core_criterion(game))
        assert criterion < decomposition + (4 << 20)
        # a new game's one sweep for all three allocations and the criterion
        shares = [method(matrix) for method in (ts.ses, ts.sps, ts.scs)]
        d = ts.sps_decomposition(matrix)
        assert _tracemalloc_peak(lambda: game_module.interval_tests(
            SegmentsGame(matrix), shares, ts.DEFAULT_TOL, d)) < 4 << 20

    def test_criterion_refuses_a_huge_matrix_before_any_grid_work(self):
        matrix = TollMatrix(SWEEP_CEILING + 1000, {(1, 2): 1.0, (3, 3): 1.0})

        def refused():
            with pytest.raises(ts.OracleSizeError, match="interval sweep limit"):
                ts.sps_core_criterion(matrix)

        assert _tracemalloc_peak(refused) < 1 << 20


class TestCoreSchemeCheck:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_equal_and_compensated_certify(self, n):
        assert ts.core_scheme_check(ts.builtin_scheme("ses"), n)
        assert ts.core_scheme_check(ts.builtin_scheme("scs"), n)

    def test_proportional_does_not(self):
        assert not ts.core_scheme_check(ts.builtin_scheme("sps"), 5)

    def test_scheme_with_bad_sums(self):
        lopsided = ts.WeightScheme("lopsided", True, lambda m: lambda h, k, i: 1.0)
        assert ts.core_scheme_check(lopsided, 1)
        assert not ts.core_scheme_check(lopsided, 3)

    def test_certified_schemes_yield_core_members(self):
        for matrix in seeded_matrices(20):
            game = SegmentsGame(matrix)
            for name in ("ses", "scs"):
                shares = ts.family_allocate(matrix, ts.builtin_scheme(name))
                assert ts.core_check(game, shares).is_member


#: Every method and oracle of the package is homogeneous of degree 1 in the
#: tolls, and a scale by 2^k is exact for normal floats.
_HOMOGENEOUS = {
    "ses": ts.ses, "sps": ts.sps, "scs": ts.scs,
    "shapley": lambda m: ts.shapley_value(SegmentsGame(m)),
    "tau": lambda m: ts.tau_value(SegmentsGame(m)),
    "at": lambda m: ts.average_tree_value(SegmentsGame(m)),
}


def _last_accepted_k(matrix: TollMatrix) -> int:
    """The largest k for which ``total * 2^k * max(n, 100)`` is finite."""
    return 1024 - math.frexp(matrix.total * max(matrix.n, 100))[1]


class TestFloatRangeRule:
    """Up to the range rule, each solution of a matrix scaled by 2^k is 2^k
    times its solution, bit for bit, and its percentages are the same; one
    step past it, the matrix is refused."""

    @staticmethod
    def _assert_scales(matrix: TollMatrix, ks) -> None:
        base = {name: solve(matrix) for name, solve in _HOMOGENEOUS.items()}
        for k in ks:
            factor = 2.0 ** k
            if matrix.total * factor * max(matrix.n, 100) == math.inf:
                with pytest.raises(ts.TollValidationError, match="largest float / "):
                    matrix.scaled(factor)
                continue
            scaled = matrix.scaled(factor)
            assert scaled.total == matrix.total * factor
            for name, solve in _HOMOGENEOUS.items():
                shares = solve(scaled)
                assert shares.tobytes() == (base[name] * factor).tobytes(), (name, k)
                assert np.array_equal(share_percentages(shares, scaled.total),
                                      share_percentages(base[name], matrix.total)), (name, k)

    @settings(max_examples=60)
    @given(n=st.integers(1, 12), density=st.sampled_from((0.5, 1.0)),
           seed=st.integers(0, 2**16), interior=st.floats(0.0, 1.0))
    def test_seeded_matrices_scale_up_to_the_edge(self, n, density, seed, interior):
        matrix = ts.random_matrix(n, density=density, seed=seed)
        if not matrix.total:
            return
        last = _last_accepted_k(matrix)
        self._assert_scales(matrix, (0, 1, int(interior * last), last, last + 1))

    def test_ap68_scales_up_to_the_edge(self):
        matrix = ts.ap68()
        last = _last_accepted_k(matrix)
        self._assert_scales(matrix, (last // 2, last, last + 1))
