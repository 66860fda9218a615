"""Tests for the axiom checkers and the independence harness."""

import dataclasses
import hashlib
import os
import pickle
import threading
import time
from itertools import combinations_with_replacement

import numpy as np
import pytest

import tollshare as ts
import tollshare.axioms as ax
from tollshare import TollMatrix
from tollshare.axioms import (
    CATALOGUE,
    PreconditionNotMet,
    _draw_subhighways,
    _pass_instances,
    _pick,
    _subhighways,
    evaluate_axiom,
    run_instance,
)
from tollshare.errors import InvalidTrialsError
from tollshare.methods import COUNTEREXAMPLES, TRIGGERS

from helpers import seeded_matrices, subhighways_scan


class TestEfficiencyChecker:
    def test_holds_for_equal_sharing(self, example3):
        assert ts.check_efficiency(ts.ses, example3).holds

    def test_involvement_sum_fails_with_gap(self, example3):
        verdict = ts.check_efficiency(
            ts.counterexample_method("A1_involvement_sum"), example3
        )
        assert not verdict.holds
        assert verdict.witness.gap == pytest.approx(3.0)

    def test_zero_matrix_trivially_efficient(self):
        assert ts.check_efficiency(ts.scs, TollMatrix.zero(3)).holds


class TestInessentialChecker:
    def test_compensated_on_isolated_segment(self):
        matrix = ts.block_structured_matrix([{1, 2}, {3}, {4, 5}], seed=4)
        pruned = TollMatrix(5, {t: v for t, v in matrix.trips() if t != (3, 3)})
        assert 3 in ts.inessential_segments(pruned)
        assert ts.check_inessential_segment(ts.scs, pruned).holds

    def test_uniform_method_fails(self):
        matrix = TollMatrix(4, {(1, 2): 1.0, (1, 3): 1.0})
        verdict = ts.check_inessential_segment(
            ts.counterexample_method("A2_uniform"), matrix
        )
        assert not verdict.holds
        assert verdict.witness.location["segment"] == 4
        assert verdict.witness.lhs == pytest.approx(0.5)

    def test_zero_matrix_vacuous(self):
        assert ts.check_inessential_segment(ts.ses, TollMatrix.zero(2)).holds


class TestAdditivityAndLinearity:
    def test_equal_sharing_additive_on_random_pairs(self):
        pairs = list(seeded_matrices(10, sizes=(4,)))
        for a, b in zip(pairs[::2], pairs[1::2]):
            assert ts.check_additivity(ts.ses, a, b).holds

    def test_proportional_fails_additivity(self):
        verdict = ts.check_additivity(
            ts.sps, TollMatrix.unit(1, 2, 3), TollMatrix.unit(1, 3, 3)
        )
        assert not verdict.holds

    def test_zero_combination(self, example3):
        other = ts.random_matrix(3, seed=1)
        verdict = ts.check_linearity(ts.scs, example3, other, 0.0, 0.0)
        assert verdict.holds  # forces f(0) = 0

    def test_hybrid_fails_linearity_on_unit_pair(self):
        verdict = ts.check_linearity(
            ts.counterexample_method("A2_hybrid"),
            TollMatrix.unit(1, 2, 3),
            TollMatrix.unit(1, 3, 3),
            1.0,
            1.0,
        )
        assert not verdict.holds
        assert verdict.witness.gap == pytest.approx(1 / 6)


class TestSymmetryCheckers:
    @pytest.mark.parametrize("name", ["ses", "sps", "scs"])
    def test_weak_symmetry_on_full_trip(self, name):
        matrix = TollMatrix.unit(1, 4, 4).scaled(3.0)
        assert ts.check_weak_segment_symmetry(ts.allocation_method(name), matrix).holds

    def test_weak_symmetry_precondition(self, example3):
        with pytest.raises(PreconditionNotMet):
            ts.check_weak_segment_symmetry(ts.ses, example3)

    def test_entrance_method_fails_weak_symmetry(self):
        verdict = ts.check_weak_segment_symmetry(
            ts.counterexample_method("A2_entrance"), TollMatrix.unit(1, 3, 3)
        )
        assert not verdict.holds

    def test_weighted_ratio_for_proportional(self, example3):
        shares = ts.sps(example3)
        assert shares[0] / shares[2] == pytest.approx(2.0)
        assert ts.check_weighted_segment_symmetry(ts.sps, example3).holds

    def test_weighted_fails_for_equal_sharing(self, example3):
        verdict = ts.check_weighted_segment_symmetry(ts.ses, example3)
        assert not verdict.holds

    def test_weighted_precondition(self):
        with pytest.raises(PreconditionNotMet):
            ts.check_weighted_segment_symmetry(ts.sps, TollMatrix(2, {(1, 1): 1.0}))

    def test_segment_symmetry_for_equal_sharing(self, example3):
        assert ts.check_segment_symmetry(ts.ses, example3).holds

    def test_segment_symmetry_fails_for_compensated(self, example3):
        # segments 1 and 2 sit on every positive trip but get 2/3 vs 1
        verdict = ts.check_segment_symmetry(ts.scs, example3)
        assert not verdict.holds
        assert verdict.witness.location["pair"] == (1, 2)


class TestCovarianceChecker:
    def test_proportional_holds(self):
        matrix = ts.random_matrix(5, density=0.7, seed=8)
        a = np.array([1.0, 0.0, 0.0, 2.0, 0.0])
        assert ts.check_covariance(ts.sps, matrix, 2.0, a).holds

    def test_identity_transform_trivial(self, example3):
        for name in ("ses", "sps", "scs"):
            f = ts.allocation_method(name)
            assert ts.check_covariance(f, example3, 1.0, np.zeros(3)).holds

    def test_swap_diag_fails(self):
        verdict = ts.check_covariance(
            ts.counterexample_method("A1_swap_diag"),
            TollMatrix.zero(2),
            1.0,
            np.array([1.0, 2.0]),
        )
        assert not verdict.holds
        assert verdict.witness.gap == pytest.approx(1.0)

    def test_transform_checks_the_shift_length(self):
        with pytest.raises(ts.SegmentIndexError, match="shift vector must have length 3"):
            ts.covariance_transform(TollMatrix.zero(3), 1.0, [1.0, 2.0])


class TestFairnessCheckers:
    def test_toll_fairness_equal_sharing(self, example3):
        verdict = ts.check_toll_fairness(ts.ses, example3, 1)
        assert verdict.holds
        for cut in (1, 2):
            assert ts.check_toll_fairness(ts.ses, example3, cut).holds

    def test_component_fairness_compensated(self, example3):
        for cut in (1, 2):
            assert ts.check_toll_component_fairness(ts.scs, example3, cut).holds

    def test_component_fairness_fails_for_equal_sharing(self, example3):
        # blocking boundary 1 wipes both trips: component means 5/6 vs 7/12
        verdict = ts.check_toll_component_fairness(ts.ses, example3, 1)
        assert not verdict.holds
        assert verdict.witness.lhs == pytest.approx(5 / 6)
        assert verdict.witness.rhs == pytest.approx(7 / 12)

    def test_tolerance_scales_with_shares(self):
        # x1e5 puts shares near 2.3e9, where one rounding step is 4.8e-7;
        # an absolute 1e-8 failed ses on 3 cuts and scs on 16
        scaled = ts.ap68().scaled(1e5)
        for cut in range(1, scaled.n):
            assert ts.check_toll_fairness(ts.ses, scaled, cut).holds, cut
            assert ts.check_toll_component_fairness(ts.scs, scaled, cut).holds, cut

    def test_true_unfairness_still_fails_at_scale(self, example3):
        big = example3.scaled(1e9)
        verdict = ts.check_toll_component_fairness(ts.ses, big, 1)
        assert not verdict.holds
        assert verdict.witness.gap == pytest.approx(0.25e9)
        scaled = ts.ap68().scaled(1e5)
        assert sum(not ts.check_toll_fairness(ts.sps, scaled, cut).holds
                   for cut in range(1, scaled.n)) == 20

    def test_blocked_matrix(self, example3):
        blocked = ts.blocked_matrix(example3, 2)
        assert blocked.toll(1, 2) == 1.0 and blocked.toll(1, 3) == 0.0
        with pytest.raises(ts.SegmentIndexError):
            ts.blocked_matrix(example3, 3)


class TestSubhighwayChecker:
    def test_compensated_on_blocks(self):
        matrix = ts.block_structured_matrix([{1, 2}, {3, 4}], seed=5)
        assert ts.check_subhighway_efficiency(ts.scs, matrix).holds

    def test_whole_highway_reduces_to_efficiency(self, example3):
        assert ts.check_subhighway_efficiency(ts.ses, example3).holds

    def test_zero_method_fails(self, example3):
        verdict = ts.check_subhighway_efficiency(
            ts.counterexample_method("A2_zero"), example3
        )
        assert not verdict.holds

    def test_proportional_fails_across_unequal_blocks(self):
        matrix = TollMatrix(5, {(1, 2): 1.0, (3, 5): 1.0})
        assert not ts.check_subhighway_efficiency(ts.sps, matrix).holds


class TestSubhighwayCuts:
    """The sub-highways paired from uncrossed cuts against the interval scan."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_trip_set(self, n):
        trips = list(combinations_with_replacement(range(1, n + 1), 2))
        for mask in range(1 << len(trips)):
            matrix = TollMatrix(n, {trip: 1.0 for i, trip in enumerate(trips) if mask >> i & 1})
            assert list(_subhighways(matrix)) == list(subhighways_scan(matrix))

    def test_seeded_matrices(self):
        rng = np.random.default_rng(2506)
        matrices = list(seeded_matrices(32, sizes=(5, 6, 7, 8), densities=(0.05, 0.2)))
        matrices += [_draw_subhighways(rng, n)["matrix"] for n in range(1, 9) for _ in range(6)]
        assert any(len(list(_subhighways(m))) > 1 for m in matrices)
        for matrix in matrices:
            assert list(_subhighways(matrix)) == list(subhighways_scan(matrix))


class TestIndifferenceChecker:
    def test_compensated_holds_exhaustively(self):
        for n in (2, 3, 4, 5):
            assert ts.check_indifference_to_extensions(ts.scs, n).holds

    def test_equal_sharing_fails(self):
        verdict = ts.check_indifference_to_extensions(ts.ses, 3)
        assert not verdict.holds
        loc = verdict.witness.location
        h, k = loc["trip"]
        if loc["extended"] == (h - 1, k):
            assert loc["segment"] != h
        else:
            assert loc["extended"] == (h, k + 1) and loc["segment"] != k
        assert verdict.witness.gap > 0.1

    def test_single_segment_vacuous(self):
        assert ts.check_indifference_to_extensions(ts.ses, 1).holds

    def test_left_extension_is_compared_first(self):
        # scs holds; moving toll inside trip [2,3] breaks both of its
        # extensions, and [2,3] is the first trip whose comparisons see it
        def perturbed(matrix):
            shares = ts.scs(matrix)
            if matrix == TollMatrix.unit(2, 3, 4):
                shares = shares + np.array([0.0, 0.25, -0.25, 0.0])
            return shares

        verdict = ts.check_indifference_to_extensions(perturbed, 4)
        assert not verdict.holds
        assert verdict.witness.location == {"trip": (2, 3), "extended": (1, 3), "segment": 3}
        assert verdict.witness.gap == 0.25


class TestSuiteMachinery:
    def test_witness_replays_to_same_gap(self, example3):
        verdict = ts.check_weighted_segment_symmetry(ts.ses, example3)
        replayed = ts.replay(ts.ses, verdict)
        assert not replayed.holds
        assert replayed.witness.gap == verdict.witness.gap
        assert replayed.witness.location == verdict.witness.location

    def test_replay_requires_witness(self, example3):
        verdict = ts.check_efficiency(ts.ses, example3)
        with pytest.raises(ValueError):
            ts.replay(ts.ses, verdict)

    def test_typed_errors_keep_value_error_base(self, example3):
        with pytest.raises(ts.NoWitnessError, match="efficiency"):
            ts.replay(ts.ses, ts.check_efficiency(ts.ses, example3))
        for error in (ts.NoWitnessError, PreconditionNotMet):
            assert issubclass(error, ts.TollShareError) and issubclass(error, ValueError)
        assert ts.PreconditionNotMet is PreconditionNotMet

    @pytest.mark.parametrize("seq", [
        (0.3, 0.7, 1.0), (0.0, 0.5, 1.0, 2.0, 1.7), (0.5, 1.0, 2.0, 2.9),
        list(range(1, 9)), list(range(2, 9)), list(range(1, 7)), list(range(2, 7)), [4],
    ])
    def test_pick_is_the_choice_draw(self, seq):
        rng, ref = np.random.default_rng(17), np.random.default_rng(17)
        for _ in range(1000):
            assert _pick(rng, seq) == ref.choice(seq)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_evaluate_axiom_deterministic(self):
        kwargs = dict(trials=30, seed=12, sizes=(2, 3, 4))
        first = evaluate_axiom(ts.sps, "additivity", **kwargs)
        second = evaluate_axiom(ts.sps, "additivity", **kwargs)
        assert not first.holds and not second.holds
        assert first.witness.gap == second.witness.gap

    def test_evaluate_axiom_finds_failures_by_search(self):
        assert not evaluate_axiom(ts.sps, "linearity", trials=80, seed=0).holds
        assert not evaluate_axiom(ts.scs, "segment_symmetry", trials=80, seed=0).holds
        assert not evaluate_axiom(ts.ses, "indifference_to_extensions", seed=0).holds

    @pytest.mark.parametrize("axiom", ["efficiency", "indifference_to_extensions"])
    def test_evaluate_axiom_rejects_negative_trials(self, axiom):
        # an empty range of trials would read as a pass; an exhausted axiom
        # ignores the count, but a negative one is still an error
        with pytest.raises(InvalidTrialsError, match="trials must be at least 0, got -5"):
            evaluate_axiom(ts.ses, axiom, trials=-5)

    def test_run_instance_dispatch(self, example3):
        verdict = run_instance(ts.ses, "efficiency", {"matrix": example3}, 1e-9)
        assert verdict.axiom == "efficiency" and verdict.holds

    def test_axiom_matrix_anchored_rows(self):
        grid = ts.axiom_matrix(("ses", "sps", "scs"), trials=40, seed=2)
        for method, anchored in ts.ANCHORED_AXIOMS.items():
            for axiom in anchored:
                assert grid[method][axiom].holds, (method, axiom)


class TestPinnedWitnesses:
    """The first failure each checker reports, pinned bit for bit.

    The ``axioms`` report keeps only pass/FAIL, so this digest is what notices
    a change in which comparison fails first or in its figures.
    """

    METHODS = ("ses", "sps", "scs", *COUNTEREXAMPLES)
    DIGEST = "39945615bb3e4e772f6575f5ca0f86822d3b889bdf164ca1080ee2a890d82b5b"

    def test_first_failures_are_unchanged(self):
        digest, failed = hashlib.sha256(), []
        for seed in (0, 3):
            grid = ts.axiom_matrix(self.METHODS, trials=40, seed=seed)
            for method, row in grid.items():
                for axiom, verdict in row.items():
                    if verdict.holds:
                        continue
                    w = verdict.witness
                    cell = (method, axiom, sorted(w.location.items()),
                            w.lhs.hex(), w.rhs.hex(), w.gap.hex(), w.tol)
                    digest.update(repr(cell).encode())
                    failed.append((method, verdict))
        assert len(failed) == 83
        assert digest.hexdigest() == self.DIGEST
        for method, verdict in failed:
            replayed = ts.replay(ts.allocation_method(method), verdict)
            assert not replayed.holds
            assert replayed.witness.gap == verdict.witness.gap, (method, verdict.axiom)


class TestCatalogue:
    @pytest.mark.parametrize("axiom", ts.AXIOMS)
    def test_draws_meet_the_hypothesis(self, axiom):
        # a drawn instance that broke the checker's precondition would raise
        spec = CATALOGUE[axiom]
        rng = np.random.default_rng(5)
        for n in range(spec.min_size, 7):
            assert run_instance(ts.ses, axiom, spec.draw(rng, n), spec.tol).axiom == axiom

    def test_pass_instances_sit_on_the_triggers(self):
        rng = np.random.default_rng(0)
        built = _pass_instances("A1_tilde", "toll_fairness", rng)
        assert [inst["matrix"] for inst in built] == list(TRIGGERS["A1_tilde"])
        assert all(inst["cut"] == 1 for inst in built)
        assert _pass_instances("ses", "efficiency", rng) == []
        assert _pass_instances("A1_tilde", "indifference_to_extensions", rng) == []


class TestIndependenceHarness:
    def test_full_harness_pattern(self):
        rows = ts.independence_harness(trials=40, seed=3)
        observed = {
            (row.characterization, row.method): row.failed_axiom for row in rows
        }
        assert observed[("proportional_axioms", "A1_involvement_sum")] == "efficiency"
        assert observed[("proportional_axioms", "A1_swap_diag")] == "covariance"
        assert observed[("proportional_axioms", "ses")] == "weighted_segment_symmetry"
        assert observed[("proportional_axioms", "A1_tilde")] == "inessential_segment"
        assert observed[("compensated_axioms", "ses")] == "indifference_to_extensions"
        assert observed[("compensated_axioms", "A2_uniform")] == "inessential_segment"
        assert observed[("compensated_axioms", "A2_zero")] == "efficiency"
        assert observed[("compensated_axioms", "A2_entrance")] == "weak_segment_symmetry"
        assert observed[("compensated_axioms", "A2_hybrid")] == "linearity"
        assert observed[("compensated_fairness_axioms", "A2_zero")] == "subhighway_efficiency"
        assert observed[("compensated_fairness_axioms", "ses")] == "toll_component_fairness"
        for row in rows:
            for axiom, holds in row.verdicts.items():
                assert holds == (axiom != row.failed_axiom), (row.method, axiom)

    def test_anchored_sets_are_the_characterizations(self):
        # the proportional set, and the compensated sets one after the other
        assert ts.ANCHORED_AXIOMS == {
            "ses": ("efficiency", "additivity", "inessential_segment", "segment_symmetry",
                    "toll_fairness", "subhighway_efficiency"),
            "sps": ("efficiency", "inessential_segment", "weighted_segment_symmetry",
                    "covariance"),
            "scs": ("efficiency", "linearity", "inessential_segment", "weak_segment_symmetry",
                    "indifference_to_extensions", "toll_component_fairness",
                    "subhighway_efficiency"),
        }
        sets = {char.name: char.axioms for char in ax.CHARACTERIZATIONS}
        assert ts.ANCHORED_AXIOMS["sps"] == sets["proportional_axioms"]
        assert ts.ANCHORED_AXIOMS["scs"] == (sets["compensated_axioms"]
                                            + sets["compensated_fairness_axioms"])

    def test_each_designated_instance_breaks_its_axiom(self):
        for char in ax.CHARACTERIZATIONS:
            assert char.instances.keys() == char.failures.keys(), char.name
            for method, axiom in char.failures.items():
                assert axiom in char.axioms
                for instance in char.instances[method]:
                    verdict = run_instance(ts.allocation_method(method), axiom, instance,
                                           CATALOGUE[axiom].tol)
                    assert not verdict.holds, (char.name, method, axiom)

    def test_mismatch_raises(self, monkeypatch):
        import tollshare.axioms as ax

        # claim a failure that never happens: ses is efficient
        fake = (ax.Characterization("fake", ("efficiency",), {"ses": "efficiency"}),)
        monkeypatch.setattr(ax, "CHARACTERIZATIONS", fake)
        with pytest.raises(ts.HarnessMismatchError):
            ts.independence_harness(trials=3, seed=0)

    def test_unexpected_failure_raises(self, monkeypatch):
        import tollshare.axioms as ax

        # ses breaks weighted symmetry, which this set does not designate
        fake = (ax.Characterization("fake", ("weighted_segment_symmetry",), {"ses": "efficiency"}),)
        monkeypatch.setattr(ax, "CHARACTERIZATIONS", fake)
        with pytest.raises(ts.HarnessMismatchError, match="unexpected failure"):
            ts.independence_harness(trials=20, seed=0)


def _verdict_bits(verdict):
    """A verdict with its witness's inputs, location and figures bit for bit."""
    w = verdict.witness
    if w is None:
        return verdict.axiom, verdict.holds, None
    instance = {key: value.tobytes() if isinstance(value, np.ndarray) else value
                for key, value in w.instance.items()}
    return (verdict.axiom, verdict.holds, instance, dict(w.location),
            w.lhs.hex(), w.rhs.hex(), w.gap.hex(), w.tol)


def _grid_bits(grid):
    return {(method, axiom): _verdict_bits(verdict)
            for method, row in grid.items() for axiom, verdict in row.items()}


def test_verdicts_pickle_with_their_witness():
    covariance = ts.check_covariance(ts.counterexample_method("A1_swap_diag"),
                                     TollMatrix.zero(2), 1.0, np.array([1.0, 2.0]))
    linearity = evaluate_axiom(ts.sps, "linearity", trials=80, seed=0)
    assert isinstance(covariance.witness.instance["a"], np.ndarray)
    assert isinstance(linearity.witness.instance["other"], TollMatrix)
    for method, verdict in (("A1_swap_diag", covariance), ("sps", linearity)):
        copied = pickle.loads(pickle.dumps(verdict))
        assert _verdict_bits(copied) == _verdict_bits(verdict)
        replayed = ts.replay(ts.allocation_method(method), copied)
        assert replayed.witness.gap == verdict.witness.gap


@pytest.fixture
def forks(monkeypatch):
    """The number of ``os.fork`` calls the caller makes."""
    made = []
    fork = os.fork

    def counted():
        made.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return made


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _wait_for(condition, timeout=60.0):
    """Poll ``condition`` until it holds (True) or ``timeout`` seconds pass
    (False)."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def _square(i):
    return i * i


class TestForkedCells:
    """The grid and the harness give what one loop over their cells gives,
    however many workers split the cells."""

    METHODS = ("ses", "sps", "scs", *COUNTEREXAMPLES)
    SEEDS = range(5)

    @pytest.fixture(scope="class")
    def looped(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ax, "_worker_count", lambda: 1)
            grids = [_grid_bits(ts.axiom_matrix(self.METHODS, trials=6, seed=seed))
                     for seed in self.SEEDS]
            harnesses = [ts.independence_harness(trials=6, seed=seed) for seed in self.SEEDS]
        return grids, harnesses

    def test_worker_count_is_the_affinity(self):
        assert ax._worker_count() == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_grid_and_harness_match_the_loop(self, monkeypatch, forks, looped, workers):
        monkeypatch.setattr(ax, "_worker_count", lambda: workers)
        grids = [_grid_bits(ts.axiom_matrix(self.METHODS, trials=6, seed=seed))
                 for seed in self.SEEDS]
        harnesses = [ts.independence_harness(trials=6, seed=seed) for seed in self.SEEDS]
        assert (grids, harnesses) == looped
        assert sum(bits[1] is False for grid in grids for bits in grid.values()) > 100
        assert len(forks) == 2 * len(self.SEEDS) * (workers - 1)
        assert _no_children_left()

    @staticmethod
    def _patch_check(monkeypatch, axiom, action):
        """Have ``axiom``'s checker call ``action(method name)`` first."""
        names = {ts.allocation_method(name): name for name in ("ses", "sps", "scs")}
        spec = CATALOGUE[axiom]

        def check(f, *args, **kwargs):
            action(names.get(f))
            return spec.check(f, *args, **kwargs)

        monkeypatch.setitem(CATALOGUE, axiom, dataclasses.replace(spec, check=check))

    # cell index = 12 * method + axiom; with 2 and 3 workers the first
    # raising cell lies in a child's share, the caller's or both
    @pytest.mark.parametrize("raising", [
        [("sps", "efficiency"), ("ses", "inessential_segment")],
        [("sps", "linearity"), ("ses", "covariance")],
        [("scs", "subhighway_efficiency")],
    ])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_first_raising_cell_in_cell_order_raises(self, monkeypatch, workers, raising):
        monkeypatch.setattr(ax, "_worker_count", lambda: workers)
        for axiom in {axiom for _, axiom in raising}:
            def fail(name, axiom=axiom):
                if (name, axiom) in raising:
                    raise RuntimeError(f"{name} / {axiom}")

            self._patch_check(monkeypatch, axiom, fail)
        methods = ("ses", "sps", "scs")
        first = min(raising, key=lambda cell: (methods.index(cell[0]), ts.AXIOMS.index(cell[1])))
        with pytest.raises(RuntimeError, match=f"^{' / '.join(first)}$"):
            ts.axiom_matrix(methods, trials=5, seed=0)
        assert _no_children_left()

    # ses holds additivity and segment symmetry, so the cells that designate
    # them (indices 1 and 3) both miss their expected failure
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_earlier_harness_mismatch_in_cell_order_raises(self, monkeypatch, forks,
                                                               workers):
        monkeypatch.setattr(ax, "_worker_count", lambda: workers)
        fake = (ax.Characterization("one", ("efficiency", "additivity"), {"ses": "additivity"}),
                ax.Characterization("two", ("efficiency", "segment_symmetry"),
                                    {"ses": "segment_symmetry"}))
        monkeypatch.setattr(ax, "CHARACTERIZATIONS", fake)
        with pytest.raises(ts.HarnessMismatchError,
                           match=r"^independence harness mismatch at \(ses, additivity\): "
                                 "expected failure was not observed$"):
            ts.independence_harness(trials=3, seed=0)
        assert len(forks) == workers - 1 and _no_children_left()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_method_in_two_characterizations_keeps_two_rows(self, monkeypatch, workers):
        monkeypatch.setattr(ax, "_worker_count", lambda: workers)
        breaks = {"ses": [{"matrix": ax._T3}]}
        fake = (ax.Characterization("one", ("efficiency", "weighted_segment_symmetry"),
                                    {"ses": "weighted_segment_symmetry"}, breaks),
                ax.Characterization("two", ("weighted_segment_symmetry", "additivity"),
                                    {"ses": "weighted_segment_symmetry"}, breaks))
        monkeypatch.setattr(ax, "CHARACTERIZATIONS", fake)
        rows = ts.independence_harness(trials=3, seed=0)
        assert rows == [
            ax.HarnessRow("one", "ses", "weighted_segment_symmetry",
                          {"efficiency": True, "weighted_segment_symmetry": False}),
            ax.HarnessRow("two", "ses", "weighted_segment_symmetry",
                          {"weighted_segment_symmetry": False, "additivity": True}),
        ]
        assert [list(row.verdicts) for row in rows] == [list(char.axioms) for char in fake]
        assert _no_children_left()

    @classmethod
    def _die_in_a_child(cls, monkeypatch, died):
        """Have the linearity checker end any child that calls it.  The caller
        waits in its calls until a child has died, so that a child surely
        pulls such a cell; the list returned holds each wait's outcome."""
        caller, waits = os.getpid(), []

        def die_in_a_child(name):
            if os.getpid() != caller:
                died.touch()
                os._exit(3)
            waits.append(_wait_for(died.exists))

        cls._patch_check(monkeypatch, "linearity", die_in_a_child)
        return waits

    def test_a_dead_child_s_cells_run_in_the_caller(self, monkeypatch, forks, tmp_path):
        monkeypatch.setattr(ax, "_worker_count", lambda: 2)
        died = tmp_path / "died"
        waits = self._die_in_a_child(monkeypatch, died)
        grid = ts.axiom_matrix(trials=5, seed=1)
        # every linearity check ran in the caller, which waited for the
        # child to die at its first
        assert died.exists() and waits and all(waits)
        assert len(forks) == 1 and _no_children_left()
        monkeypatch.setattr(ax, "_worker_count", lambda: 1)
        assert _grid_bits(grid) == _grid_bits(ts.axiom_matrix(trials=5, seed=1))

    def test_a_worker_held_by_a_slow_cell_leaves_the_rest_to_the_other(self, monkeypatch,
                                                                      tmp_path):
        # under a fixed split the waiting worker would hold the rest of its
        # share, and the wait would time out
        monkeypatch.setattr(ax, "_worker_count", lambda: 2)
        cells = [(i,) for i in range(8)]

        def run(i):
            if i == 0:
                others = [tmp_path / str(j) for j in range(1, len(cells))]
                return os.getpid(), _wait_for(lambda: all(map(os.path.exists, others)))
            (tmp_path / str(i)).touch()
            return os.getpid(), None

        results = list(ax._map_cells(run, cells))
        (waiter, waited), *rest = results
        assert waited is True
        assert all(pid != waiter and mark is None for pid, mark in rest)
        assert _no_children_left()

    @pytest.mark.parametrize("count", [ax._RECORDS, ax._RECORDS + 1, 5000])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_more_cells_than_one_page_of_records(self, monkeypatch, forks, tmp_path, workers,
                                                 count):
        monkeypatch.setattr(ax, "_worker_count", lambda: workers)
        cells = [(i,) for i in range(count)]
        assert list(ax._map_cells(_square, cells)) == [i * i for i in range(count)]
        # each cell is pulled by one worker exactly: none is lost, run
        # twice or left for the merge
        log = os.open(tmp_path / "runs", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            done = ax._run_shares(lambda i: os.write(log, b"%d\n" % i), cells)
        finally:
            os.close(log)
        assert sorted(done) == list(range(count))
        assert sorted(map(int, (tmp_path / "runs").read_text().split())) == list(range(count))
        assert len(forks) == 2 * (workers - 1) and _no_children_left()

    @pytest.mark.parametrize("case", ["return", "raise", "die"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_no_descriptor_is_left_open(self, monkeypatch, tmp_path, workers, case):
        monkeypatch.setattr(ax, "_worker_count", lambda: workers)
        if case == "raise":
            def fail(name):
                if name == "sps":
                    raise RuntimeError("sps")

            self._patch_check(monkeypatch, "covariance", fail)
        elif case == "die":
            self._die_in_a_child(monkeypatch, tmp_path / "died")
        before = sorted(os.listdir("/proc/self/fd"))
        if case == "raise":
            with pytest.raises(RuntimeError, match="^sps$"):
                ts.axiom_matrix(trials=3, seed=4)
        else:
            ts.axiom_matrix(trials=3, seed=4)
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert _no_children_left()

    def test_an_interrupted_caller_kills_its_children(self, monkeypatch):
        monkeypatch.setattr(ax, "_worker_count", lambda: 3)
        caller = os.getpid()

        def stall_or_interrupt(name):
            if os.getpid() != caller:
                time.sleep(60)
            raise KeyboardInterrupt

        self._patch_check(monkeypatch, "efficiency", stall_or_interrupt)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            ts.axiom_matrix(("ses",), ("efficiency", "efficiency", "efficiency"), trials=1)
        assert _no_children_left() and time.monotonic() - start < 30

    @pytest.mark.parametrize("refusal", ["live thread", "no fork", "fork fails"])
    def test_cells_run_in_the_caller_when_it_may_not_fork(self, monkeypatch, refusal):
        monkeypatch.setattr(ax, "_worker_count", lambda: 2)
        looped = _grid_bits(ts.axiom_matrix(("ses", "A2_zero"), trials=5, seed=2))
        attempts = []

        def fork():
            attempts.append(None)
            raise OSError("no room for a process")

        monkeypatch.setattr(os, "fork", fork)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        if refusal == "live thread":
            thread.start()
        elif refusal == "no fork":
            monkeypatch.delattr(os, "fork")
        try:
            grid = ts.axiom_matrix(("ses", "A2_zero"), trials=5, seed=2)
        finally:
            release.set()
            if thread.is_alive():
                thread.join()
        assert _grid_bits(grid) == looped
        assert len(attempts) == (refusal == "fork fails")
