"""Tests for the toll matrix data model, generators, and file round-trips."""

import copy
import math
import pickle
import re
import tracemalloc
import warnings
from pathlib import Path
from types import MappingProxyType
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tollshare as ts
from tollshare import TollMatrix, axioms, model
from tollshare.datasets import ap68
from tollshare.errors import InvalidSeedError

from helpers import (
    block_structured_loop,
    read_triplet_csv_loop,
    sample_blocks_loop,
    sample_matrix_loop,
    seeded_matrices,
    write_dense_csv_grid,
    write_triplet_csv_loop,
)


def _plain_key(key):
    """Whether ``key`` has the form of a key of ``entries``: a plain tuple
    of two ``int``s."""
    return type(key) is tuple and len(key) == 2 and all(type(i) is int for i in key)


def _written(path, text):
    path.write_text(text)
    return path


class TestValidation:
    def test_dense_example_grid(self):
        grid = [[0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        matrix = TollMatrix.from_dense(grid)
        assert matrix.n == 3
        assert matrix.total == 2.0
        assert matrix.toll(1, 2) == 1.0
        assert matrix.toll(2, 3) == 0.0

    def test_dense_all_zero(self):
        matrix = TollMatrix.from_dense(np.zeros((4, 4)))
        assert matrix.total == 0.0
        assert list(matrix.trips()) == []

    def test_dense_lower_triangular_nonzero(self):
        grid = [[0.0, 0.0], [1.0, 0.0]]
        with pytest.raises(ts.LowerTriangularNonzeroError) as err:
            TollMatrix.from_dense(grid)
        assert (err.value.entry, err.value.exit) == (2, 1)

    def test_dense_negative(self):
        with pytest.raises(ts.NegativeTollError):
            TollMatrix.from_dense([[-1.0]])

    def test_dense_non_finite(self):
        with pytest.raises(ts.NonFiniteError):
            TollMatrix.from_dense([[math.inf]])
        with pytest.raises(ts.NonFiniteError):
            TollMatrix.from_dense([[math.nan]])

    def test_dense_not_square(self):
        with pytest.raises(ts.SegmentIndexError):
            TollMatrix.from_dense([[0.0, 1.0]])

    def test_overflowing_total_rejected(self):
        with pytest.raises(ts.TollValidationError, match="largest float"):
            TollMatrix(3, {(1, 3): 1.7e308, (1, 1): 1.7e308})

    def test_constructor_rejects_bad_trip(self):
        with pytest.raises(ts.SegmentIndexError):
            TollMatrix(3, {(2, 1): 1.0})
        with pytest.raises(ts.SegmentIndexError):
            TollMatrix(3, {(1, 4): 1.0})
        with pytest.raises(ts.SegmentIndexError):
            TollMatrix(0, {})

    @pytest.mark.parametrize("build, n", [
        (lambda: TollMatrix(2.5, {(1, 1): 1.0}), None),
        (lambda: TollMatrix(True, {(1, 1): 1.0}), None),
        (lambda: TollMatrix(np.int64(3), {(1, 1): 1.0}), 3),
        (lambda: TollMatrix("3", {(1, 1): 1.0}), None),
        (lambda: TollMatrix.from_triplets([(1, 1, 1.0)], n=2.5), None),
        (lambda: TollMatrix(3.0, {(1, 1): 1.0}), 3),
        (lambda: ts.random_matrix(np.int64(30), 0.5, seed=1), 30),
        (lambda: ts.random_matrix(np.int64(3), 0.5, seed=1), 3),
        (lambda: ts.random_matrix(3.0, 0.5, seed=1), 3),
    ], ids=["float", "bool", "numpy_int", "str", "from_triplets", "integral_float", "sampler",
            "sampler_loop", "sampler_integral_float"])
    def test_segment_count_is_a_plain_int(self, build, n):
        if n is None:
            with pytest.raises(ts.SegmentIndexError, match="segment count must be an integer"):
                build()
        else:
            matrix = build()
            assert type(matrix.n) is int and matrix.n == n

    def test_zero_entries_are_dropped(self):
        matrix = TollMatrix(3, {(1, 2): 0.0, (1, 3): 1.0})
        assert len(list(matrix.trips())) == 1

    @pytest.mark.parametrize("build", [
        lambda: TollMatrix(3, {(1, 2): "abc"}),
        lambda: TollMatrix(3, {(1, 2): None}),
        lambda: TollMatrix.from_triplets([(1, 2, "x")]),
        lambda: TollMatrix.from_dense([[0.0, "x"], [0.0, 0.0]]),
        # integers past the float range
        lambda: TollMatrix(3, {(1, 2): 10**400}),
        lambda: TollMatrix.from_triplets([(1, 2, 10**400)]),
        lambda: TollMatrix.from_dense([[0.0, 10**400], [0.0, 0.0]]),
    ])
    def test_non_numeric_toll(self, build):
        with pytest.raises(ts.NonNumericTollError, match=r"trip \[1,2\] is not a number") as err:
            build()
        assert isinstance(err.value, ts.TollShareError) and isinstance(err.value, ValueError)
        assert (err.value.entry, err.value.exit) == (1, 2)

    @pytest.mark.parametrize("error, fault", [
        (ts.NegativeTollError, "negative"),
        (ts.NonFiniteError, "not finite"),
        (ts.NonNumericTollError, "not a number"),
    ])
    def test_toll_errors_share_one_message_and_clip(self, error, fault):
        err = error(2, 3, -1.5)
        assert str(err) == f"toll for trip [2,3] is {fault}: -1.5"
        assert (err.entry, err.exit, err.value) == (2, 3, -1.5)
        long = error(2, 3, "x" * 1000)
        assert long.value == "x" * 1000
        assert str(long) == f"toll for trip [2,3] is {fault}: " + repr("x" * 1000)[:197] + "..."

    def test_trip_keys_are_reused_and_others_converted(self):
        class Pair(tuple):
            pass

        trip = (1, 2)
        matrix = TollMatrix(3, {trip: 1.0, (np.int64(2), 3.0): 2.0, Pair((1.0, 3)): 4})
        keys = list(matrix.entries)
        assert keys[0] is trip
        assert keys == [(1, 2), (1, 3), (2, 3)]
        assert all(_plain_key(k) for k in keys)
        with pytest.raises(ts.SegmentIndexError, match=r"trip \[2,4\]"):
            TollMatrix(3, {Pair((2, 4)): 1.0})

    def test_unsorted_entries_are_sorted(self):
        matrix = TollMatrix(3, {(2, 3): 1.0, (1, 1): 2.0, (1, 3): 0.0, (1, 2): 3.0})
        assert list(matrix.entries) == [(1, 1), (1, 2), (2, 3)]
        assert matrix.total == 6.0

    def test_entries_are_read_only(self):
        matrix = TollMatrix(2, {(1, 2): 1.0})
        with pytest.raises(TypeError):
            matrix.entries[1, 1] = 5.0


class TestTriplets:
    def test_example_rows(self, example3):
        built = TollMatrix.from_triplets([(1, 2, 1.0), (1, 3, 1.0)], n=3)
        assert built == example3

    def test_empty_with_explicit_n(self):
        matrix = TollMatrix.from_triplets([], n=5)
        assert matrix.n == 5 and matrix.total == 0.0

    def test_empty_without_n(self):
        with pytest.raises(ts.SegmentIndexError):
            TollMatrix.from_triplets([])

    def test_duplicate_trip(self):
        with pytest.raises(ts.DuplicateTripError) as err:
            TollMatrix.from_triplets([(1, 2, 1.0), (1, 2, 2.0)])
        assert (err.value.entry, err.value.exit) == (1, 2)

    def test_n_inferred_from_max_exit(self):
        assert TollMatrix.from_triplets([(2, 4, 1.0)]).n == 4

    @pytest.mark.parametrize("rows", [[(1, 2)], [(1, 2, 1.0, 9)], [(1, 2, 1.0, 9), (1, 3, 1.0)]])
    def test_records_of_other_lengths_rejected(self, rows):
        with pytest.raises(ts.TollValidationError):
            TollMatrix.from_triplets(rows)

    def test_integral_indices_accepted(self):
        built = TollMatrix.from_triplets([(np.int64(1), 2.0, 1.0), (2, np.int32(2), 3.0)])
        assert built == TollMatrix(2, {(1, 2): 1.0, (2, 2): 3.0})
        assert all(type(h) is int and type(k) is int for h, k in built.entries)

    @pytest.mark.parametrize("build", [
        lambda: TollMatrix(3, {(1, "a"): 1.0}),
        lambda: TollMatrix.from_triplets([(1, "a", 1.0)]),
    ])
    def test_non_integer_index_names_trip(self, build):
        with pytest.raises(ts.SegmentIndexError, match=r"trip \[1,a\] has a segment index") as err:
            build()
        assert (err.value.entry, err.value.exit) == (1, "a")

    @pytest.mark.parametrize("build, error, where", [
        (lambda tmp: TollMatrix(3, {(True, 2): 1.0}), ts.SegmentIndexError,
         r"trip \[True,2\] has a segment index"),
        (lambda tmp: TollMatrix(3, {(1, np.True_): 1.0}), ts.SegmentIndexError,
         r"trip \[1,True\] has a segment index"),
        (lambda tmp: TollMatrix.from_triplets([(True, True, 2.0)]), ts.SegmentIndexError,
         r"trip \[True,True\] has a segment index"),
        (lambda tmp: ts.read_json(_written(
            tmp / "export.json", '{"n": 2, "trips": [{"entry": true, "exit": 2, "toll": 1}]}')),
         ts.TollValidationError, r"export\.json: "),
        (lambda tmp: ts.read_json(_written(
            tmp / "export.json", '{"n": true, "trips": [{"entry": 1, "exit": 1, "toll": 1}]}')),
         ts.TollValidationError, r"export\.json: "),
        (lambda tmp: ts.read_json(_written(
            tmp / "export.json", '{"n": 2, "trips": [{"entry": 1, "exit": 2, "toll": true}]}')),
         ts.TollValidationError, r"export\.json: "),
    ], ids=["constructor", "numpy_bool", "from_triplets", "json_entry", "json_n", "json_toll"])
    def test_boolean_is_no_index_count_or_toll(self, tmp_path, build, error, where):
        with pytest.raises(error, match=where) as err:
            build(tmp_path)
        assert err.type is error

    def test_out_of_range(self):
        with pytest.raises(ts.SegmentIndexError):
            TollMatrix.from_triplets([(0, 2, 1.0)])
        with pytest.raises(ts.SegmentIndexError):
            TollMatrix.from_triplets([(3, 2, 1.0)])
        with pytest.raises(ts.SegmentIndexError):
            TollMatrix.from_triplets([(1, 4, 1.0)], n=3)


class TestAlgebra:
    def test_total_is_additive(self):
        a = ts.random_matrix(6, density=0.5, seed=1)
        b = ts.random_matrix(6, density=0.8, seed=2)
        assert (a + b).total == pytest.approx(a.total + b.total, abs=1e-12)

    def test_add_requires_same_size(self):
        with pytest.raises(ts.SegmentIndexError):
            TollMatrix.zero(2) + TollMatrix.zero(3)

    def test_add_takes_only_matrices(self):
        with pytest.raises(TypeError):
            TollMatrix.zero(2) + 1.0

    def test_scaled(self):
        matrix = TollMatrix(2, {(1, 2): 3.0})
        assert matrix.scaled(2.0).toll(1, 2) == 6.0
        assert matrix.scaled(0.0).total == 0.0
        with pytest.raises(ts.NegativeTollError):
            matrix.scaled(-1.0)

    def test_involvement(self, example3):
        assert example3.involvement(1) == 2.0
        assert example3.involvement(2) == 2.0
        assert example3.involvement(3) == 1.0

    def test_unit_and_diagonal(self):
        unit = TollMatrix.unit(2, 3, 4)
        assert ts.is_unit_matrix(unit)
        assert not ts.is_unit_matrix(unit.scaled(2.0))
        assert not ts.is_unit_matrix(TollMatrix.zero(3))
        diag = TollMatrix(3, {(1, 1): 2.0, (3, 3): 1.0})
        assert list(diag.diagonal()) == [2.0, 0.0, 1.0]

    def test_inessential_segments(self):
        matrix = TollMatrix(4, {(1, 2): 1.0, (4, 4): 1.0})
        assert ts.inessential_segments(matrix) == [3]


class TestRandomGenerators:
    def test_deterministic_in_seed(self):
        a = ts.random_matrix(5, density=1.0, max_toll=10.0, seed=7)
        b = ts.random_matrix(5, density=1.0, max_toll=10.0, seed=7)
        assert a == b
        assert a != ts.random_matrix(5, density=1.0, max_toll=10.0, seed=8)

    def test_single_segment(self):
        matrix = ts.random_matrix(1, density=1.0, max_toll=1.0, seed=0)
        toll = matrix.toll(1, 1)
        assert 0.0 < toll <= 1.0

    def test_values_in_range(self):
        matrix = ts.random_matrix(6, density=1.0, max_toll=5.0, seed=3)
        assert all(0.0 < t <= 5.0 for _, t in matrix.trips())
        assert len(list(matrix.trips())) == 21

    def test_invalid_density(self):
        with pytest.raises(ts.InvalidDensityError):
            ts.random_matrix(3, density=0.0, seed=0)
        with pytest.raises(ts.InvalidDensityError):
            ts.random_matrix(3, density=1.5, seed=0)

    def test_block_structure_forces_zeros(self):
        matrix = ts.block_structured_matrix([{1, 2}, {3}], seed=11)
        assert matrix.toll(1, 3) == 0.0
        assert matrix.toll(2, 3) == 0.0

    def test_single_block_is_unconstrained_shape(self):
        matrix = ts.block_structured_matrix([range(1, 5)], seed=2, density=1.0)
        assert len(list(matrix.trips())) == 10

    def test_bad_blocks(self):
        with pytest.raises(ts.BlocksNotPartitionError):
            ts.block_structured_matrix([{1, 3}], seed=0)
        with pytest.raises(ts.BlocksNotPartitionError):
            ts.block_structured_matrix([{1, 2}, {2, 3}], seed=0)
        with pytest.raises(ts.BlocksNotPartitionError):
            ts.block_structured_matrix([{1, 2}, {4}], seed=0)


class TestRoundTrips:
    def test_triplet_csv(self, tmp_path):
        matrix = ts.random_matrix(7, density=0.4, seed=42)
        path = tmp_path / "m.csv"
        ts.write_triplet_csv(matrix, path)
        assert ts.read_triplet_csv(path, n=7) == matrix

    def test_triplet_csv_needs_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3.0\n")
        with pytest.raises(ts.TollValidationError):
            ts.read_triplet_csv(path)

    def test_dense_csv(self, tmp_path):
        matrix = ts.random_matrix(5, density=0.6, seed=9)
        path = tmp_path / "m.csv"
        ts.write_dense_csv(matrix, path)
        assert ts.read_dense_csv(path) == matrix

    @pytest.mark.parametrize("matrix", [
        TollMatrix.zero(1), TollMatrix.zero(4), TollMatrix(3, {(1, 1): 0.1, (2, 3): 1e300}),
        TollMatrix(4, {(1, 4): 5e-324, (3, 3): 2.5, (4, 4): 1e16}),
        ts.random_matrix(9, density=0.4, seed=2), ts.random_matrix(30, density=1.0, seed=5),
    ])
    def test_dense_csv_bytes_match_the_grid_writer(self, tmp_path, matrix):
        ts.write_dense_csv(matrix, tmp_path / "rows.csv")
        write_dense_csv_grid(matrix, tmp_path / "grid.csv")
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "grid.csv").read_bytes()

    def test_dense_csv_holds_no_grid(self, tmp_path):
        # the 600 x 600 float grid alone would take 2.9 MB
        matrix = TollMatrix(600, {(1, 600): 1.0, (300, 301): 2.0})
        tracemalloc.start()
        try:
            ts.write_dense_csv(matrix, tmp_path / "m.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 << 10
        assert ts.read_dense_csv(tmp_path / "m.csv") == matrix

    def test_json(self, tmp_path):
        matrix = ts.random_matrix(6, density=0.5, seed=13)
        path = tmp_path / "m.json"
        ts.write_json(matrix, path)
        assert ts.read_json(path) == matrix

    def test_segments_override(self, tmp_path, example3):
        path = tmp_path / "m.csv"
        ts.write_triplet_csv(example3, path)
        widened = ts.read_triplet_csv(path, n=5)
        assert widened.n == 5
        assert widened.total == example3.total


class TestSingleFaults:
    """Each input has exactly one fault; the error type is part of the API."""

    @pytest.mark.parametrize("build, error", [
        (lambda: TollMatrix.from_triplets([(1, 2, math.nan)]), ts.NonFiniteError),
        (lambda: TollMatrix.from_triplets([(1, 2, -math.inf)]), ts.NonFiniteError),
        (lambda: TollMatrix.from_triplets([(1, 2, -1.0)]), ts.NegativeTollError),
        (lambda: TollMatrix.from_triplets([(1, 0, 1.0)]), ts.SegmentIndexError),
        (lambda: TollMatrix.from_triplets([], n=0), ts.SegmentIndexError),
        (lambda: TollMatrix.from_dense([[0.0, 0.0], [math.nan, 0.0]]), ts.NonFiniteError),
        (lambda: TollMatrix.from_dense([[0.0, 0.0], [-1.0, 0.0]]),
         ts.LowerTriangularNonzeroError),
        (lambda: TollMatrix.from_dense([[0.0, -1.0], [0.0, 0.0]]), ts.NegativeTollError),
        (lambda: TollMatrix.from_dense([[1.0, 2.0], [3.0]]), ts.SegmentIndexError),
        (lambda: ts.random_matrix(0), ts.SegmentIndexError),
        (lambda: ts.block_structured_matrix([]), ts.SegmentIndexError),
        (lambda: TollMatrix(3, {(1, "a"): 1.0}), ts.SegmentIndexError),
        (lambda: TollMatrix(3, {(1, 2.5): 1.0}), ts.SegmentIndexError),
        (lambda: TollMatrix.from_triplets([(1, "a", 1.0)]), ts.SegmentIndexError),
        (lambda: TollMatrix.from_triplets([(1.5, 2, 1.0)]), ts.SegmentIndexError),
        (lambda: TollMatrix.from_dense([1.0]), ts.SegmentIndexError),
        (lambda: TollMatrix.from_dense(5), ts.SegmentIndexError),
        (lambda: TollMatrix.from_dense(None), ts.SegmentIndexError),
        (lambda: TollMatrix.from_dense(3.0), ts.SegmentIndexError),
        (lambda: TollMatrix.zero(3).toll(0, 1), ts.SegmentIndexError),
        (lambda: TollMatrix.zero(3).toll(2, 4), ts.SegmentIndexError),
        (lambda: TollMatrix.zero(3).involvement(0), ts.SegmentIndexError),
        (lambda: TollMatrix.zero(3).involvement(4), ts.SegmentIndexError),
    ])
    def test_error_type(self, build, error):
        with pytest.raises(error) as err:
            build()
        assert err.type is error

    def test_negative_scale_factor_is_reported(self):
        with pytest.raises(ts.NegativeTollError, match="scale factor is negative: -1.0"):
            TollMatrix(2, {(1, 2): 3.0}).scaled(-1.0)

    @pytest.mark.parametrize("generate", [
        lambda seed: ts.random_matrix(3, seed=seed),
        lambda seed: ts.block_structured_matrix([range(1, 3), range(3, 4)], seed=seed),
    ])
    def test_generators_name_a_negative_seed(self, generate):
        with pytest.raises(InvalidSeedError, match="got -1$") as err:
            generate(-1)
        assert isinstance(err.value, ts.TollValidationError) and err.value.seed == -1

    def test_block_generator_checks_max_toll(self):
        with pytest.raises(ts.TollValidationError, match="max_toll"):
            ts.block_structured_matrix([range(1, 3)], max_toll=0.0)

    @pytest.mark.parametrize("max_toll", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("generate", [
        lambda max_toll: ts.random_matrix(1, density=0.01, max_toll=max_toll),
        lambda max_toll: ts.random_matrix(20, max_toll=max_toll),
        lambda max_toll: ts.block_structured_matrix([range(1, 3)], max_toll=max_toll),
    ], ids=["sparse", "array_lane", "blocks"])
    def test_generators_name_a_max_toll_that_is_not_positive_and_finite(self, generate,
                                                                       max_toll):
        with pytest.raises(ts.TollValidationError,
                           match=f"^max_toll must be positive and finite, got {max_toll!r}$"):
            generate(max_toll)

    @pytest.mark.parametrize("n, message", [
        (2.5, "segment count must be an integer, got 2.5"),
        (True, "segment count must be an integer, got True"),
        ("3", "segment count must be an integer, got '3'"),
        (0, "segment count must be >= 1, got 0"),
        (-4, "segment count must be >= 1, got -4"),
        (model.SEGMENT_CEILING + 1,
         f"segment count must be at most {model.SEGMENT_CEILING}, got {model.SEGMENT_CEILING + 1}"),
    ])
    def test_generators_check_the_segment_count(self, n, message):
        with pytest.raises(ts.SegmentIndexError, match=f"^{re.escape(message)}$"):
            ts.random_matrix(n)
        with pytest.raises(ts.SegmentIndexError, match=f"^{re.escape(message)}$"):
            TollMatrix(n, {})

    @pytest.mark.parametrize("blocks, message", [
        ([{1, 10**12}], "is not contiguous"),
        ([{1}, {10**12}],
         "blocks do not partition the segment range: no block covers [2, 999999999999]"),
    ])
    def test_blocks_far_apart_are_refused_without_a_list_of_n(self, blocks, message):
        with pytest.raises(ts.BlocksNotPartitionError, match=re.escape(message)):
            ts.block_structured_matrix(blocks)

    @pytest.mark.parametrize("blocks, message", [
        ([range(1, 2**20 + 1)] * 4, "block [1, 1048576] starts before 1048577"),
        ([range(1, 3), range(4, 2**20 + 1)], "no block covers [3, 3]"),
        ([range(0, 2**20)], "block [0, 1048575] starts before 1"),
        ([range(2**20, 2**20 + 2)], "no block covers [1, 1048575]"),
    ])
    def test_long_ranges_are_refused_from_their_ends(self, blocks, message):
        # listing the segments of four such ranges took hundreds of MB
        tracemalloc.start()
        try:
            with pytest.raises(ts.BlocksNotPartitionError, match=f"{re.escape(message)}$"):
                ts.block_structured_matrix(blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10

    def test_stepped_range_is_refused_from_its_ends(self):
        # a range is read from its ends: listing its 524,288 members would name them all
        tracemalloc.start()
        try:
            with pytest.raises(ts.BlocksNotPartitionError) as raised:
                ts.block_structured_matrix([range(1, 2**20, 2)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        message = str(raised.value)
        assert len(message) <= 200 and peak < 64 << 10
        assert "[1, 1048575]" in message and "segment 2" in message

    def test_empty_block_is_named(self):
        with pytest.raises(ts.BlocksNotPartitionError, match=": empty block$"):
            ts.block_structured_matrix([set()])

    def test_cell_ceiling_admits_the_largest_scale(self):
        assert 2000 * 2001 // 2 <= model.CELL_CEILING < 2048 * 2049 // 2

    @pytest.mark.parametrize("generate, cells", [
        (lambda rng: ts.sample_matrix(rng, 100000), 5000050000),
        (lambda rng: ts.sample_matrix(rng, 2048, density=0.001), 2098176),
        (lambda rng: ts.random_matrix(100000), 5000050000),
        (lambda rng: ts.block_structured_matrix([range(1, 100001)]), 5000050000),
        (lambda rng: ts.block_structured_matrix([range(1, 2049), range(2049, 2051)]), 2098179),
    ], ids=["sample", "sparse_sample", "random", "one_block", "two_blocks"])
    def test_cell_ceiling_refuses_before_drawing(self, monkeypatch, generate, cells):
        def no_arrays(*args):
            raise AssertionError("drew past the cell ceiling")

        monkeypatch.setattr(model, "_sample_arrays", no_arrays)
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        message = f"{cells} trips to draw for; the limit is {model.CELL_CEILING}"
        with pytest.raises(ts.SegmentIndexError, match=f"^{message}$"):
            generate(rng)
        assert rng.bit_generator.state == state


class TestMalformedFiles:
    def test_dense_csv_non_numeric_cell(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("0,1\n0,x\n")
        with pytest.raises(ts.TollValidationError, match=r"grid\.csv:2:"):
            ts.read_dense_csv(path)

    @pytest.mark.parametrize("text, where, error", [
        ("0,-1\n0,0\n", "grid.csv:1: toll", ts.NegativeTollError),
        ("0,0\n\n1,0\n", "grid.csv:3: entry (2,1)", ts.LowerTriangularNonzeroError),
        ("\n0,0\n\n0,nan\n", "grid.csv:4: toll", ts.NonFiniteError),
        ("0,0\n0\n", "grid.csv: dense", ts.SegmentIndexError),
    ])
    def test_dense_csv_cell_error_names_line(self, tmp_path, text, where, error):
        path = tmp_path / "grid.csv"
        path.write_text(text)
        with pytest.raises(error, match=re.escape(where)) as err:
            ts.read_dense_csv(path)
        assert err.type is error

    @pytest.mark.parametrize("text", [
        '{"n": 3}',
        '{"trips": []}',
        '{"n": 3, "trips": [{"entry": 1, "exit": "a", "toll": 1.0}]}',
        '{"n": 3, "trips": [{"entry": 1, "exit": 2, "toll": null}]}',
        '[1, 2]',
        '{"n": 3,',
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested_past_the_stack"),
    ])
    def test_json_not_a_matrix_export(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ts.TollValidationError, match=r"bad\.json"):
            ts.read_json(path)

    @pytest.mark.parametrize("text, where, error", [
        ("1,2,1.0\n\n2,3,1\n1,2,3\n", "trips.csv:5:", ts.DuplicateTripError),
        ("1,2,1.0\n,,\n2,3,-1\n", "trips.csv:4:", ts.NegativeTollError),
        ("1,2,nan\n", "trips.csv:2:", ts.NonFiniteError),
        ("1,2,1\n3,2,1\n", "trips.csv:3:", ts.SegmentIndexError),
        ("", "trips.csv:", ts.SegmentIndexError),
    ])
    def test_triplet_csv_trip_error_names_line(self, tmp_path, text, where, error):
        path = tmp_path / "trips.csv"
        path.write_text("entry,exit,toll\n" + text)
        with pytest.raises(error, match=re.escape(where)) as err:
            ts.read_triplet_csv(path)
        assert err.type is error

    def test_triplet_csv_range_names_line(self, tmp_path):
        path = tmp_path / "trips.csv"
        path.write_text("entry,exit,toll\n1,1,1\n\n2,3,1\n")
        with pytest.raises(ts.SegmentIndexError, match=r"trips\.csv:4: trip \[2,3\]"):
            ts.read_triplet_csv(path, n=2)

    @pytest.mark.parametrize("trips, error", [
        ('[{"entry": 1, "exit": 3, "toll": 1}]', ts.SegmentIndexError),
        ('[{"entry": 1, "exit": 2, "toll": -1}]', ts.NegativeTollError),
        ('[{"entry": 1, "exit": 2, "toll": 1}, {"entry": 1, "exit": 2, "toll": 2}]',
         ts.DuplicateTripError),
        ('[{"entry": 1, "exit": 1.5, "toll": 1}]', ts.SegmentIndexError),
    ])
    def test_json_trip_error_names_file(self, tmp_path, trips, error):
        path = tmp_path / "export.json"
        path.write_text(f'{{"n": 2, "trips": {trips}}}')
        with pytest.raises(error, match=r"export\.json: ") as err:
            ts.read_json(path)
        assert err.type is error


def _read_outcome(read, path, n):
    """The matrix ``read`` returns, or the type and message of what it raises."""
    try:
        matrix = read(path, n)
    except Exception as exc:
        return type(exc), str(exc)
    return matrix, list(matrix.entries)


_INDEX = st.integers(1, 6).map(str)
_ROWS = st.one_of(
    st.tuples(_INDEX, _INDEX, st.one_of(st.floats(0.0, 1e6), st.floats()).map(repr)),
    st.tuples(_INDEX, _INDEX, st.sampled_from(["1", " 2.5 ", "1e3", "-0.0", "0", "inf"])),
    st.sampled_from([(), ("",), ("  ",), ("", "", ""), (" ", "", "\t")]),
    st.lists(_INDEX, min_size=1, max_size=5).filter(lambda row: len(row) != 3).map(tuple),
    st.tuples(st.sampled_from(["a", "2.0", "", "1"]), _INDEX, st.sampled_from(["x", "", "1"])),
)


@st.composite
def _triplet_texts(draw):
    """A triplet CSV: blank, ragged, non-numeric, duplicate and out-of-order
    records among valid ones, with quoted cells (some spanning a line break)
    and LF or CRLF line ends."""
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = ["entry,exit,toll"]
    for row in draw(st.lists(_ROWS, max_size=30)):
        quoting = draw(st.lists(st.sampled_from(["", '"', "break"]),
                                min_size=len(row), max_size=len(row)))
        lines.append(",".join(cell if q == "" else f'"{cell}"' if q == '"' else f'"{cell}{end}"'
                              for cell, q in zip(row, quoting)))
    return end.join(lines) + draw(st.sampled_from(["", end]))


#: Cells that numpy's and Python's number grammars read differently, or
#: that only one of them reads, among ordinary ones.
_ODD_INDEX = st.sampled_from(["0", "-2", "+3", "03", " 4 ", "\t2\t", "1_0", "\u0661", "0x10",
                              "12345678901234567890", "1\u01fe", "\x1c2", "2.0", "2.5"])
_ODD_TOLL = st.sampled_from(["+3", "Infinity", "-Infinity", "1e-400", "1e400", "1_0.5",
                             "\u0661.5", "0x10", "\t2.5 ", "nan", "12345678901234567890",
                             "\x1f1", "-0.0", "0"])
_ODD_LINE = st.sampled_from(["", "   ", "\t", "#", "# a comment", "#1,2,3"])


@st.composite
def _odd_triplet_texts(draw):
    """A triplet CSV of valid records, one or two of which hold an ``_ODD_*``
    cell in place of their own or have an ``_ODD_LINE`` put before them."""
    trip = st.lists(st.integers(1, 6), min_size=2, max_size=2).map(sorted)
    lines = [[str(h), str(k), repr(t)] for (h, k), t in
             draw(st.lists(st.tuples(trip, st.floats(0.0, 1e6)), min_size=1, max_size=10))]
    for _ in range(draw(st.integers(1, 2))):
        at = draw(st.integers(0, len(lines) - 1))
        column = draw(st.integers(0, 3))
        if column == 3 or isinstance(lines[at], str):
            lines.insert(at, draw(_ODD_LINE))
        else:
            lines[at][column] = draw(_ODD_INDEX if column < 2 else _ODD_TOLL)
    return "\n".join(["entry,exit,toll", *(line if isinstance(line, str) else ",".join(line)
                                            for line in lines)]) + "\n"


class TestTripletIO:
    """The column reader and one-shot writer against the row-by-row loops."""

    @settings(max_examples=300)
    @given(text=_odd_triplet_texts(), n=st.sampled_from([None, 6]))
    # numpy reads these records as (1, 472, 2.0), (1, 2, 2.0) and (1, 2, 3.0)
    @example(text="entry,exit,toll\n1,1\u01fe,2\n", n=None)
    @example(text="entry,exit,toll\n1,\x1c2,2\n", n=None)
    @example(text="entry,exit,toll\n1,2,3\x1f\n", n=None)
    # bare CR and CR CR LF line ends
    @example(text="entry,exit,toll\r1,2,3\r\r2,2,1.5\r", n=None)
    @example(text="entry,exit,toll\r\r\n1,2,3\r\r\n2,2,1.5\r\r\n", n=None)
    # splitlines ends a line at a vertical tab or a form feed, the csv module does not
    @example(text="entry,exit,toll\n1,2,\v3\n2,2,\f1.5\n", n=None)
    @example(text="entry,exit,toll\n1,2,3\v2,2,1.5\n", n=None)
    @example(text="entry,exit,toll\n1,2,3\f\n", n=6)
    # a last line without a line end; a header and nothing else
    @example(text="entry,exit,toll\n1,2,3\n2,2,1.5", n=None)
    @example(text="entry,exit,toll", n=None)
    @example(text="entry,exit,toll", n=6)
    @example(text="entry,exit,toll\n", n=None)
    @example(text="entry,exit,toll\r\n", n=6)
    # runs of blank lines, which the small pieces below split
    @example(text="entry,exit,toll\n1,2,3\n\n\n\n\n2,2,1.5\n\n\n", n=None)
    @example(text="entry,exit,toll\r\n\r\n\r\n1,2,3\r\n\r\n\r\n\r\n2,2,1.5\r\n", n=6)
    def test_reader_matches_row_loop_on_number_grammar(self, tmp_path_factory, text, n):
        path = tmp_path_factory.mktemp("csv") / "trips.csv"
        path.write_bytes(text.encode())
        expected = _read_outcome(read_triplet_csv_loop, path, n)
        for piece in (model._PIECE_BYTES, 1, 7):
            with mock.patch.object(model, "_PIECE_BYTES", piece):
                assert _read_outcome(ts.read_triplet_csv, path, n) == expected

    @pytest.mark.parametrize("tail, error", [
        ("101,101,x\n", ts.TollValidationError),
        ("101,101,1_0\n1,2\n", ts.TollValidationError),
        ("101,\u0661\u0660\u0660,1\n", ts.SegmentIndexError),
        ("101,101,-1\n", ts.NegativeTollError),
        ("100,100,1\n", ts.DuplicateTripError),
        ("101,101,inf\n", ts.NonFiniteError),
    ])
    def test_fault_in_a_long_tail_falls_back_to_the_walk(self, tmp_path, tail, error):
        filler = [f"{h},{k},1.5\n" for h in range(1, 101) for k in range(h, 101)]
        path = tmp_path / "trips.csv"
        path.write_text("entry,exit,toll\n" + "".join(filler) + tail)
        with mock.patch.object(model, "_walk_triplet_csv",
                               wraps=model._walk_triplet_csv) as walk:
            outcome = _read_outcome(ts.read_triplet_csv, path, None)
        walk.assert_called_once()
        assert outcome == _read_outcome(read_triplet_csv_loop, path, None)
        assert outcome[0] is error
        # the header and the filler come before the tail, whose last line is at fault
        line = 1 + len(filler) + tail.count("\n")
        assert f"trips.csv:{line}: " in outcome[1]

    @pytest.mark.parametrize("text, where", [
        ("entry,exit,toll\n1,2,1\n\n1,2,2\n", "trips.csv:4: trip [1,2] appears more than once"),
        ("entry,exit,toll\n1,2,1\n2,3,\u0661.5\n", None),
    ], ids=["duplicate", "not_ascii"])
    def test_the_walk_reads_the_file_once(self, tmp_path, text, where):
        path = tmp_path / "trips.csv"
        path.write_bytes(text.encode())
        with mock.patch.object(Path, "read_bytes", autospec=True,
                               side_effect=Path.read_bytes) as read_bytes, \
                mock.patch("builtins.open", wraps=open) as opened, \
                mock.patch.object(model, "_walk_triplet_csv",
                                  wraps=model._walk_triplet_csv) as walk:
            outcome = _read_outcome(ts.read_triplet_csv, path, None)
        walk.assert_called_once()
        assert read_bytes.call_count + opened.call_count == 1
        if where is None:
            assert outcome == (TollMatrix(3, {(1, 2): 1.0, (2, 3): 1.5}), [(1, 2), (2, 3)])
        else:
            assert outcome[0] is ts.DuplicateTripError and where in outcome[1]

    @pytest.mark.parametrize("cell", ["2.5", "2.0"])
    def test_float_index_that_numpy_truncates_with_a_warning_falls_back(self, tmp_path, cell):
        # numpy releases that only deprecate the float-to-integer cast read
        # such a cell truncated, with a DeprecationWarning
        loadtxt = np.loadtxt

        def truncating(lines, **kwargs):
            lines = list(lines)
            if any(cell in line for line in lines):
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning, stacklevel=2)
            return loadtxt([line.replace(cell, "2") for line in lines], **kwargs)

        path = tmp_path / "trips.csv"
        path.write_text(f"entry,exit,toll\n1,{cell},3\n")
        with mock.patch.object(np, "loadtxt", truncating):
            outcome = _read_outcome(ts.read_triplet_csv, path, None)
        assert outcome == _read_outcome(read_triplet_csv_loop, path, None)
        assert outcome[0] is ts.TollValidationError
        assert "trips.csv:2: " in outcome[1]

    @pytest.mark.parametrize("body", ["", "\n", "\r\n\r\n", "  \n\t\n"])
    def test_empty_body_warns_nothing(self, tmp_path, body):
        path = tmp_path / "trips.csv"
        path.write_text("entry,exit,toll\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ts.read_triplet_csv(path, n=3) == TollMatrix.zero(3)
            with pytest.raises(ts.SegmentIndexError, match="cannot infer the segment count"):
                ts.read_triplet_csv(path)

    @pytest.mark.parametrize("body", [
        "\n\n\n", "\r\n \r\n\t\r\n", " \n1,2,3.0\n", "\t\r\n \r\n2,3,1.5\r\n1,1,2\r\n",
        "\n \n1,1,1\n \n2,2,2\n", "  \n1,2,3\n1,2,4\n", " \n1,2,x\n", " \n3,2,1\n",
    ])
    @pytest.mark.parametrize("n", [None, 3])
    def test_blank_lines_before_the_first_record(self, tmp_path, body, n):
        path = tmp_path / "trips.csv"
        path.write_bytes(b"entry,exit,toll\n" + body.encode())
        assert _read_outcome(ts.read_triplet_csv, path, n) == \
            _read_outcome(read_triplet_csv_loop, path, n)

    @settings(max_examples=300)
    @given(text=_triplet_texts(), n=st.sampled_from([None, 4, 6]))
    def test_reader_matches_row_loop(self, tmp_path_factory, text, n):
        path = tmp_path_factory.mktemp("csv") / "trips.csv"
        path.write_bytes(text.encode())
        assert _read_outcome(ts.read_triplet_csv, path, n) == \
            _read_outcome(read_triplet_csv_loop, path, n)

    @pytest.mark.parametrize("tail, line, error", [
        ("101,101,2.5\n", None, None),
        ("101,101,1\n\n7,9,2\n", 3, ts.DuplicateTripError),
        ("101,101,1\n1,2\n", 2, ts.TollValidationError),
        ("101,101,1\n1,b,1\n", 2, ts.TollValidationError),
        ("101,101,-1\n", 1, ts.NegativeTollError),
        ("102,101,1\n", 1, ts.SegmentIndexError),
        # a parse fault is reported before an earlier duplicate
        ("101,101,1\n1,2,1\n1,2\n", 3, ts.TollValidationError),
    ])
    def test_fault_after_first_chunk(self, tmp_path, tail, line, error):
        filler = [f"{h},{k},1.5\n" for h in range(1, 101) for k in range(h, 101)]
        path = tmp_path / "trips.csv"
        path.write_text("entry,exit,toll\n" + "".join(filler[:10]) + "\n"
                        + "".join(filler[10:]) + tail)
        outcome = _read_outcome(ts.read_triplet_csv, path, None)
        assert outcome == _read_outcome(read_triplet_csv_loop, path, None)
        if error is None:
            assert outcome[0].n == 101
        else:
            # the header, the filler and one blank row come before the tail
            assert outcome[0] is error
            assert f"trips.csv:{len(filler) + 2 + line}: " in outcome[1]

    @pytest.mark.parametrize("matrix", [
        ap68(),
        *seeded_matrices(7, sizes=(1, 5, 12, 40)),
        TollMatrix(3, {(1, 1): 5e-324, (1, 2): 1e-300, (2, 3): 0.1, (3, 3): 1e300}),
        TollMatrix.zero(2),
    ], ids=repr)
    def test_writer_bytes_match_csv_writer(self, tmp_path, matrix):
        ts.write_triplet_csv(matrix, tmp_path / "new.csv")
        write_triplet_csv_loop(matrix, tmp_path / "loop.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()
        assert ts.read_triplet_csv(tmp_path / "new.csv", n=matrix.n) == matrix

    @pytest.mark.parametrize("end", ["\r\n", "\n"])
    def test_a_clean_file_never_walks(self, tmp_path, monkeypatch, end):
        matrix = ts.random_matrix(60, density=0.5, seed=5)
        path = tmp_path / "trips.csv"
        ts.write_triplet_csv(matrix, path)
        path.write_bytes(path.read_bytes().replace(b"\r\n", end.encode()))
        monkeypatch.setattr(model, "_PIECE_BYTES", 100)
        monkeypatch.setattr(model, "_walk_triplet_csv", mock.Mock(side_effect=AssertionError))
        assert ts.read_triplet_csv(path) == matrix

    def test_pieces_handed_to_loadtxt_stay_small(self, tmp_path, monkeypatch):
        # 13.5k lines, 359 kB, in pieces of about 1 kB
        matrix = ts.random_matrix(300, density=0.3, seed=2)
        path = tmp_path / "trips.csv"
        ts.write_triplet_csv(matrix, path)
        raw = path.read_bytes()
        monkeypatch.setattr(model, "_PIECE_BYTES", 1000)
        pieces, at_loadtxt = [], []
        split, loadtxt = model._pieces, np.loadtxt

        def recorded(raw):
            for piece in split(raw):
                pieces.append(piece)
                yield piece

        def counted(lines, **kwargs):
            at_loadtxt.append(len(pieces))
            return loadtxt(lines, **kwargs)

        monkeypatch.setattr(model, "_pieces", recorded)
        monkeypatch.setattr(np, "loadtxt", counted)
        assert ts.read_triplet_csv(path) == matrix
        longest = max(map(len, raw.splitlines(keepends=True)))
        # the header's piece alone is decoded before loadtxt starts
        assert at_loadtxt == [1] and len(pieces) > 300
        assert max(map(len, pieces)) < 1000 + longest
        assert "".join(pieces).encode() == raw
        assert all(piece.endswith("\n") for piece in pieces)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(tolls=st.lists(st.one_of(
        st.floats(5e-324, 1.7e308),
        st.integers(1, 2**63).map(float),
        # the shortest reprs that switch to an exponent, and their neighbours
        st.sampled_from([1e16, 1e-05, 9999999999999998.0, 0.0001, 1.5e16, 2.5e-05]),
    ), max_size=25))
    @example(tolls=[5e-324, 1.7976931348623156e306])  # the largest toll the range rule accepts
    def test_writer_bytes_match_the_loop_for_any_toll(self, tmp_path_factory, tolls):
        kept = []
        for toll in tolls:  # a total past the largest float / 100 is no matrix
            if math.fsum([*kept, toll]) * 100 < math.inf:
                kept.append(toll)
        n = max(len(kept), 1)
        matrix = TollMatrix(n, {(k, n): toll for k, toll in enumerate(kept, start=1)})
        folder = tmp_path_factory.mktemp("csv")
        write_triplet_csv_loop(matrix, folder / "loop.csv")
        for cap in (1, 2, 7):
            with mock.patch.object(model, "_DRAW_CHUNK", cap):
                ts.write_triplet_csv(matrix, folder / "new.csv")
            assert (folder / "new.csv").read_bytes() == (folder / "loop.csv").read_bytes()

    @pytest.mark.parametrize("cap", [1, 7, 1 << 16])
    def test_writer_slices_give_the_same_bytes(self, tmp_path, monkeypatch, cap):
        monkeypatch.setattr(model, "_DRAW_CHUNK", cap)
        for matrix in (ap68(), ts.random_matrix(40, 0.4, seed=8), TollMatrix.zero(2)):
            ts.write_triplet_csv(matrix, tmp_path / "new.csv")
            write_triplet_csv_loop(matrix, tmp_path / "loop.csv")
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    def test_writer_and_reader_peaks_do_not_grow_with_the_file(self, tmp_path):
        """The writer holds one slice of rows on top of the matrix's columns;
        the reader holds the file's bytes and, while it copies them into
        columns, the parsed records: one more set of columns.  What either
        holds beyond that is a fixed margin, the same for 25k as 100k trips."""
        def peak(call) -> int:
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        margins = []
        for n in (500, 1000):
            matrix = ts.random_matrix(n, density=0.2, seed=3)
            columns = sum(column.nbytes for column in matrix.columns)
            path = tmp_path / f"{n}.csv"
            write = peak(lambda: ts.write_triplet_csv(matrix, path))
            read = peak(lambda: ts.read_triplet_csv(path)) - path.stat().st_size - 2 * columns
            margins.append((write, read))
        assert len(matrix.entries) == 99630
        for write, read in margins:
            assert write < 3 << 20 and read < 256 << 10
        (write_25k, read_25k), (write_100k, read_100k) = margins
        assert write_100k - write_25k < 1 << 20 and read_100k - read_25k < 64 << 10


class TestHashing:
    def test_equal_matrices_hash_equal(self):
        a = TollMatrix(3, {(2, 3): 1.5, (1, 2): 1.0})
        b = TollMatrix.from_triplets([(1, 2, 1.0), (2, 3, 1.5), (1, 1, 0.0)], n=3)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, TollMatrix(3, {(1, 2): 1.0})}) == 2

    def test_cached_columns_leave_equality_and_hash_alone(self):
        cached = TollMatrix(3, {(2, 3): 1.5, (1, 2): 1.0, (1, 1): 0.0})
        entry, exit, toll = cached.columns
        assert cached.columns is cached.columns
        assert (entry.tolist(), exit.tolist(), toll.tolist()) == ([1, 2], [2, 3], [1.0, 1.5])
        assert entry.dtype == exit.dtype == np.intp and toll.dtype == float
        assert not (entry.flags.writeable or exit.flags.writeable or toll.flags.writeable)
        fresh = TollMatrix(3, {(1, 2): 1.0, (2, 3): 1.5})
        assert "columns" not in vars(fresh)
        assert cached == fresh and hash(cached) == hash(fresh)
        assert len({cached, fresh}) == 1

    @pytest.mark.parametrize("build, backing", [
        (lambda: TollMatrix(3, {(2, 3): 1.5, (1, 2): 1.0}), MappingProxyType),
        (lambda: ts.random_matrix(20, seed=6), model._ColumnEntries),  # 210 trips
    ])
    def test_pickle_and_deepcopy_rebuild_an_equal_matrix(self, build, backing):
        matrix = build()
        assert type(matrix.entries) is backing
        for copied in (pickle.loads(pickle.dumps(matrix)), copy.deepcopy(matrix)):
            assert copied == matrix and hash(copied) == hash(matrix)
            assert copied.total == matrix.total
            assert list(copied.trips()) == list(matrix.trips())


def _handed_over(tmp_path):
    """Matrices whose columns come with them: read from files, one out of
    order with zero tolls, and drawn past ``_ARRAY_LANE_TRIPS`` cells."""
    drawn = ts.random_matrix(30, 0.5, seed=4)
    ts.write_triplet_csv(drawn, tmp_path / "drawn.csv")
    (tmp_path / "shuffled.csv").write_text("entry,exit,toll\n3,4,0\n2,3,1.5\n1,1,2\n2,2,0.0\n")
    return [
        drawn,
        ts.read_triplet_csv(tmp_path / "drawn.csv"),
        ts.read_triplet_csv(tmp_path / "shuffled.csv"),
        ts.read_triplet_csv(tmp_path / "shuffled.csv", n=9),
        ts.block_structured_matrix([range(1, 20), range(20, 41)], seed=2, density=0.4),
    ]


class TestHandedOverColumns:
    def test_columns_match_a_fresh_build(self, tmp_path):
        for matrix in _handed_over(tmp_path):
            assert "columns" in vars(matrix)
            fresh = TollMatrix(matrix.n, dict(matrix.entries))
            assert matrix == fresh and matrix.total == fresh.total
            for handed, built in zip(matrix.columns, fresh.columns):
                assert np.array_equal(handed, built) and handed.dtype == built.dtype
                assert not handed.flags.writeable
                with pytest.raises(ValueError):
                    handed[:1] = 0


def _array_built(tmp_path):
    """Matrices of at least ``_ARRAY_LANE_TRIPS`` trips built from arrays:
    read from a triplet file and drawn by the array sampler, with ``n`` a
    plain ``int`` and a numpy integer."""
    drawn = ts.random_matrix(40, 0.4, seed=8)
    ts.write_triplet_csv(drawn, tmp_path / "drawn.csv")
    return [drawn, ts.read_triplet_csv(tmp_path / "drawn.csv"),
            ts.random_matrix(np.int64(40), 0.4, seed=8),
            ts.read_triplet_csv(tmp_path / "drawn.csv", n=np.int64(41))]


class TestLazyEntries:
    """``entries`` of an array-built matrix is built from its columns on demand."""

    def test_equal_to_a_constructor_build(self, tmp_path):
        for matrix in _array_built(tmp_path):
            assert len(matrix.entries) >= model._ARRAY_LANE_TRIPS
            fresh = TollMatrix(matrix.n, dict(matrix.entries))
            assert matrix == fresh and fresh == matrix and hash(matrix) == hash(fresh)
            assert list(matrix.trips()) == list(fresh.trips())
            assert np.array_equal(matrix.diagonal(), fresh.diagonal())
            for method in (ts.ses, ts.sps, ts.scs):
                assert np.array_equal(method(matrix), method(fresh))
            ts.write_triplet_csv(matrix, tmp_path / "lazy.csv")
            ts.write_triplet_csv(fresh, tmp_path / "fresh.csv")
            assert (tmp_path / "lazy.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()

    def test_columns_serve_without_the_dict(self, tmp_path, monkeypatch):
        monkeypatch.setattr(model, "_trip_dict", mock.Mock(side_effect=AssertionError))
        monkeypatch.setattr(model, "_walk_triplet_csv", mock.Mock(side_effect=AssertionError))
        for matrix in _array_built(tmp_path):
            assert type(matrix.n) is int and "columns" in vars(matrix)
            assert len(matrix.entries) == len(matrix.columns.toll)
            assert model.array_lane(matrix) is matrix.columns
            assert matrix.diagonal().shape == (matrix.n,)
            for method in (ts.ses, ts.sps, ts.scs):
                method(matrix)
            ts.write_triplet_csv(matrix, tmp_path / "out.csv")
        assert not model._trip_dict.called

    def test_read_only(self, tmp_path):
        for matrix in _array_built(tmp_path):
            with pytest.raises(TypeError):
                matrix.entries[1, 1] = 5.0


#: One matrix from each builder, as ``build(tmp_path)``.
_BUILDS = {
    "constructor": lambda tmp: TollMatrix(3, {(1, 2): 1.0, (np.int64(2), 3.0): 2.0}),
    "from_triplets": lambda tmp: TollMatrix.from_triplets([(1, 2, 1.0), (np.int32(2), 3.0, 2.0)]),
    "from_dense": lambda tmp: TollMatrix.from_dense(np.triu(np.ones((3, 3)))),
    "triplet_csv": lambda tmp: ts.read_triplet_csv(
        _written(tmp / "t.csv", "entry,exit,toll\n1,2,1.5\n2,3,2\n")),
    # numpy rejects the quoted cell, so the row walk reads this file
    "triplet_csv_walk": lambda tmp: ts.read_triplet_csv(
        _written(tmp / "t.csv", 'entry,exit,toll\n1,2,"1.5"\n2,3,2\n')),
    "json": lambda tmp: ts.read_json(_written(
        tmp / "t.json", '{"n": 3, "trips": [{"entry": 1, "exit": 2, "toll": 1.5}]}')),
    "sampler_loop": lambda tmp: ts.random_matrix(5, 0.5, seed=1),
    "sampler_arrays": lambda tmp: ts.random_matrix(30, 0.5, seed=1),
    "add": lambda tmp: ts.random_matrix(30, 0.5, seed=1) + ts.random_matrix(30, 0.5, seed=2),
    "scaled": lambda tmp: ts.random_matrix(5, 0.5, seed=1).scaled(2.5),
}


@pytest.mark.parametrize("name", list(_BUILDS))
def test_every_key_is_a_plain_int_tuple(tmp_path, name):
    with mock.patch.object(model, "_walk_triplet_csv", wraps=model._walk_triplet_csv) as walk:
        matrix = _BUILDS[name](tmp_path)
    assert walk.called == (name == "triplet_csv_walk")
    if name.startswith("sampler"):  # the array lane hands its columns over
        assert ("columns" in vars(matrix)) == (name == "sampler_arrays")
    assert matrix.entries and all(_plain_key(key) for key in matrix.entries)


class TestSamplerDrawStream:
    """The shared sampler draws exactly what the former per-generator loops drew."""

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 17, 40])
    @pytest.mark.parametrize("density", [0.05, 0.3, 0.7, 1.0])
    def test_sample_matrix(self, n, density):
        for seed in range(4):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = ts.sample_matrix(rng, n, density=density, max_toll=7.5)
            assert drawn == sample_matrix_loop(ref_rng, n, density=density, max_toll=7.5)
            assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("blocks", [
        [range(1, 5)], [{1, 2}, {3}], [{3, 4}, {1}, {2}], [range(1, 4), range(4, 9)],
        [range(1, 2), range(2, 20), range(20, 41)],
    ])
    def test_block_structured_matrix(self, blocks):
        intervals = sorted((min(b), max(b)) for b in blocks)
        for seed in range(4):
            for density in (0.05, 0.3, 0.7, 1.0):
                assert ts.block_structured_matrix(blocks, seed=seed, density=density) == \
                    block_structured_loop(intervals, seed=seed, density=density)

    @pytest.mark.parametrize("cap", [1, 2, 7])
    def test_capped_chunks(self, monkeypatch, cap):
        monkeypatch.setattr(model, "_DRAW_CHUNK", cap)
        for n, density in ((1, 1.0), (6, 0.3), (13, 0.7), (20, 1.0)):
            rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
            drawn = ts.sample_matrix(rng, n, density=density)
            reference = sample_matrix_loop(ref_rng, n, density=density)
            assert drawn == reference
            assert list(drawn.entries) == list(reference.entries)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=300)
    @given(n=st.integers(1, 40),
           density=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
           seed=st.integers(0, 2**64 - 1))
    def test_chunked_draws_match_scalar_loop(self, n, density, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = ts.sample_matrix(rng, n, density=density)
        reference = sample_matrix_loop(ref_rng, n, density=density)
        assert drawn == reference
        assert list(drawn.entries) == list(reference.entries)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("cap", [1, 2, 7, 1 << 16])
    def test_loop_lane_leaves_the_generator_state_of_scalar_draws(self, monkeypatch, cap):
        monkeypatch.setattr(model, "_DRAW_CHUNK", cap)
        layouts = {n: [[(1, n)], [(1, 1), (2, n)], [(1, n // 2), (n // 2 + 1, n)]]
                   for n in (1, 2, 3, 5, 8)}
        for seed in range(120):
            n = (1, 2, 3, 5, 8)[seed % 5]
            blocks = layouts[n][seed // 5 % 3]
            for density in (0.3, 0.7, 1.0):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                drawn = model._sample(rng, n, blocks, density, 10.0)
                reference = sample_blocks_loop(ref_rng, n, blocks, density)
                assert drawn == reference
                assert list(drawn.entries) == list(reference.entries)
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("n", [1, 3, 8, 15, 16, 20])
    @pytest.mark.parametrize("density", [0.3, 0.7, 1.0])
    def test_keeps_the_buffered_half_of_a_bounded_draw(self, n, density):
        # a bounded integer draw leaves half of a 64-bit output buffered, as
        # every audit draw does before it samples
        layouts = ([(1, n)], [(1, 1), (2, n)] if n > 1 else [(1, 1)])
        for seed in range(8):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert rng.integers(seed + 2) == ref_rng.integers(seed + 2)
            assert rng.bit_generator.state["has_uint32"] == 1
            if seed % 2:
                blocks = layouts[seed // 2 % 2]
                drawn = model._sample(rng, n, blocks, density, 10.0)
                reference = sample_blocks_loop(ref_rng, n, blocks, density)
            else:
                drawn = ts.sample_matrix(rng, n, density=density)
                reference = sample_matrix_loop(ref_rng, n, density=density)
            assert list(drawn.trips()) == list(reference.trips())
            # the whole state, the buffered half (has_uint32, uinteger) included
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert rng.bit_generator.state["has_uint32"] == 1
            assert rng.integers(1 << 20, size=3).tolist() == ref_rng.integers(1 << 20, size=3).tolist()

    def test_draw_without_hits_past_the_array_threshold(self):
        n = 20
        assert n * (n + 1) // 2 >= model._ARRAY_LANE_TRIPS
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        drawn = ts.sample_matrix(rng, n, density=1e-12)
        assert drawn == TollMatrix.zero(n) == sample_matrix_loop(ref_rng, n, density=1e-12)
        assert drawn.total == 0.0 and all(len(column) == 0 for column in drawn.columns)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_array_lane_peak_stays_near_its_columns(self):
        # each chunk's hits become columns as they are drawn, so beside the
        # result the sampler holds its chunks' columns and one chunk of draws
        tracemalloc.start()
        try:
            matrix = ts.random_matrix(2000, density=0.2, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(matrix.entries) == 400140
        assert peak < 2.5 * sum(column.nbytes for column in matrix.columns)

    def test_overflowing_draw_raises_like_the_loop(self):
        with pytest.raises(ts.TollValidationError, match="largest float"):
            ts.random_matrix(20, max_toll=1e308)
        with pytest.raises(ts.TollValidationError, match="largest float"):
            sample_matrix_loop(np.random.default_rng(0), 20, max_toll=1e308)


def _assert_constructor_build(matrix):
    """``matrix`` is what the constructor builds from its own trips: equal,
    with the same hash, trip order and total bits, plain int keys and ``n``,
    and positive float tolls."""
    fresh = TollMatrix(matrix.n, dict(matrix.entries))
    assert matrix == fresh and fresh == matrix and hash(matrix) == hash(fresh)
    assert list(matrix.trips()) == list(fresh.trips())
    assert matrix.total.hex() == fresh.total.hex()
    assert type(matrix.n) is int and all(_plain_key(key) for key in matrix.entries)
    assert all(type(t) is float and t > 0.0 for t in matrix.entries.values())


def _derived(matrix, other, factor, segment):
    """Every matrix that a trusted builder derives from ``matrix`` and ``other``."""
    empty = other.scaled(0.0)
    derived = [matrix + other, other + matrix, matrix + empty, empty + other, empty,
               matrix.scaled(factor), axioms._drop_segment(matrix, segment),
               axioms._strip_diagonal(matrix)]
    if matrix.n >= 2:
        derived.append(axioms.blocked_matrix(other, min(segment, matrix.n - 1)))
    return derived


class TestTrustedBuilds:
    """Matrices built without the constructor's per-trip checks (the sampler's
    loop lane, ``+``, ``scaled`` and the axiom surgery helpers) are the
    matrices the constructor builds, and fail as it does."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 15), densities=st.tuples(*[st.sampled_from((0.3, 0.7, 1.0))] * 2),
           seed=st.integers(0, 2**64 - 1),
           factor=st.one_of(st.sampled_from([0.0, 5e-324, 1e-320, 0.5, np.float64(2.0), 3]),
                            st.floats(0.0, 1e300)),
           segment=st.integers(1, 15))
    def test_equal_to_constructor_builds(self, n, densities, seed, factor, segment):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = [ts.sample_matrix(rng, n, density=density) for density in densities]
        reference = [sample_matrix_loop(ref_rng, n, density=density) for density in densities]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert n * (n + 1) // 2 < model._ARRAY_LANE_TRIPS and "columns" not in vars(drawn[0])
        for matrix, expected in zip(drawn, reference):
            assert list(matrix.trips()) == list(expected.trips())
        for matrix in drawn + _derived(*drawn, factor, min(segment, n)):
            _assert_constructor_build(matrix)

    def test_underflow_and_tiny_tolls_are_dropped(self):
        matrix = TollMatrix(2, {(1, 1): 0.25, (1, 2): 3.0, (2, 2): 1.0})
        assert matrix.scaled(5e-324) == TollMatrix(2, {(1, 2): 1.5e-323, (2, 2): 5e-324})
        assert matrix.scaled(0.0) == TollMatrix.zero(2) == matrix.scaled(0)
        for drawn in (ts.random_matrix(8, max_toll=5e-324), ts.random_matrix(8, max_toll=1e-300),
                      ts.random_matrix(8, 0.5, max_toll=2.0**-1021)):
            _assert_constructor_build(drawn)
        assert len(ts.random_matrix(8, max_toll=5e-324).entries) < 36

    @pytest.mark.parametrize("factor", [math.inf, math.nan, 1e308])
    def test_non_finite_scaling_fails_as_the_constructor(self, factor):
        matrix = TollMatrix(3, {(1, 2): 3.0, (2, 3): 0.5, (3, 3): 7.0})
        with pytest.raises(ts.TollValidationError) as want:
            TollMatrix(matrix.n, {trip: factor * t for trip, t in matrix.trips()})
        with pytest.raises(ts.TollValidationError) as got:
            matrix.scaled(factor)
        assert (got.type, str(got.value)) == (want.type, str(want.value))

    @pytest.mark.parametrize("left, right", [
        ({(1, 2): 1e306}, {(1, 2): 1e306}),
        ({(1, 1): 1e306}, {(2, 2): 1e306}),
    ], ids=["one_trip_past_the_limit", "total_past_the_limit"])
    def test_overflowing_sum_fails_as_the_constructor(self, left, right):
        a, b = TollMatrix(2, left), TollMatrix(2, right)
        merged = dict(a.entries)
        for trip, t in b.trips():
            merged[trip] = merged.get(trip, 0.0) + t
        with pytest.raises(ts.TollValidationError) as want:
            TollMatrix(2, merged)
        with pytest.raises(ts.TollValidationError) as got:
            a + b
        assert (got.type, str(got.value)) == (want.type, str(want.value))

    def test_overflowing_loop_lane_draw_raises(self):
        assert 15 * 16 // 2 < model._ARRAY_LANE_TRIPS
        with pytest.raises(ts.TollValidationError, match="largest float"):
            ts.random_matrix(15, max_toll=1e308)
        with pytest.raises(ts.TollValidationError, match="largest float"):
            sample_matrix_loop(np.random.default_rng(0), 15, max_toll=1e308)

    def test_built_without_the_constructor(self, monkeypatch):
        rng = np.random.default_rng(4)
        pairs = [(ts.sample_matrix(rng, n, 0.3), ts.sample_matrix(rng, n, 1.0)) for n in (3, 8)]
        monkeypatch.setattr(TollMatrix, "__post_init__", mock.Mock(side_effect=AssertionError))
        built = [ts.sample_matrix(rng, n, density) for n in range(1, 9)
                 for density in (0.3, 0.7, 1.0)]
        built += [derived for matrix, other in pairs
                  for derived in _derived(matrix, other, 2.5, 3)]
        assert not TollMatrix.__post_init__.called
        monkeypatch.undo()
        for matrix in built:
            _assert_constructor_build(matrix)
