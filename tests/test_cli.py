"""End-to-end tests of the command-line interface."""

import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import tollshare as ts
from tollshare import cli
from tollshare import game as game_module
from tollshare import methods as methods_module
from tollshare.cli import _render
from tollshare.cli import main


@pytest.fixture
def example3_csv(tmp_path, example3):
    path = tmp_path / "example3.csv"
    ts.write_triplet_csv(example3, path)
    return str(path)


@pytest.fixture
def example61_csv(tmp_path, example61):
    path = tmp_path / "example61.csv"
    ts.write_triplet_csv(example61, path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAllocate:
    def test_json_document(self, capsys, example3_csv):
        code, out, _ = run(
            capsys, "allocate", "--input", example3_csv, "--no-timestamp"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["total"] == 2.0
        assert np.allclose(doc["allocations"]["ses"]["shares"], [5 / 6, 5 / 6, 1 / 3])
        assert doc["allocations"]["sps"]["percent"] == [40.0, 40.0, 20.0]

    def test_csv_layout(self, capsys, example3_csv):
        code, out, _ = run(
            capsys, "allocate", "--input", example3_csv, "--method", "ses",
            "--format", "csv", "--no-timestamp",
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "segment,share,percent"
        assert lines[1] == "1,0.8333333333333333,41.67"

    def test_csv_layout_multiple_methods(self, capsys, example3_csv):
        code, out, _ = run(
            capsys, "allocate", "--input", example3_csv, "--method", "ses,scs",
            "--format", "csv", "--no-timestamp",
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "method,segment,share,percent"

    def test_empty_input_gives_zero_table(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("entry,exit,toll\n")
        code, out, _ = run(
            capsys, "allocate", "--input", str(path), "--segments", "3",
            "--no-timestamp",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["allocations"]["scs"]["shares"] == [0.0, 0.0, 0.0]

    def test_unknown_method(self, capsys, example3_csv):
        code, _, err = run(
            capsys, "allocate", "--input", example3_csv, "--method", "bogus"
        )
        assert code == 2 and "bogus" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "allocate", "--input", "/nonexistent.csv")
        assert code == 2

    def test_reruns_are_byte_identical(self, capsys, example3_csv):
        _, first, _ = run(capsys, "allocate", "--input", example3_csv, "--no-timestamp")
        _, second, _ = run(capsys, "allocate", "--input", example3_csv, "--no-timestamp")
        assert first == second

    def test_timestamp_present_by_default(self, capsys, example3_csv):
        _, out, _ = run(capsys, "allocate", "--input", example3_csv)
        assert "timestamp" in json.loads(out)["metadata"]


class TestGame:
    def test_shapley_vector(self, capsys, example3_csv):
        code, out, _ = run(
            capsys, "game", "--input", example3_csv, "--solution", "shapley",
            "--no-timestamp",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["matches_method"] is True
        assert np.allclose(doc["vector"], [5 / 6, 5 / 6, 1 / 3])

    def test_tau_matches_proportional(self, capsys, example61_csv):
        code, out, _ = run(
            capsys, "game", "--input", example61_csv, "--solution", "tau",
            "--no-timestamp",
        )
        assert code == 0
        assert json.loads(out)["max_abs_diff"] <= 1e-9

    def test_oracle_limit(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        ts.write_triplet_csv(ts.random_matrix(23, density=0.2, seed=0), path)
        code, _, err = run(
            capsys, "game", "--input", str(path), "--solution", "shapley"
        )
        assert code == 2 and "exhaustive limit" in err

    @pytest.mark.parametrize("solution", ["shapley", "tau"])
    @pytest.mark.parametrize("limit", [(), ("--limit", "22"), ("--limit", "30")],
                             ids=["no_limit", "limit_22", "limit_30"])
    def test_oracle_ceiling_message_is_exact(self, capsys, tmp_path, solution, limit):
        path = tmp_path / "big.csv"
        ts.write_triplet_csv(ts.random_matrix(23, density=0.2, seed=0), path)
        code, out, err = run(
            capsys, "game", "--input", str(path), "--solution", solution, *limit
        )
        assert (code, out, err) == (2, "", "error: game has 23 segments; exhaustive limit is 22\n")

    @pytest.mark.parametrize("solution, method", [("shapley", "ses"), ("tau", "sps")])
    def test_ap68_oracles_run_by_default(self, capsys, solution, method):
        code, out, _ = run(
            capsys, "game", "--input", str(ts.ap68_path()), "--segments", "22",
            "--solution", solution, "--no-timestamp",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == method and doc["matches_method"] is True

    def test_oracle_ceiling_overrides_limit(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        ts.write_triplet_csv(ts.random_matrix(23, density=0.2, seed=0), path)
        for solution in ("shapley", "tau"):
            code, out, err = run(
                capsys, "game", "--input", str(path), "--solution", solution,
                "--limit", "30",
            )
            assert code == 2 and out == ""
            assert "exhaustive limit is 22" in err

    @pytest.mark.parametrize("solution", ["shapley", "tau"])
    def test_limit_below_the_game_refuses(self, capsys, example61_csv, solution):
        code, out, err = run(
            capsys, "game", "--input", example61_csv, "--solution", solution,
            "--limit", "3",
        )
        assert code == 2 and out == ""
        assert err == "error: game has 5 segments; exhaustive limit is 3\n"

    def test_average_tree_ignores_the_limit(self, capsys, example61_csv):
        code, out, _ = run(
            capsys, "game", "--input", example61_csv, "--solution", "at",
            "--limit", "1", "--no-timestamp",
        )
        assert code == 0 and json.loads(out)["matches_method"] is True

    def test_interval_grid_ceiling(self, capsys, tmp_path):
        path = tmp_path / "two.csv"
        ts.write_triplet_csv(ts.TollMatrix(3, {(1, 2): 3.0, (2, 3): 1.5}), path)
        code, out, err = run(capsys, "core", "--input", str(path), "--segments", "20000")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "interval sweep limit" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, where", [
        (["allocate", "--input", "two.csv", "--segments", "100000000"], "two.csv: segment count"),
        (["core", "--input", "two.csv", "--segments", "100000000"], "two.csv: segment count"),
        (["allocate", "--input", "far.csv"], "far.csv: segment count"),
        (["allocate", "--input", "huge_n.json"], "huge_n.json: segment count"),
        (["generate", "--n", "100000000000", "--output", "gen.csv"], "error: segment count"),
        (["generate", "--blocks", "1-100000000000", "--output", "gen.csv"],
         "error: --blocks '1-100000000000': segment 100000000000"),
    ], ids=["allocate_segments", "core_segments", "exit_index", "json_n", "generate_n",
            "generate_blocks"])
    def test_segment_ceiling(self, capsys, tmp_path, argv, where):
        # each count is refused before anything of its size is built
        ts.write_triplet_csv(ts.TollMatrix(3, {(1, 2): 3.0, (2, 3): 1.5}), tmp_path / "two.csv")
        (tmp_path / "far.csv").write_text("entry,exit,toll\n1,2,1\n5,100000000,2\n")
        (tmp_path / "huge_n.json").write_text('{"n": 100000000000, "trips": []}')
        argv = [str(tmp_path / arg) if "." in arg else arg for arg in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: ")
        assert where in err and str(ts.model.SEGMENT_CEILING) in err and "Traceback" not in err
        assert not (tmp_path / "gen.csv").exists()

    @pytest.mark.parametrize("argv, cells", [
        (["--n", "100000"], 5000050000),
        (["--n", "2048", "--density", "0.001"], 2098176),
        (["--blocks", "1-100000"], 5000050000),
    ], ids=["n", "sparse_n", "blocks"])
    def test_cell_ceiling(self, capsys, tmp_path, argv, cells):
        code, out, err = run(capsys, "generate", *argv, "--output", str(tmp_path / "gen.csv"))
        assert code == 2 and out == ""
        assert err == f"error: {cells} trips to draw for; the limit is {ts.model.CELL_CEILING}\n"
        assert not (tmp_path / "gen.csv").exists()

    def test_zero_tolerance_forces_mismatch_exit(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        ts.write_triplet_csv(ts.random_matrix(6, density=1.0, seed=3), path)
        code, out, _ = run(
            capsys, "game", "--input", str(path), "--solution", "tau",
            "--tol", "0", "--no-timestamp",
        )
        doc = json.loads(out)
        assert code == (0 if doc["max_abs_diff"] == 0.0 else 1)
        assert doc["max_abs_diff"] <= 1e-12

    @pytest.mark.parametrize("tol, vector", [
        ([], [1.000000005, 1.000000005]),
        (["--tol", "1e-6"], [1.0, 1.0]),
    ], ids=["default", "1e-6"])
    def test_tau_solves_at_the_reported_tolerance(self, capsys, tmp_path, tol, vector):
        # the utopia payoffs exceed the minimal rights (1, 1) by 2e-8 in sum: at
        # 1e-9 tau mixes the two, at 1e-6 they coincide and tau is (1, 1)
        path = tmp_path / "m.csv"
        path.write_text("entry,exit,toll\n1,1,1.0\n1,2,1e-8\n2,2,1.0\n")
        code, out, _ = run(capsys, "game", "--input", str(path), "--solution", "tau", *tol,
                           "--no-timestamp")
        doc = json.loads(out)
        tolerance = doc["metadata"]["tolerance"]
        game = ts.SegmentsGame(ts.read_triplet_csv(path))
        assert code == 0 and doc["vector"] == vector
        assert vector == ts.tau_value(game, tol=tolerance).tolist()


class TestCore:
    def test_unstable_example_violation(self, capsys, example61_csv):
        code, out, _ = run(
            capsys, "core", "--input", example61_csv, "--method", "sps",
            "--no-timestamp",
        )
        assert code == 0
        report = json.loads(out)["reports"]["sps"]
        assert report["is_member"] is False
        violation = report["violations"][0]
        assert violation["interval"] == [1, 2]
        assert violation["deficit"] == pytest.approx(0.182, abs=1e-3)
        assert report["criterion"]["satisfied"] is False
        assert report["criterion"]["worst_interval"] == [1, 2]

    def test_builds_the_game_once(self, capsys, example61_csv, monkeypatch):
        built = []
        init = ts.SegmentsGame.__init__

        def counting_init(game, matrix):
            built.append(matrix)
            init(game, matrix)

        monkeypatch.setattr(ts.SegmentsGame, "__init__", counting_init)
        code, _, _ = run(capsys, "core", "--input", example61_csv, "--no-timestamp")
        assert code == 0 and len(built) == 1

    @pytest.mark.parametrize("names, decompositions", [
        ("ses,sps,scs", 1), ("sps", 1), ("ses,scs", 0),
    ])
    def test_decomposes_once_for_the_sps_shares_and_criterion(self, capsys, example61_csv,
                                                               monkeypatch, names,
                                                               decompositions):
        calls = []
        decompose = ts.sps_decomposition

        def counting(matrix):
            calls.append(matrix)
            return decompose(matrix)

        for module in (cli, game_module, methods_module):
            monkeypatch.setattr(module, "sps_decomposition", counting)
        code, out, _ = run(capsys, "core", "--input", example61_csv, "--method", names,
                           "--no-timestamp")
        assert code == 0 and len(calls) == decompositions
        if decompositions:
            criterion = ts.sps_core_criterion(ts.read_triplet_csv(example61_csv))
            assert json.loads(out)["reports"]["sps"]["criterion"] == \
                json.loads(json.dumps(dataclasses.asdict(criterion)))

    def test_members_on_ap68(self, capsys):
        code, out, _ = run(
            capsys, "core", "--input", str(ts.ap68_path()), "--segments", "22",
            "--method", "ses,scs", "--no-timestamp",
        )
        assert code == 0
        reports = json.loads(out)["reports"]
        assert reports["ses"]["is_member"] and reports["scs"]["is_member"]

    def test_zero_matrix_member(self, capsys, tmp_path):
        path = tmp_path / "zero.csv"
        ts.write_triplet_csv(ts.TollMatrix.zero(3), path)
        code, out, _ = run(
            capsys, "core", "--input", str(path), "--segments", "3", "--no-timestamp"
        )
        assert code == 0
        assert all(r["is_member"] for r in json.loads(out)["reports"].values())


class TestAxioms:
    def test_builtin_methods_pass(self, capsys):
        code, out, _ = run(
            capsys, "axioms", "--trials", "25", "--seed", "1", "--no-timestamp"
        )
        assert code == 0
        verdicts = json.loads(out)["verdicts"]
        for method, anchored in ts.ANCHORED_AXIOMS.items():
            for axiom in anchored:
                assert verdicts[method][axiom] is True

    def test_counterexample_reported_without_failing_exit(self, capsys):
        code, out, _ = run(
            capsys, "axioms", "--method", "A2_zero", "--trials", "10",
            "--no-timestamp",
        )
        assert code == 0  # no anchored expectations for counterexamples
        assert json.loads(out)["verdicts"]["A2_zero"]["efficiency"] is False

    def test_harness_mode(self, capsys):
        code, out, _ = run(
            capsys, "axioms", "--harness", "--trials", "20", "--no-timestamp"
        )
        assert code == 0
        rows = json.loads(out)["harness"]
        assert len(rows) == 11

    @pytest.mark.parametrize("extra, digest", [
        (["--trials", "40", "--seed", "0"],
         "fb7cf8439df20225331721858c25a54bb2badf265f7f644170b09411a8dde5ca"),
        (["--harness", "--trials", "40", "--seed", "0"],
         "a65bcb465c77d0300df8d520a3080389217c036c720556743397a09a1dc0ba98"),
        # the benchmark's audit workload
        (["--trials", "200", "--seed", "11"],
         "3fd6ab69985691993d88fe899b38af77e5c560436c0d4224d2b1f63000b0251e"),
        (["--harness", "--trials", "200", "--seed", "11"],
         "4e93ca28b20679f5a36abdff1b49ddf6076421baff633ef2ca1e192924a78f0e"),
    ])
    def test_golden_output(self, capsys, extra, digest):
        # pins the whole draw stream of the seeded instances, not only verdicts
        code, out, _ = run(capsys, "axioms", *extra, "--no-timestamp")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_markdown_table(self, capsys):
        code, out, _ = run(
            capsys, "axioms", "--method", "ses", "--trials", "10",
            "--format", "markdown", "--no-timestamp",
        )
        assert code == 0
        assert out.startswith("| axiom | ses |")

    def test_failed_anchored_axiom_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(ts.axioms, "ANCHORED_AXIOMS", {"ses": ("indifference_to_extensions",)})
        code, out, err = run(capsys, "axioms", "--method", "ses", "--trials", "3",
                             "--no-timestamp")
        assert code == 1
        assert json.loads(out)["verdicts"]["ses"]["indifference_to_extensions"] is False
        assert err == "expected axiom failed: ses / indifference_to_extensions\n"

    def test_harness_mismatch_exits_1(self, capsys, monkeypatch):
        # claim a failure that never happens: ses is efficient
        fake = (ts.axioms.Characterization("fake", ("efficiency",), {"ses": "efficiency"}),)
        monkeypatch.setattr(ts.axioms, "CHARACTERIZATIONS", fake)
        code, out, err = run(capsys, "axioms", "--harness", "--trials", "3")
        assert code == 1 and out == ""
        assert err.startswith("harness mismatch: ")


class TestEquity:
    def test_ap68_summary(self, capsys):
        code, out, _ = run(
            capsys, "equity", "--input", str(ts.ap68_path()), "--segments", "22",
            "--no-timestamp",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["gini"]["sps"] < doc["gini"]["ses"] < doc["gini"]["scs"]
        assert doc["correlations"]["ses-sps"]["spearman"] == pytest.approx(0.947, abs=1e-3)

    def test_table_repeats_json_correlations(self, capsys, tmp_path):
        source = ["--input", str(ts.ap68_path()), "--segments", "22",
                  "--method", "sps,ses,scs", "--no-timestamp"]
        code, out, _ = run(capsys, "equity", *source)
        assert code == 0
        correlations = json.loads(out)["correlations"]
        code, out, _ = run(capsys, "equity", *source, "--format", "csv")
        assert code == 0
        table = {row[0]: row[1:] for row in
                 (line.split(",") for line in out.splitlines()
                  if not line.startswith("#"))}
        names = ["sps", "ses", "scs"]
        for pos, a in enumerate(names):
            for other, b in enumerate(names):
                if pos < other:
                    pair = correlations[f"{a}-{b}"]
                    assert table[a][other] == f"{pair['pearson']:.3f}"
                    assert table[b][pos] == f"{pair['spearman']:.3f}"

    def test_two_segments_give_exact_unit_correlations(self, capsys, tmp_path):
        path = tmp_path / "two.csv"
        ts.write_triplet_csv(ts.TollMatrix(2, {(1, 1): 1.0, (1, 2): 3.0, (2, 2): 5.0}), path)
        code, out, _ = run(capsys, "equity", "--input", str(path), "--no-timestamp")
        assert code == 0
        correlations = json.loads(out)["correlations"]
        assert len(correlations) == 3
        for pair in correlations.values():
            assert pair == {"spearman": 1.0, "pearson": 1.0}

    def test_equal_allocation_gini_zero(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        ts.write_triplet_csv(ts.TollMatrix.unit(1, 4, 4), path)
        code, out, _ = run(
            capsys, "equity", "--input", str(path), "--method", "ses",
            "--no-timestamp",
        )
        assert code == 0
        assert json.loads(out)["gini"]["ses"] == 0.0

    def test_lorenz_export(self, capsys, tmp_path, example3_csv):
        prefix = str(tmp_path / "lorenz-")
        code, _, _ = run(
            capsys, "equity", "--input", example3_csv, "--method", "ses,scs",
            "--lorenz-out", prefix, "--no-timestamp",
        )
        assert code == 0
        ses_points = (tmp_path / "lorenz-ses.csv").read_text().splitlines()
        assert ses_points[0] == "p,L"
        assert len(ses_points) == 5  # header + n+1 points


class TestGenerate:
    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(
                capsys, "generate", "--n", "6", "--density", "0.5",
                "--seed", "9", "--output", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_block_generation(self, capsys, tmp_path):
        path = tmp_path / "blocks.csv"
        code, _, _ = run(
            capsys, "generate", "--blocks", "1-2,3-4", "--seed", "4",
            "--output", str(path),
        )
        assert code == 0
        matrix = ts.read_triplet_csv(path, n=4)
        assert matrix.toll(2, 3) == 0.0

    def test_bulk_sized_file_digest(self, capsys, tmp_path):
        # the benchmark's bulk input; first recorded with the csv.writer writer
        path = tmp_path / "bulk.csv"
        code, _, _ = run(capsys, "generate", "--n", "500", "--density", "0.2",
                         "--seed", "3", "--output", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "2e8c2844e34327a11cd3917416a41ed19fd59b692d062c2380a82e572398dc77"

    def test_roundtrip_into_allocate(self, capsys, tmp_path):
        path = tmp_path / "gen.csv"
        run(capsys, "generate", "--n", "5", "--seed", "2", "--output", str(path))
        code, out, _ = run(capsys, "allocate", "--input", str(path), "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        total = doc["total"]
        for payload in doc["allocations"].values():
            assert sum(payload["shares"]) == pytest.approx(total, rel=1e-9)


    def test_n_defaults_to_8_without_blocks_and_to_their_end_with_them(self, capsys, tmp_path):
        def written(*argv):
            path = tmp_path / "gen.csv"
            assert run(capsys, "generate", *argv, "--output", str(path))[0] == 0
            return path.read_bytes()

        assert written() == written("--n", "8")
        assert written("--blocks", "1-2,3-5") == written("--n", "5", "--blocks", "1-2,3-5")

    @pytest.mark.parametrize("n", ["3", "1"])
    def test_n_that_differs_from_the_blocks_exits_2(self, capsys, tmp_path, n):
        path = tmp_path / "gen.csv"
        code, out, err = run(capsys, "generate", "--n", n, "--blocks", "1-2",
                             "--output", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: --n {n} conflicts with --blocks '1-2', which end at segment 2\n"
        assert not path.exists()

    def test_bulk_sized_file_into_a_missing_directory_exits_2(self, capsys, tmp_path,
                                                              monkeypatch, forks):
        monkeypatch.setattr(ts.model, "_worker_count", lambda: 2)
        path = tmp_path / "missing" / "bulk.csv"
        code, out, err = run(capsys, "generate", "--n", "500", "--density", "0.2",
                             "--seed", "3", "--output", str(path))
        assert (code, out) == (2, "") and "No such file or directory" in err
        assert forks == []

    def test_reports_never_build_the_trip_dict(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(ts.model, "_trip_dict", mock.Mock(side_effect=AssertionError))
        path = str(tmp_path / "gen.csv")
        assert run(capsys, "generate", "--n", "60", "--density", "0.2", "--output", path)[0] == 0
        assert len(ts.read_triplet_csv(path).entries) >= ts.model._ARRAY_LANE_TRIPS
        for command in ("allocate", "core", "equity"):
            assert run(capsys, command, "--input", path, "--no-timestamp")[0] == 0
        assert not ts.model._trip_dict.called


class TestRepeatedMethods:
    """A method named twice in ``--method`` is reported once, where its name
    first stands."""

    @pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
    @pytest.mark.parametrize("command", ["allocate", "core", "equity"])
    def test_report_is_that_of_each_name_once(self, capsys, example61_csv, command, fmt):
        def report(methods):
            code, out, _ = run(capsys, command, "--input", example61_csv, "--method", methods,
                               "--format", fmt, "--no-timestamp")
            assert code == 0
            return out

        assert report("sps,ses,sps,ses") == report("sps,ses")

    @staticmethod
    def _csv_rows(out: str) -> list[list[str]]:
        """The cells of a csv report's rows, past its metadata and header."""
        return [line.split(",") for line in out.splitlines() if not line.startswith("#")][1:]

    def test_allocate_lists_each_segment_once(self, capsys, example61_csv):
        _, out, _ = run(capsys, "allocate", "--input", example61_csv, "--method", "ses,ses",
                        "--format", "csv", "--no-timestamp")
        assert [row[0] for row in self._csv_rows(out)] == ["1", "2", "3", "4", "5"]

    def test_core_lists_each_report_once(self, capsys, example61_csv):
        _, out, _ = run(capsys, "core", "--input", example61_csv, "--method", "sps,ses,sps",
                        "--format", "csv", "--no-timestamp")
        assert [row[0] for row in self._csv_rows(out)].count("ses") == 1

    def test_equity_correlates_no_method_with_itself(self, capsys, example61_csv):
        _, out, _ = run(capsys, "equity", "--input", example61_csv, "--method", "ses,ses,scs",
                        "--no-timestamp")
        doc = json.loads(out)
        assert list(doc["correlations"]) == ["ses-scs"] and list(doc["gini"]) == ["ses", "scs"]


class TestReportDigests:
    """The rounded AP68 reports, pinned byte for byte."""

    @pytest.mark.parametrize("command, extra, fmt, digest", [
        ("core", [], "markdown",
         "5472b27c0df1d08fe6df64501caa04e58fd6455c0c2f3e6ed163af3753275da1"),
        ("core", [], "csv",
         "fc0dfc369fcff0810bc8b27be77f15bad1466ca25fd84d72c64a7d4b6739510f"),
        ("equity", [], "markdown",
         "03cdd40323d8e88e4e5f4c00dadde8085e4ee4c281e739696006b5e8f789f520"),
        ("equity", [], "csv",
         "b8609402cbb7ac38b468bcca4c1b75f6f751cde8678fb0d527af723b85c7d910"),
        # a repeated method counts once: these are the reports of ses,sps
        ("equity", ["--method", "ses,ses,sps"], "markdown",
         "d38c48e2ef153afcfbaca0aae6e01ef347cd74d212799ee9352df3cc99a561ca"),
        ("equity", ["--method", "ses,ses,sps"], "csv",
         "3b6f7d56846c9daf1bf35358b5fec4d4b89989f52ebf7ebb712df3a72d3a6ddc"),
        # the json report carries the correlations at full precision
        ("equity", [], "json",
         "04a329069399bd71e59a7a8ff29db4ea2fac715c8a63a6f711b3eb8b28f24b60"),
        ("allocate", [], "json",
         "09888308e5fb7717b7a28fad9787bd9e3abef594ab3571d7ca3503fce987b30f"),
        # sps's criterion carries its worst interval as a tuple
        ("core", [], "json",
         "1f5105cc5b7823ea99134566a1ffa3ca4270af1504fe7b2fabf4ce4948338507"),
        ("game", ["--solution", "at"], "json",
         "f49da78d99eb458c48ed791c1618a255f93141667e87b7db82d8b3fa2b26e49d"),
    ])
    def test_ap68_report(self, capsys, command, extra, fmt, digest):
        code, out, _ = run(
            capsys, command, "--input", str(ts.ap68_path()), "--segments", "22",
            *extra, "--format", fmt, "--no-timestamp",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


_FLOATS = st.floats() | st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")])
_LEAVES = (st.none() | st.booleans() | st.integers() | st.text() | _FLOATS
           | _FLOATS.map(np.float64))
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(st.text(), children)
                      # the renderer joins a list of floats in one piece
                      | st.lists(_FLOATS | _FLOATS.map(np.float64), min_size=1)
                      # and formats a list of float pairs, such as Lorenz points, in one piece
                      | st.lists(st.tuples(_FLOATS, _FLOATS).map(list)
                                 | st.tuples(_FLOATS, _FLOATS), min_size=1)),
    max_leaves=30,
)


class TestJsonRender:
    """The json report is the text of ``json.dumps(doc, indent=2)``."""

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(doc=_DOCUMENTS)
    @example(doc={"lorenz": {"ses": [[0.0, 0.0], [0.5, 0.25], [1.0, 1.0]], "sps": []}})
    @example(doc=[[0.0, float("nan")], [1.0, 1.0]])
    @example(doc=[[float("inf"), 0.5], [float("-inf"), 1.0]])
    @example(doc=[[0, 0.5], [1.0, 1]])
    @example(doc=[[True, 0.5], [1.0, False]])
    @example(doc=[(0.0, 0.5), [0.5, 1.0], (1.0, np.float64(1.0))])
    @example(doc=[[0.5], [0.0, 1.0]])
    @example(doc=[[0.0, 0.5, 1.0], [0.0, 1.0]])
    @example(doc=[[0.5], [0.0, 1.0, 2.0]])  # four cells, but not two pairs
    @example(doc=[[-0.0, 0.0], [0.0, -0.0]])
    @example(doc=[[[0.5], 1.0], [0.0, {"a": 1.0}]])
    @example(doc={"pairs": [], "nested": [[[0.1, 0.2], [0.3, 0.4]]]})
    def test_matches_json_dumps(self, doc):
        assert _render(doc, [], lambda: [], "json") == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("doc", [
        {"a": {1: [2.5], None: (), 0.5: {}}},
        [{"nested": {True: ["x", {"deep": [1.0, float("nan")]}]}}],
    ])
    def test_keys_that_are_not_str(self, doc):
        assert _render(doc, [], lambda: [], "json") == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("leaf", [{1, 2}, np.int64(3), np.bool_(True), b"x"])
    def test_unsupported_leaf_raises_as_json_does(self, leaf):
        doc = {"a": [1.0, {"b": leaf}]}
        with pytest.raises(TypeError) as expected:
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError, match=str(expected.value)):
            _render(doc, [], lambda: [], "json")

    @pytest.mark.parametrize("command, extra", [
        ("allocate", []), ("allocate", ["--method", "sps"]), ("core", []), ("equity", []),
        ("game", ["--solution", "at"]), ("axioms", ["--trials", "3"]),
        ("axioms", ["--harness", "--trials", "3"]),
    ])
    def test_json_builds_no_rows(self, capsys, example3_csv, command, extra):
        source = [] if command == "axioms" else ["--input", example3_csv]
        handed = []

        def render(doc, headers, rows, fmt):
            handed.append((headers, rows))
            return _render(doc, headers, lambda: pytest.fail("rows built for json"), fmt)

        with mock.patch("tollshare.cli._render", render):
            code, out, _ = run(capsys, command, *source, *extra, "--format", "json")
        assert code == 0 and json.loads(out)
        [(headers, rows)] = handed
        table = rows()
        assert table and all(len(row) == len(headers) for row in table)


def _loaded_by_cli_import(*packages: str) -> list[str]:
    """The modules of ``packages`` that ``import tollshare.cli`` loads in a
    fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = (f"import json, sys, tollshare.cli; roots = {packages!r}; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if any(m == root or m.startswith(root + '.') for root in roots))))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    return json.loads(result.stdout)


def test_cli_import_loads_no_scipy():
    """scipy is a test-only reference; the runtime must not import it."""
    assert _loaded_by_cli_import("scipy") == []


def test_cli_import_loads_no_process_pools():
    """The axiom audit forks with ``os`` alone: the pool packages would add
    about a megabyte of RSS to every start."""
    assert _loaded_by_cli_import("multiprocessing", "concurrent.futures") == []


def test_cli_import_loads_no_numpy_strings():
    """``numpy.strings`` takes about 0.7 ms to load and no command needs it."""
    assert _loaded_by_cli_import("numpy.strings", "numpy._core.strings") == []


def _unrun_after(code: str) -> list[str]:
    """Which of ``axioms``, ``equity`` and ``game`` have not run their code
    after ``code`` runs in a fresh interpreter.  A module that has not run
    holds only the import system's dunder names; its ``__dict__`` is read
    past its class, whose attribute reads would load it."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    probe = (f"{code}\nimport json, sys\n"
             "print(json.dumps([m for m in ('axioms', 'equity', 'game') if all(k.startswith('__') "
             "for k in object.__getattribute__(sys.modules['tollshare.' + m], '__dict__'))]))")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    return json.loads(result.stdout.splitlines()[-1])


def test_cli_import_runs_no_axioms_game_or_equity():
    """A start compiles and runs only the modules the command needs."""
    assert _unrun_after("import tollshare.cli") == ["axioms", "equity", "game"]


@pytest.mark.parametrize("command, unrun", [
    (["allocate"], ["axioms", "equity", "game"]),
    (["core"], ["axioms", "equity"]),
    (["game", "--solution", "at"], ["axioms", "equity"]),
    (["equity"], ["axioms", "game"]),
])
def test_a_command_runs_only_the_modules_it_uses(tmp_path, command, unrun):
    argv = [*command, "--input", str(ts.ap68_path()), "--output", str(tmp_path / "report.json")]
    code = f"import tollshare.cli\nassert tollshare.cli.main({argv!r}) == 0"
    assert _unrun_after(code) == unrun


#: The names ``tollshare`` bound from its lazily loaded modules when it
#: imported them eagerly
_SERVED = {
    "axioms": (
        "ANCHORED_AXIOMS", "AXIOMS", "PreconditionNotMet", "axiom_matrix", "blocked_matrix",
        "check_additivity", "check_covariance", "check_efficiency",
        "check_indifference_to_extensions", "check_inessential_segment", "check_linearity",
        "check_segment_symmetry", "check_subhighway_efficiency",
        "check_toll_component_fairness", "check_toll_fairness", "check_weak_segment_symmetry",
        "check_weighted_segment_symmetry", "covariance_transform", "independence_harness",
        "replay",
    ),
    "equity": ("gini", "lorenz", "rank_correlations", "ranking"),
    "game": (
        "SegmentsGame", "average_tree_value", "compromise_bounds", "core_check",
        "core_check_exhaustive", "core_scheme_check", "shapley_value", "sps_core_criterion",
        "tau_value",
    ),
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in _SERVED.items() for n in names])
def test_package_serves_each_lazy_name_from_its_module(module, name):
    owner = sys.modules[f"tollshare.{module}"]
    assert getattr(ts, module) is owner
    assert getattr(ts, name) is getattr(owner, name)
    assert name in dir(ts)
    for statement in (f"from tollshare import {name}", "from tollshare import *"):
        namespace: dict = {}
        exec(statement, namespace)
        assert namespace[name] is getattr(owner, name)


def test_package_refuses_an_unknown_name():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        ts.frobnicate  # noqa: B018


class TestOptions:
    @pytest.mark.parametrize("command", ["allocate", "equity", "axioms"])
    def test_tol_only_where_it_is_read(self, example3_csv, command):
        source = [] if command == "axioms" else ["--input", example3_csv]
        with pytest.raises(SystemExit) as exc:
            main([command, *source, "--tol", "0.5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, extra", [
        ("core", []),
        ("equity", []),
        ("axioms", ["--trials", "5"]),
        # the harness runs its own methods, but a bad --method is still an error
        ("axioms", ["--harness", "--trials", "5"]),
    ])
    def test_unknown_method_exits_2(self, capsys, example3_csv, command, extra):
        source = [] if command == "axioms" else ["--input", example3_csv]
        code, out, err = run(capsys, command, *source, "--method", "bogus", *extra)
        assert code == 2 and out == "" and "bogus" in err

    @pytest.mark.parametrize("command", ["allocate", "core", "equity", "axioms"])
    def test_default_methods_are_the_named_three(self, example3_csv, command):
        source = [] if command == "axioms" else ["--input", example3_csv]
        assert cli._parser().parse_args([command, *source]).method == "ses,sps,scs"
        default = inspect.signature(ts.axiom_matrix).parameters["method_names"].default
        assert default == ("ses", "sps", "scs")


class TestMalformedInput:
    """Malformed input ends in a typed error with exit code 2, not a traceback."""

    @pytest.mark.parametrize("name, text, extra, where", [
        ("no_trips.json", '{"n": 3}', [], "no_trips.json"),
        ("bad_exit.json", '{"n": 3, "trips": [{"entry": 1, "exit": "a", "toll": 1.0}]}', [],
         "bad_exit.json"),
        ("grid.csv", "0,1\n0,abc\n", ["--dense"], "grid.csv:2:"),
        ("neg_grid.csv", "0,-1\n0,0\n", ["--dense"], "neg_grid.csv:1: toll for trip [1,2]"),
        ("low_grid.csv", "0,0\n\n1,0\n", ["--dense"], "low_grid.csv:3: entry (2,1)"),
        ("frac_n.json", '{"n": 2.5, "trips": [{"entry": 1, "exit": 2, "toll": 1.0}]}', [],
         "frac_n.json: segment count"),
        ("inf_n.json", '{"n": Infinity, "trips": []}', [], "inf_n.json"),
        ("huge.csv", "entry,exit,toll\n1,3,1.7e308\n1,1,1.7e308\n", [], "huge.csv: the tolls"),
        # totals past the largest float / 100, where percents and tau overflowed
        ("edge.csv", "entry,exit,toll\n1,1,5e307\n1,2,6e307\n2,2,5e307\n", [],
         "edge.csv: the tolls"),
        ("edge.json", '{"n": 2, "trips": [{"entry": 1, "exit": 1, "toll": 5e307}, '
         '{"entry": 1, "exit": 2, "toll": 6e307}, {"entry": 2, "exit": 2, "toll": 5e307}]}', [],
         "edge.json: the tolls"),
        ("edge_grid.csv", "5e307,6e307\n0,5e307\n", ["--dense"], "edge_grid.csv: the tolls"),
        ("huge_toll.json", '{"n": 1, "trips": [{"entry": 1, "exit": 1, "toll": 1' + "0" * 400 + "}]}",
         [], "huge_toll.json: toll for trip [1,1] is not a number: 10"),
    ])
    def test_allocate_rejects_file(self, capsys, tmp_path, name, text, extra, where):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(capsys, "allocate", "--input", str(path), *extra)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and where in err and "Traceback" not in err

    @pytest.mark.parametrize("name, text, extra, where", [
        ("dup.csv", "entry,exit,toll\n1,2,1\n\n1,2,2\n", [], "dup.csv:4: trip [1,2]"),
        ("neg.csv", "entry,exit,toll\n1,2,-1\n", [], "neg.csv:2: toll"),
        ("inf.csv", "entry,exit,toll\n1,1,1\n1,2,inf\n", [], "inf.csv:3: toll"),
        ("range.csv", "entry,exit,toll\n1,3,1\n", ["--segments", "2"], "range.csv:2: trip"),
        ("neg.json", '{"n": 2, "trips": [{"entry": 1, "exit": 2, "toll": -1}]}', [],
         "neg.json: toll"),
    ])
    def test_allocate_names_file_of_bad_trip(self, capsys, tmp_path, name, text, extra, where):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(capsys, "allocate", "--input", str(path), *extra)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and where in err and "Traceback" not in err

    @pytest.mark.parametrize("name, data, extra", [
        ("long_toll.csv", b"entry,exit,toll\n1,2," + b"1" * 200_000 + b"\n", []),
        ("long_header.csv", b"entry" + b"x" * 200_000 + b",exit,toll\n1,2,3\n", []),
        ("long_cell.csv", b"0," + b"1" * 200_000 + b"\n0,0\n", ["--dense"]),
        ("not_utf8.csv", b"entry,exit,toll\n1,2,3\xff\n", []),
        ("not_utf8_grid.csv", b"entry,exit,toll\n1,2,3\xff\n", ["--dense"]),
    ], ids=["long_toll", "long_header", "long_cell", "not_utf8", "not_utf8_grid"])
    def test_unreadable_csv_is_a_typed_error(self, capsys, tmp_path, name, data, extra):
        # cells past the csv module's field limit, and bytes that are not UTF-8
        path = tmp_path / name
        path.write_bytes(data)
        code, out, err = run(capsys, "allocate", "--input", str(path), *extra)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}") and "Traceback" not in err
        reader = ts.read_dense_csv if extra else ts.read_triplet_csv
        with pytest.raises(ts.TollValidationError):
            reader(path)

    @pytest.mark.parametrize("name, text, extra", [
        ("long_header.csv", "entry" + "x" * 100_000 + ",exit,toll\n1,2,3\n", []),
        ("long_toll.csv", "entry,exit,toll\n1,2," + "x" * 100_000 + "\n", []),
        ("long_cell.csv", "0," + "x" * 100_000 + "\n0,0\n", ["--dense"]),
    ], ids=["long_header", "long_toll", "long_cell"])
    def test_long_cells_are_cut_in_errors(self, capsys, tmp_path, name, text, extra):
        # cells under the csv module's field limit, echoed in the message
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(capsys, "allocate", "--input", str(path), *extra)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}") and "..." in err and len(err.encode()) < 400

    def test_boolean_segment_count_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bool_n.json"
        path.write_text('{"n": true, "trips": [{"entry": 1, "exit": 1, "toll": 1.0}]}')
        code, out, err = run(capsys, "allocate", "--input", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}") and "Traceback" not in err

    def test_generate_rejects_blocks(self, capsys, tmp_path):
        path = tmp_path / "gen.csv"
        code, _, err = run(capsys, "generate", "--blocks", "a-b", "--output", str(path))
        assert code == 2 and "--blocks 'a-b'" in err and "Traceback" not in err
        assert not path.exists()


class TestParserReuse:
    """``main`` parses with one parser per process, and a parse leaves
    nothing behind for the next."""

    def test_main_builds_one_parser(self, capsys, example3_csv, monkeypatch):
        built = mock.Mock(wraps=cli.build_parser)
        monkeypatch.setattr(cli, "build_parser", built)
        cli._parser.cache_clear()
        try:
            for argv in (["allocate", "--input", example3_csv],
                         ["game", "--input", example3_csv, "--solution", "at"],
                         ["axioms", "--trials", "2"]):
                assert run(capsys, *argv)[0] == 0
            assert built.call_count == 1
        finally:
            cli._parser.cache_clear()
        assert cli.build_parser() is not cli.build_parser()

    @pytest.mark.parametrize("command, first", [
        ("allocate", ["--method", "ses", "--format", "csv"]),
        ("axioms", ["--harness", "--trials", "3"]),
    ])
    def test_second_run_matches_a_fresh_process(self, capsys, example3_csv, command, first):
        # the second run takes the defaults that the first one overrode
        source = [] if command == "axioms" else ["--input", example3_csv]
        parser = cli._parser()
        run(capsys, command, *source, *first, "--no-timestamp")
        code, out, err = run(capsys, command, *source, "--no-timestamp")
        assert cli._parser() is parser
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        fresh = subprocess.run([sys.executable, "-m", "tollshare.cli", command, *source,
                                "--no-timestamp"], env=env, capture_output=True, text=True)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


class TestRejectedOptions:
    @pytest.mark.parametrize("command, tol", [
        ("core", "-1"), ("core", "nan"), ("core", "inf"), ("game", "-1"), ("game", "-inf"),
    ])
    def test_bad_tolerance_exits_2(self, capsys, example3_csv, command, tol):
        extra = ["--solution", "at"] if command == "game" else []
        code, out, err = run(capsys, command, "--input", example3_csv, *extra, f"--tol={tol}")
        assert code == 2 and out == ""
        assert err == f"error: tolerance must be finite and non-negative, got {float(tol)!r}\n"

    @pytest.mark.parametrize("extra", [[], ["--harness"]])
    @pytest.mark.parametrize("trials", ["-5", "0"])
    def test_trials_below_one_exit_2(self, capsys, extra, trials):
        code, out, err = run(capsys, "axioms", *extra, "--trials", trials, "--method", "ses")
        assert code == 2 and out == ""
        assert err == f"error: trials must be at least 1, got {trials}\n"

    @pytest.mark.parametrize("extra", [[], ["--harness"]])
    def test_trials_past_the_ceiling_exit_2_before_any_cell(self, capsys, monkeypatch, extra):
        def unreachable(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(ts.axioms, "axiom_matrix", unreachable)
        monkeypatch.setattr(ts.axioms, "independence_harness", unreachable)
        trials = cli.TRIALS_CEILING + 1
        code, out, err = run(capsys, "axioms", *extra, "--trials", str(trials), "--method", "ses")
        assert code == 2 and out == ""
        assert err == f"error: trials must be from 1 to {cli.TRIALS_CEILING}, got {trials}\n"

    @pytest.mark.parametrize("extra", [[], ["--blocks", "1-2,3"]])
    def test_generate_rejects_a_negative_seed(self, capsys, tmp_path, extra):
        path = tmp_path / "gen.csv"
        code, out, err = run(capsys, "generate", "--seed", "-1", *extra, "--output", str(path))
        assert code == 2 and out == ""
        assert err == "error: seed must be a non-negative integer, got -1\n"
        assert not path.exists()

    @pytest.mark.parametrize("extra", [[], ["--blocks", "1-2,3"]])
    @pytest.mark.parametrize("max_toll", ["nan", "inf", "0"])
    def test_generate_names_a_bad_max_toll(self, capsys, tmp_path, extra, max_toll):
        path = tmp_path / "gen.csv"
        code, out, err = run(capsys, "generate", "--max-toll", max_toll, *extra,
                             "--output", str(path))
        assert code == 2 and out == ""
        assert err == f"error: max_toll must be positive and finite, got {float(max_toll)!r}\n"
        assert not path.exists()

    def test_generate_names_the_first_overlap_of_long_blocks(self, capsys, tmp_path):
        path = tmp_path / "gen.csv"
        code, out, err = run(capsys, "generate", "--blocks", "1-1048576,1-1048576",
                             "--output", str(path))
        assert code == 2 and out == "" and len(err.encode()) < 1024
        assert err == ("error: blocks do not partition the segment range: "
                       "block [1, 1048576] starts before 1048577\n")
        assert not path.exists()

    def test_generate_rejects_empty_blocks(self, capsys, tmp_path):
        path = tmp_path / "gen.csv"
        code, out, err = run(capsys, "generate", "--blocks", "", "--output", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: --blocks '': ") and not path.exists()

    def test_axioms_takes_a_negative_seed(self, capsys):
        code, out, _ = run(capsys, "axioms", "--seed", "-1", "--trials", "3", "--no-timestamp")
        assert code == 0 and json.loads(out)["metadata"]["seed"] == -1


#: Option values that a user may mistype: special floats, zero, a negative,
#: empty and odd strings.
_ODD = ("nan", "inf", "-inf", "0", "-1", "", " ", "x", "1e400", "0x10", "1,2", "½")

#: Segment counts stay small: a huge count allocates arrays of that size.
_COUNT = (("1", "2", "3", "5"), _ODD + ("40", "-7"))
_PATH = "path"  # a path under the test's directory
_FLAG = "flag"  # an option that takes no value
_INPUT = {"--input": _PATH, "--segments": _COUNT}
_COMMON = {"--format": (("json", "csv", "markdown"), ("xml", "")), "--output": _PATH,
           "--no-timestamp": _FLAG}
_METHOD = {"--method": (("ses", "sps,scs", "ses,sps,scs", " scs ", "ses,ses", "A2_zero,ses"),
                        ("", ",", "bogus", "A1_tilde,"))}
_TOL = {"--tol": (("1e-9", "0", "1e300"), _ODD + ("-0.0",))}
#: Per subcommand, each option and its (usual, odd) values.
_OPTIONS = {
    "allocate": {**_INPUT, **_METHOD, **_COMMON},
    "game": {**_INPUT, "--solution": (("shapley", "tau", "at"), ("x", "")),
             "--limit": (("1", "3", "16"), _ODD + ("-5",)), **_TOL, **_COMMON},
    "core": {**_INPUT, **_METHOD, **_TOL, **_COMMON},
    "axioms": {**_METHOD, "--harness": _FLAG, "--seed": (("3", str(2**70), "-5"), _ODD),
               "--trials": (("1", "2"), _ODD), **_COMMON},
    "equity": {**_INPUT, **_METHOD, "--lorenz-out": _PATH, **_COMMON},
    "generate": {"--n": _COUNT, "--density": (("0.5", "1", "1e-300"), _ODD + ("2",)),
                 "--max-toll": (("10", "1e308", "5e-324"), _ODD),
                 "--seed": (("3", str(2**70)), _ODD),
                 "--blocks": (("1-3,4-5", "1,2-3", "2"), ("1-2,2-3", "3-1", "0-2", "a-b", "1-",
                                                         "-", "1-2,,3", "")),
                 "--output": _PATH},
}

_TOLL = st.one_of(st.floats(0.0, 10.0), st.sampled_from((-1.0, 1.7e308, math.inf, math.nan)))


@st.composite
def _problem_file(draw, odd: bool) -> tuple[str, bytes, bool]:
    """A small triplet CSV, JSON export or dense grid: its suffix, its bytes
    and whether it is dense.  An odd one may hold bad trips and tolls, take
    the wrong reader or be cut short."""
    n = draw(st.integers(1, 5))
    index = st.integers(0, n + 1) if odd else st.integers(1, n)
    trips = {(h, k): t for (h, k), t in draw(st.dictionaries(
        st.tuples(index, index), _TOLL if odd else st.floats(0.0, 10.0), max_size=6)).items()
        if odd or h <= k}
    layout = draw(st.sampled_from(("triplet", "json", "dense")))
    if layout == "triplet":
        text = "entry,exit,toll\n" + "".join(f"{h},{k},{t!r}\n" for (h, k), t in trips.items())
    elif layout == "json":
        text = json.dumps({"n": n, "trips": [{"entry": h, "exit": k, "toll": t}
                                             for (h, k), t in trips.items()]})
    else:
        text = "".join(",".join(repr(trips.get((h, k), 0.0)) for k in range(1, n + 1)) + "\n"
                       for h in range(1, n + 1))
    data, dense = text.encode(), layout == "dense"
    if odd and draw(st.booleans()):
        dense = not dense
    if odd and draw(st.booleans()):
        data = data[:draw(st.integers(0, len(data)))] + draw(st.sampled_from((b"", b"\xff", b"x")))
    return ".json" if layout == "json" else ".csv", data, dense


_PRESENT = st.sampled_from((True,) * 7 + (False,))


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


@st.composite
def _invocation(draw, root: Path) -> list[str]:
    """An argv for one subcommand: each option is present with probability
    7/8, and at most two of them take an odd value."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    options = _OPTIONS[command]
    odd = draw(st.sets(st.sampled_from(sorted(options)), max_size=2))
    argv = [command]
    for flag, values in options.items():
        if not draw(_PRESENT):
            continue
        if values == _FLAG:
            argv.append(flag)
        elif flag == "--input":
            suffix, data, dense = draw(_problem_file(flag in odd))
            path = root / f"input{suffix}"
            path.write_bytes(data)
            if flag in odd and draw(st.booleans()):
                path = draw(st.sampled_from((root / "missing.csv", root)))
            argv += [flag, str(path)] + ["--dense"] * dense
        elif values == _PATH:
            path = root / ("lorenz-" if flag == "--lorenz-out" else "report.txt")
            if flag in odd:
                path = draw(st.sampled_from((root / "missing" / path.name, root)))
            argv += [flag, str(path)]
        else:
            argv += [flag, draw(st.sampled_from(values[flag in odd]))]
    return argv


class TestMalformedInvocations:
    """Whatever the options and the input, ``main`` exits 0, 1 or 2, an exit
    2 names the error, and a JSON report holds no NaN or Infinity."""

    @staticmethod
    def _invoke(argv: list[str], report: Path) -> tuple[int, str]:
        """``main``'s exit status and stderr for ``argv``, checked as above;
        ``report`` is where ``--output`` may write."""
        if report.is_file():  # an earlier example's
            report.unlink()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own exit, as the console script sees it
                code = exc.code
        assert code in (0, 1, 2), err.getvalue()
        if code == 2:
            assert any("error:" in line for line in err.getvalue().splitlines()), err.getvalue()
        elif argv[0] != "generate" and "json" == (argv[argv.index("--format") + 1]
                                                  if "--format" in argv else "json"):
            text = report.read_text() if report.is_file() else out.getvalue()
            if text:  # a harness mismatch writes no report
                json.loads(text, parse_constant=_refuse_constant)
        return code, err.getvalue()

    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_status_and_message(self, tmp_path, data):
        self._invoke(data.draw(_invocation(tmp_path), label="argv"), tmp_path / "report.txt")

    #: The largest total the range rule accepts on up to 100 segments: 100
    #: times it is the largest float, 100 times the next float is not
    _EDGE = 1.7976931348623156e306

    @settings(max_examples=120, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_tolls_at_the_range_edge_run_as_far_from_it(self, tmp_path, data):
        # the drawn invocations above reach a report in few draws and never
        # at the edge; here every file is well formed and its total sits
        # within two floats of the edge, on either side.  ``_invoke`` checks
        # that a JSON report holds no NaN or Infinity.
        command = data.draw(st.sampled_from((
            ["allocate"], ["core"], ["equity"], ["game", "--solution", "shapley"],
            ["game", "--solution", "tau"], ["game", "--solution", "at"])), label="command")
        n = data.draw(st.integers(2, 6), label="n")
        cells = [(h, k) for h in range(1, n + 1) for k in range(h, n + 1)]
        trips = data.draw(st.lists(st.sampled_from(cells), min_size=1, max_size=6, unique=True),
                          label="trips")
        weights = data.draw(st.lists(st.integers(1, 4), min_size=len(trips),
                                     max_size=len(trips)), label="weights")
        total = self._EDGE
        for _ in range(steps := data.draw(st.integers(-2, 2), label="floats past the edge")):
            total = math.nextafter(total, math.inf)
        for _ in range(-steps):
            total = math.nextafter(total, 0.0)
        tolls = [total * w / sum(weights) for w in weights]
        path, report = tmp_path / data.draw(st.sampled_from(("edge.csv", "edge.json"))), \
            tmp_path / "report.txt"
        outcomes = []
        for scale in (2.0 ** -1000, 1.0):  # the same problem far from the edge, then at it
            scaled = [(h, k, t * scale) for (h, k), t in zip(trips, tolls)]
            path.write_text(json.dumps({"n": n, "trips": [
                {"entry": h, "exit": k, "toll": t} for h, k, t in scaled]})
                if path.suffix == ".json" else
                "entry,exit,toll\n" + "".join(f"{h},{k},{t!r}\n" for h, k, t in scaled))
            outcomes.append(self._invoke([*command, "--input", str(path), "--segments", str(n),
                                          "--output", str(report)], report))
        (far_code, far_err), (code, err) = outcomes
        if err != f"error: {path}: the tolls add up to more than the largest float / 100\n":
            # not refused by the range rule: the edge runs as the scaled-down
            # problem does (a constant allocation is refused at any scale)
            assert (code, err) == (far_code, far_err)
        else:
            assert code == 2

    @pytest.mark.parametrize("argv", [
        ["allocate"], ["core"], ["equity"], ["game", "--solution", "shapley"],
        ["game", "--solution", "tau"], ["game", "--solution", "at"],
        ["generate", "--n", "12", "--max-toll", "1e306", "--seed", "1"],
    ], ids=["allocate", "core", "equity", "shapley", "tau", "at", "generate"])
    def test_totals_past_the_range_rule_exit_2(self, tmp_path, argv):
        # a total of 1.6e308 on 2 segments, and 3.9e307 drawn on 12: percents
        # overflowed to Infinity, and the tau value missed sps by 10.6%
        edge, report = tmp_path / "edge.csv", tmp_path / "report.txt"
        edge.write_text("entry,exit,toll\n1,1,5e307\n1,2,6e307\n2,2,5e307\n")
        source = ["--output", str(report)] if argv[0] == "generate" else ["--input", str(edge)]
        code, err = self._invoke([*argv, *source], report)
        where = "" if argv[0] == "generate" else f"{edge}: "
        assert code == 2
        assert err == f"error: {where}the tolls add up to more than the largest float / 100\n"
        assert not report.exists()
