"""The three benchmark workloads and the checks on their outputs.

Each workload is a list of operations that one round runs in order.  An
operation is one ``tollshare`` CLI command, called in-process through
``tollshare.cli.main(argv)`` with ``--no-timestamp --output <file>``, or one
library call.  Every operation carries a check; an operation fails when it
raises, returns an unexpected exit code, or fails its check.

* ``bulk``: ``generate --n 500 --density 0.2`` writes about 25k trips, then
  ``allocate``, ``core`` and ``equity`` read that file.  Parsing, validation,
  the three methods and the O(n^2) interval game dominate; there is no 2^n
  enumeration and no axiom work.
* ``oracle``: the bundled 22-segment AP68 case study through ``allocate``,
  ``core``, ``equity`` and ``game --solution at``; the 2^18 Shapley and tau
  enumerations on a seeded 18-segment problem; and ``core_check_exhaustive``
  on a seeded 16-segment matrix.  Coalition enumeration in ``game``
  dominates; ``model`` and ``methods`` see at most a few hundred trips.
* ``audit``: the axiom grid and the independence harness, about 10.7k checked
  instances on matrices with at most 8 segments, so per-call overhead
  dominates.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

#: sha256 of the bundled AP68 fixture, recorded here so that a change to the
#: fixture and its in-package checksum together still shows.
AP68_SHA256 = "e02fa96f99c66f9294966e56aa8784607bdc4efd73a05f322a7d2e6ee5579c15"
AP68_SEGMENTS = 22

BULK_N = 500
BULK_DENSITY = 0.2
#: Shapley and tau enumerate 2^18 coalitions, which keeps a round near one
#: seconds; AP68's 2^22 takes about 16 s, too few rounds for a steady median.
ORACLE_N = 18
ORACLE_DENSITY = 0.7
EXHAUSTIVE_N = 16
EXHAUSTIVE_DENSITY = 0.7
TRIALS = 200
METHODS = "ses,sps,scs"
REL_TOL = 1e-9


@dataclass
class Op:
    """One timed call.  ``call`` returns what ``check`` inspects; ``check``
    returns a list of problems.  ``fingerprint`` gives the bytes of the
    output, which must not change between rounds."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    fingerprint: Callable[[object], bytes]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    inputs: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def reference_triplet_csv(n: int, density: float, seed: int, max_toll: float = 10.0) -> bytes:
    """Bytes that ``tollshare generate`` must write for a random problem.

    Written independently of the package: cells ``(h, k)`` with
    ``1 <= h <= k <= n`` are visited in row order, each occupied when a
    uniform draw falls below ``density``, with toll ``max_toll * (1 - u)``
    from a second draw; rows are ``entry,exit,repr(toll)`` with CRLF line
    ends.  It pins the draw stream of ``random_matrix``.
    """
    draw = np.random.default_rng(seed).random
    parts = ["entry,exit,toll\r\n"]
    for h in range(1, n + 1):
        for k in range(h, n + 1):
            if draw() < density:
                parts.append(f"{h},{k},{max_toll * (1.0 - draw())!r}\r\n")
    return "".join(parts).encode()


# -- checks -----------------------------------------------------------------

def _exit_code_zero(rc: object) -> list[str]:
    return [] if rc == 0 else [f"exit code {rc}, expected 0"]


def _json_check(path: Path, inspect: Callable[[dict], list[str]]) -> Callable[[object], list[str]]:
    def check(rc: object) -> list[str]:
        return _exit_code_zero(rc) or inspect(json.loads(path.read_text()))
    return check


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), math.ulp(1.0))


def _allocations_sum_to_total(doc: dict) -> list[str]:
    problems = []
    for name in METHODS.split(","):
        shares = doc["allocations"][name]["shares"]
        if not _close(math.fsum(shares), doc["total"]):
            problems.append(f"{name} shares sum to {math.fsum(shares)!r}, total {doc['total']!r}")
    return problems


def _core_reports_consistent(doc: dict) -> list[str]:
    reports = doc["reports"]
    problems = [f"{name} is not in the core" for name in ("ses", "scs")
                if not reports[name]["is_member"]]
    sps = reports["sps"]
    if sps["is_member"] != sps["criterion"]["satisfied"]:
        problems.append(f"sps is_member {sps['is_member']} but criterion "
                        f"{sps['criterion']['satisfied']}")
    return problems


def _equity_in_range(doc: dict) -> list[str]:
    problems = [f"gini({name}) = {g!r}" for name, g in doc["gini"].items()
                if not 0.0 <= g < 1.0]
    for pair, corr in doc["correlations"].items():
        if not all(-1.0 <= corr[k] <= 1.0 for k in ("spearman", "pearson")):
            problems.append(f"correlation {pair} out of [-1, 1]: {corr}")
    return problems


def _game_matches(doc: dict) -> list[str]:
    if doc["matches_method"] is not True:
        return [f"{doc['solution']} differs from {doc['method']} by {doc['max_abs_diff']!r}"]
    return []


# -- workloads ----------------------------------------------------------------

def _cli(tollshare, argv: list[str]) -> Callable[[], object]:
    # looked up at call time, so that a traced or perturbed main is used
    return lambda: tollshare.cli.main(argv)


def _file_bytes(path: Path) -> Callable[[object], bytes]:
    return lambda _: path.read_bytes()


def _input_commands(tollshare, work: Path, source: Path, extra: list[str]) -> list[Op]:
    ops = []
    for command, inspect in (("allocate", _allocations_sum_to_total),
                             ("core", _core_reports_consistent),
                             ("equity", _equity_in_range)):
        out = work / f"{command}.json"
        argv = [command, "--input", str(source), *extra, "--method", METHODS,
                "--no-timestamp", "--output", str(out)]
        ops.append(Op(command, _cli(tollshare, argv), _json_check(out, inspect), _file_bytes(out)))
    return ops


def _bulk(tollshare, seed: int, work: Path) -> Workload:
    csv_path = work / "bulk.csv"
    expected = hashlib.sha256(reference_triplet_csv(BULK_N, BULK_DENSITY, seed)).hexdigest()

    def generated_file(rc: object) -> list[str]:
        if rc != 0:
            return _exit_code_zero(rc)
        digest = sha256_file(csv_path)
        return [] if digest == expected else [f"generated csv sha256 {digest}, expected {expected}"]

    argv = ["generate", "--n", str(BULK_N), "--density", str(BULK_DENSITY),
            "--seed", str(seed), "--output", str(csv_path)]
    ops = [Op("generate", _cli(tollshare, argv), generated_file, _file_bytes(csv_path))]
    ops += _input_commands(tollshare, work, csv_path, [])
    return Workload("bulk", ops, {"generated_csv_sha256": expected})


def _oracle(tollshare, seed: int, work: Path) -> Workload:
    ap68 = tollshare.datasets.ap68_path()
    digest = sha256_file(ap68)
    problems = [] if digest == AP68_SHA256 else [f"AP68 sha256 {digest}, expected {AP68_SHA256}"]
    extra = ["--segments", str(AP68_SEGMENTS)]
    ops = _input_commands(tollshare, work, ap68, extra)
    generated = work / "oracle.csv"
    generated.write_bytes(reference_triplet_csv(ORACLE_N, ORACLE_DENSITY, seed))
    oracle_input = ["--input", str(generated), "--limit", str(ORACLE_N)]
    for solution, op_name, source in (("at", "game_at", ["--input", str(ap68), *extra]),
                                      ("shapley", "shapley", oracle_input),
                                      ("tau", "tau", oracle_input)):
        out = work / f"{op_name}.json"
        argv = ["game", *source, "--solution", solution, "--no-timestamp", "--output", str(out)]
        ops.append(Op(op_name, _cli(tollshare, argv), _json_check(out, _game_matches),
                      _file_bytes(out)))

    # checked against the interval test, called through references taken
    # before any tracing or perturbation is installed
    interval_core_check = tollshare.game.core_check
    reference_game = tollshare.game.SegmentsGame
    reference_ses = tollshare.methods.ses

    def exhaustive() -> tuple:
        matrix = tollshare.model.random_matrix(EXHAUSTIVE_N, density=EXHAUSTIVE_DENSITY, seed=seed)
        game = tollshare.game.SegmentsGame(matrix)
        member, violating = tollshare.game.core_check_exhaustive(game, tollshare.methods.ses(matrix))
        return matrix, member, violating

    def agrees_with_interval_test(result: tuple) -> list[str]:
        matrix, member, violating = result
        interval = interval_core_check(reference_game(matrix), reference_ses(matrix)).is_member
        if member != interval:
            return [f"exhaustive core test says {member}, interval test says {interval}"]
        return []

    def result_bytes(result: tuple) -> bytes:
        return json.dumps(result[1:]).encode()

    ops.append(Op("core_exhaustive", exhaustive, agrees_with_interval_test, result_bytes))
    inputs = {"ap68_sha256": digest, "oracle_csv_sha256": sha256_file(generated)}
    return Workload("oracle", ops, inputs, problems)


def _audit(tollshare, seed: int, work: Path) -> Workload:
    ops = []
    for op_name, extra in (("axioms", []), ("harness", ["--harness"])):
        out = work / f"{op_name}.json"
        argv = ["axioms", *extra, "--trials", str(TRIALS), "--seed", str(seed),
                "--no-timestamp", "--output", str(out)]
        ops.append(Op(op_name, _cli(tollshare, argv), _exit_code_zero, _file_bytes(out)))
    return Workload("audit", ops)


_FACTORIES = {"bulk": _bulk, "oracle": _oracle, "audit": _audit}
WORKLOADS = tuple(_FACTORIES)
#: Names of all operations, over every workload.
COMMANDS = ("generate", "allocate", "core", "equity", "game_at", "shapley", "tau",
            "core_exhaustive", "axioms", "harness")


def build(name: str, tollshare, seed: int, work: Path) -> Workload:
    """Build workload ``name`` with its inputs under ``work``."""
    return _FACTORIES[name](tollshare, seed, work)

