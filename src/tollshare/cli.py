"""Command-line frontend.

Subcommands:

    allocate   per-segment shares and percentages for selected methods
    game       brute-force game solution vs. the matching closed-form method
    core       core-membership report for a method's allocation
    axioms     axiom verdict matrix, or the axiom-independence harness
    equity     Gini, Lorenz points and rank correlations between methods
    generate   seeded random or block-structured problem files

Outputs are deterministic for fixed inputs and seed; pass --no-timestamp
to make them byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, axioms, equity, game
from .errors import (
    HarnessMismatchError,
    InvalidToleranceError,
    InvalidTrialsError,
    OracleSizeError,
    TollShareError,
    TollValidationError,
    UnknownMethodError,
)
from .methods import METHODS, allocation_method, share_percentages, sps_decomposition
from .model import (
    DEFAULT_TOL,
    SEGMENT_CEILING,
    TollMatrix,
    allowance,
    block_structured_matrix,
    random_matrix,
    read_dense_csv,
    read_json,
    read_triplet_csv,
    write_triplet_csv,
)

#: What a report handler returns: body without metadata, headers, a callable
#: that builds the table rows, status
Report = tuple[dict, list[str], Callable[[], list[list]], int | str]

#: Most ``--trials``: one trial costs about 1.1 ms of one worker in ``axioms``
#: or ``axioms --harness`` (2,000 trials took 2.3 and 2.5 s, 2-vCPU host), so a
#: command commits at most about 75 s.
TRIALS_CEILING = 1 << 16

#: solution -> (solver(game, tol), the method it must reproduce).  A solver
#: reads its oracle off the lazily loaded ``game`` module when it runs.
#: ``--limit`` bounds every solver but the average-tree value, which reads
#: interval worths and enumerates no coalition.
_SOLUTIONS = {
    "shapley": (lambda played, tol: game.shapley_value(played), "ses"),
    "tau": (lambda played, tol: game.tau_value(played, tol=tol), "sps"),
    "at": (lambda played, tol: game.average_tree_value(played), "scs"),
}


def _metadata(args: argparse.Namespace) -> dict:
    meta = {"command": args.command, "tolerance": getattr(args, "tol", DEFAULT_TOL)}
    if getattr(args, "seed", None) is not None:
        meta["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        meta["trials"] = args.trials
    if not args.no_timestamp:
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    return meta


def _load_matrix(args: argparse.Namespace) -> TollMatrix:
    path = Path(args.input)
    if path.suffix.lower() != ".json" and not args.dense:
        return read_triplet_csv(path, n=args.segments)
    matrix = read_json(path) if path.suffix.lower() == ".json" else read_dense_csv(path)
    if args.segments is not None and args.segments != matrix.n:
        raise TollShareError(
            f"--segments {args.segments} conflicts with {matrix.n}-segment input"
        )
    return matrix


def _method_list(spec: str) -> list[str]:
    """The ``--method`` names in order, each once."""
    names = list(dict.fromkeys(name.strip() for name in spec.split(",") if name.strip()))
    if not names:
        raise UnknownMethodError(spec)
    for name in names:
        allocation_method(name)
    return names


def _json(value, pad: str = "") -> str:
    """The text ``json.dumps(value, indent=2)`` writes for ``value`` nested
    ``len(pad) // 2`` levels deep.

    Dicts with str keys, lists and tuples are laid out here, as ``json``
    lays them out with an indent (in pure Python).  A list of finite floats
    is one C-level join of ``float.__repr__``, which ``json`` writes for a
    float subclass such as ``np.float64`` too.  A list of pairs (lists or
    tuples of two finite floats), such as Lorenz points, is one C-level
    ``%`` format over those reprs.  Every other leaf, and a dict with a key
    that is not a str, goes to ``json.dumps``.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(key, str) for key in value):
            return json.dumps(value, indent=2).replace("\n", "\n" + pad)
        inner = pad + "  "
        return "{\n" + inner + (",\n" + inner).join(
            [f"{json.dumps(key)}: {_json(item, inner)}" for key, item in value.items()]
        ) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        sep = ",\n" + inner
        try:
            if all(isinstance(item, (list, tuple)) and len(item) == 2 for item in value):
                pair = "[\n" + inner + "  %s,\n" + inner + "  %s\n" + inner + "]"
                cells = tuple(map(float.__repr__, chain.from_iterable(value)))
                text = sep.join([pair] * len(value)) % cells
            else:
                text = sep.join(map(float.__repr__, value))
        except TypeError:  # an item that is not a float
            text = None
        if text is None or "n" in text:  # "inf" and "nan" are the reprs with an "n"
            text = sep.join([_json(item, inner) for item in value])
        return "[\n" + inner + text + "\n" + pad + "]"
    return json.dumps(value)


def _render(doc: dict, headers: list[str], rows: Callable[[], list[list]], fmt: str) -> str:
    if fmt == "json":
        return _json(doc) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        for key, value in doc["metadata"].items():
            buf.write(f"# {key}: {value}\n")
        writer = csv.writer(buf)
        writer.writerow(headers)
        writer.writerows(rows())
        return buf.getvalue()
    table = ["| " + " | ".join(headers) + " |", "| " + " | ".join("---" for _ in headers) + " |"]
    table += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows()]
    meta = ", ".join(f"{k}={v}" for k, v in doc["metadata"].items())
    return "\n".join(table) + f"\n\n_{meta}_\n"


def cmd_allocate(args: argparse.Namespace, matrix: TollMatrix, names: list[str]) -> Report:
    body: dict = {"n": matrix.n, "total": matrix.total, "allocations": {}}
    for name in names:
        shares = allocation_method(name)(matrix)
        body["allocations"][name] = {"shares": shares.tolist(),
                                     "percent": share_percentages(shares, matrix.total).tolist()}

    def rows() -> list[list]:
        table = [[name, i, repr(s), f"{p:.2f}"] for name in names for i, (s, p) in
                 enumerate(zip(body["allocations"][name]["shares"],
                               body["allocations"][name]["percent"]), start=1)]
        return table if len(names) > 1 else [row[1:] for row in table]

    headers = ["method", "segment", "share", "percent"]
    return body, headers if len(names) > 1 else headers[1:], rows, 0


def cmd_game(args: argparse.Namespace, matrix: TollMatrix, names: None) -> Report:
    solver, method_name = _SOLUTIONS[args.solution]
    played = game.SegmentsGame(matrix)
    if args.solution != "at" and args.limit is not None and matrix.n > args.limit:
        raise OracleSizeError(matrix.n, args.limit)
    vector = solver(played, args.tol)
    method_vector = allocation_method(method_name)(matrix)
    diff = float(np.max(np.abs(vector - method_vector)))
    matches = diff <= allowance(args.tol, matrix.total)
    body = {
        "solution": args.solution,
        "vector": vector.tolist(),
        "method": method_name,
        "matches_method": matches,
        "max_abs_diff": diff,
    }

    def rows() -> list[list]:
        return [[i, repr(v), repr(m)] for i, (v, m) in
                enumerate(zip(body["vector"], method_vector.tolist()), start=1)]

    return body, ["segment", args.solution, method_name], rows, 0 if matches else 1


def cmd_core(args: argparse.Namespace, matrix: TollMatrix, names: list[str]) -> Report:
    played = game.SegmentsGame(matrix)
    # the sps shares and the sps criterion start from one decomposition
    decomposition = sps_decomposition(matrix) if "sps" in names else None
    shares = [decomposition.shares() if name == "sps" else allocation_method(name)(matrix)
              for name in names]
    # one sweep of the interval worths tests every allocation and the criterion
    checked, criterion = game.interval_tests(played, shares, args.tol, decomposition)
    reports = dict(zip(names, checked))
    body: dict = {"reports": {}}
    for name, report in reports.items():
        payload = report.to_json_dict()
        if name == "sps":
            payload["criterion"] = asdict(criterion)
        body["reports"][name] = payload

    def rows() -> list[list]:
        table = []
        for name in names:
            report = reports[name]
            table += [[name, report.is_member, f"[{v.start},{v.end}]",
                       f"{v.value:.6f}", f"{v.allocated:.6f}", f"{v.deficit:.6f}"]
                      for v in report.violations] or [[name, report.is_member, "-", "-", "-", "-"]]
        return table

    return body, ["method", "is_member", "interval", "value", "allocated", "deficit"], rows, 0


def cmd_axioms(args: argparse.Namespace, matrix: None, names: list[str] | None) -> Report:
    if args.harness:
        table = axioms.independence_harness(trials=args.trials, seed=args.seed)
        body = {"harness": [
            {"characterization": row.characterization, "method": row.method,
             "failed_axiom": row.failed_axiom, "verdicts": dict(row.verdicts)}
            for row in table
        ]}

        def rows() -> list[list]:
            return [[row.characterization, row.method, row.failed_axiom,
                     " ".join(f"{a}={'pass' if ok else 'FAIL'}" for a, ok in row.verdicts.items())]
                    for row in table]

        return body, ["characterization", "method", "failed_axiom", "verdicts"], rows, 0
    grid = axioms.axiom_matrix(names, axioms.AXIOMS, trials=args.trials, seed=args.seed)
    body = {"verdicts": {name: {axiom: grid[name][axiom].holds for axiom in axioms.AXIOMS}
                         for name in names}}

    def rows() -> list[list]:
        return [[axiom] + ["pass" if grid[name][axiom].holds else "FAIL" for name in names]
                for axiom in axioms.AXIOMS]

    failed = "".join(f"expected axiom failed: {name} / {axiom}\n" for name in names
                     for axiom in axioms.ANCHORED_AXIOMS.get(name, ()) if not grid[name][axiom].holds)
    return body, ["axiom"] + list(names), rows, failed or 0


def cmd_equity(args: argparse.Namespace, matrix: TollMatrix, names: list[str]) -> Report:
    allocations = {name: allocation_method(name)(matrix) for name in names}
    body: dict = {"gini": {}, "correlations": {}, "lorenz": {}}
    for name, shares in allocations.items():
        body["gini"][name] = equity.gini(shares)
        body["lorenz"][name] = [[p, L] for p, L in equity.lorenz(shares).points]
    for pos, a in enumerate(names):
        for b in names[pos + 1 :]:
            spearman, pearson = equity.rank_correlations(allocations[a], allocations[b])
            body["correlations"][f"{a}-{b}"] = {"spearman": spearman, "pearson": pearson}

    def rows() -> list[list]:
        # triangular agreement table: Spearman below the diagonal, Pearson above
        correlations = body["correlations"]
        table = [[a] + ["-" if a == b
                        else f"{correlations[f'{b}-{a}']['spearman']:.3f}"
                        if names.index(a) > names.index(b)
                        else f"{correlations[f'{a}-{b}']['pearson']:.3f}" for b in names]
                 for a in names]
        return table + [[f"gini({name})", f"{body['gini'][name]:.6f}"] + [""] * (len(names) - 1)
                        for name in names]

    return body, ["method"] + list(names), rows, 0


def _write_lorenz(prefix: str, curves: dict) -> None:
    for name, points in curves.items():
        with open(Path(f"{prefix}{name}.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["p", "L"])
            writer.writerows(points)


def _parse_blocks(spec: str) -> list[range]:
    """The ``--blocks`` ranges.  An end past ``SEGMENT_CEILING`` is refused
    here, under the option's name."""
    blocks = []
    try:
        for part in spec.split(","):
            start, _, end = part.partition("-")
            start, end = int(start), int(end or start)
            if end > SEGMENT_CEILING:
                raise ValueError(f"segment {end} is past the limit of {SEGMENT_CEILING} segments")
            blocks.append(range(start, end + 1))
    except ValueError as exc:
        raise TollValidationError(f"--blocks {spec!r}: {exc}") from exc
    return blocks


def cmd_generate(args: argparse.Namespace) -> int:
    options = dict(seed=args.seed, density=args.density, max_toll=args.max_toll)
    if args.blocks is None:
        matrix = random_matrix(8 if args.n is None else args.n, **options)
    else:
        matrix = block_structured_matrix(_parse_blocks(args.blocks), **options)
        if args.n is not None and args.n != matrix.n:
            raise TollShareError(f"--n {args.n} conflicts with --blocks {args.blocks!r}, "
                                 f"which end at segment {matrix.n}")
    write_triplet_csv(matrix, args.output)
    return 0


#: One row per report command: name, handler, help, reads ``--input``, takes
#: ``--method``, reads ``--tol``, seeded, and the command's own options.
_REPORTS = (
    ("allocate", cmd_allocate, "per-segment toll shares", True, True, False, False, ()),
    ("game", cmd_game, "compare a game solution with its method", True, False, True, False, (
        ("--solution", dict(choices=sorted(_SOLUTIONS), required=True)),
        ("--limit", dict(type=int, help="refuse a larger shapley or tau game")),
    )),
    ("core", cmd_core, "core-membership reports", True, True, True, False, ()),
    ("axioms", cmd_axioms, "axiom verdict matrix / independence harness",
     False, True, False, True, (
         ("--harness", dict(action="store_true",
                            help="run the axiom-independence harness instead")),
     )),
    ("equity", cmd_equity, "Gini / Lorenz / correlations", True, True, False, False, (
        ("--lorenz-out", dict(help="prefix for per-method p,L CSV files")),
    )),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tollshare", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, help_, reads_input, takes_method, takes_tol, seeded, options in _REPORTS:
        p = sub.add_parser(name, help=help_)
        if reads_input:
            p.add_argument("--input", required=True, help="triplet CSV (or .json export)")
            p.add_argument("--segments", type=int, default=None,
                           help="override the segment count of a triplet file")
            p.add_argument("--dense", action="store_true",
                           help="read --input as a dense n-by-n CSV grid")
        if takes_method:
            p.add_argument("--method", default=",".join(METHODS))
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.add_argument("--format", choices=("csv", "json", "markdown"), default="json")
        p.add_argument("--output", help="write the report here instead of stdout")
        if takes_tol:
            p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp for byte-identical reruns")
        if seeded:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--trials", type=int, default=200)
        p.set_defaults(report=handler)

    p = sub.add_parser("generate", help="write a seeded random problem file")
    p.add_argument("--n", type=int, help="segments (default 8, or where --blocks end)")
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--max-toll", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--blocks", help="contiguous blocks, e.g. 1-3,4-5")
    p.add_argument("--output", required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # one per process: a parse makes a fresh namespace and leaves the parser as it was
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if "tol" in args and not (math.isfinite(args.tol) and args.tol >= 0):
            raise InvalidToleranceError(args.tol)
        if "trials" in args and not 1 <= args.trials <= TRIALS_CEILING:
            raise InvalidTrialsError(args.trials, least=1, most=TRIALS_CEILING)
        if args.command == "generate":
            return cmd_generate(args)
        matrix = _load_matrix(args) if "input" in args else None
        names = _method_list(args.method) if "method" in args else None
        body, headers, rows, status = args.report(args, matrix, names)
        if getattr(args, "lorenz_out", None):
            _write_lorenz(args.lorenz_out, body["lorenz"])
        text = _render({"metadata": _metadata(args), **body}, headers, rows, args.format)
        if args.output:
            Path(args.output).write_text(text)
        else:
            sys.stdout.write(text)
        if isinstance(status, str):  # as with sys.exit: a message for stderr, exit 1
            sys.stderr.write(status)
            return 1
        return status
    except HarnessMismatchError as exc:
        sys.stderr.write(f"harness mismatch: {exc}\n")
        return 1
    except (TollShareError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
