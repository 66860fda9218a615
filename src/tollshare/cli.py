"""Command-line frontend.

Subcommands::

    allocate   per-segment shares and percentages for selected methods
    game       brute-force game solution vs. the matching closed-form method
    core       core-membership report for a method's allocation
    axioms     axiom verdict matrix, or the axiom-independence harness
    equity     Gini, Lorenz points and rank correlations between methods
    generate   seeded random or block-structured problem files

Outputs are deterministic for fixed inputs and seed; pass ``--no-timestamp``
to make them byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .axioms import ANCHORED_AXIOMS, AXIOMS, axiom_matrix, independence_harness
from .equity import gini, lorenz, rank_correlations
from .errors import HarnessMismatchError, TollShareError, TollValidationError, UnknownMethodError
from .game import (
    EXHAUSTIVE_CEILING,
    EXHAUSTIVE_LIMIT,
    SegmentsGame,
    average_tree_value,
    core_check,
    shapley_value,
    sps_core_criterion,
    tau_value,
)
from .methods import METHODS, allocation_method, share_percentages
from .model import (
    DEFAULT_TOL,
    TollMatrix,
    block_structured_matrix,
    random_matrix,
    read_dense_csv,
    read_json,
    read_triplet_csv,
    write_triplet_csv,
)

_SOLUTIONS = {
    "shapley": (shapley_value, "ses"),
    "tau": (tau_value, "sps"),
    "at": (average_tree_value, "scs"),
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
    if path.suffix.lower() == ".json":
        matrix = read_json(path)
    elif getattr(args, "dense", False):
        matrix = read_dense_csv(path)
    else:
        matrix = read_triplet_csv(path, n=args.segments)
        return matrix
    if args.segments is not None and args.segments != matrix.n:
        raise TollShareError(
            f"--segments {args.segments} conflicts with {matrix.n}-segment input"
        )
    return matrix


def _method_list(spec: str) -> list[str]:
    names = [name.strip() for name in spec.split(",") if name.strip()]
    if not names:
        raise UnknownMethodError(spec)
    for name in names:
        allocation_method(name)
    return names


def _md_table(headers: list[str], rows: list[list]) -> str:
    out = ["| " + " | ".join(headers) + " |",
           "| " + " | ".join("---" for _ in headers) + " |"]
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out)


def _emit(doc: dict, headers: list[str], rows: list[list], args: argparse.Namespace) -> None:
    fmt = args.format
    if fmt == "json":
        text = json.dumps(doc, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        for key, value in doc["metadata"].items():
            buf.write(f"# {key}: {value}\n")
        writer = csv.writer(buf)
        writer.writerow(headers)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        meta = ", ".join(f"{k}={v}" for k, v in doc["metadata"].items())
        text = _md_table(headers, rows) + f"\n\n_{meta}_\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_allocate(args: argparse.Namespace) -> int:
    matrix = _load_matrix(args)
    names = _method_list(args.method)
    doc: dict = {"metadata": _metadata(args), "n": matrix.n, "total": matrix.total,
                 "allocations": {}}
    rows = []
    for name in names:
        shares = allocation_method(name)(matrix)
        percents = share_percentages(shares, matrix.total)
        doc["allocations"][name] = {
            "shares": [float(s) for s in shares],
            "percent": [float(p) for p in percents],
        }
        for i in range(matrix.n):
            rows.append([name, i + 1, repr(float(shares[i])), f"{percents[i]:.2f}"])
    if len(names) == 1:
        rows = [row[1:] for row in rows]
        _emit(doc, ["segment", "share", "percent"], rows, args)
    else:
        _emit(doc, ["method", "segment", "share", "percent"], rows, args)
    return 0


def cmd_game(args: argparse.Namespace) -> int:
    matrix = _load_matrix(args)
    solver, method_name = _SOLUTIONS[args.solution]
    game = SegmentsGame(matrix)
    vector = solver(game) if args.solution == "at" else solver(game, limit=args.limit)
    method_vector = allocation_method(method_name)(matrix)
    diff = float(np.max(np.abs(vector - method_vector)))
    matches = diff <= args.tol * max(1.0, matrix.total)
    doc = {
        "metadata": _metadata(args),
        "solution": args.solution,
        "vector": [float(v) for v in vector],
        "method": method_name,
        "matches_method": matches,
        "max_abs_diff": diff,
    }
    rows = [[i + 1, repr(float(vector[i])), repr(float(method_vector[i]))]
            for i in range(matrix.n)]
    _emit(doc, ["segment", args.solution, method_name], rows, args)
    return 0 if matches else 1


def cmd_core(args: argparse.Namespace) -> int:
    matrix = _load_matrix(args)
    names = _method_list(args.method)
    game = SegmentsGame(matrix)
    doc: dict = {"metadata": _metadata(args), "reports": {}}
    rows = []
    for name in names:
        shares = allocation_method(name)(matrix)
        report = core_check(game, shares, tol=args.tol)
        payload = report.to_json_dict()
        if name == "sps":
            criterion = sps_core_criterion(game, tol=args.tol)
            payload["criterion"] = {
                "satisfied": criterion.satisfied,
                "worst_interval": criterion.worst_interval,
                "rhs_max": criterion.rhs_max,
                "beta": criterion.beta,
            }
        doc["reports"][name] = payload
        if report.violations:
            for v in report.violations:
                rows.append([name, report.is_member, f"[{v.start},{v.end}]",
                             f"{v.value:.6f}", f"{v.allocated:.6f}", f"{v.deficit:.6f}"])
        else:
            rows.append([name, report.is_member, "-", "-", "-", "-"])
    _emit(doc, ["method", "is_member", "interval", "value", "allocated", "deficit"],
          rows, args)
    return 0


def cmd_axioms(args: argparse.Namespace) -> int:
    if args.harness:
        try:
            table = independence_harness(trials=args.trials, seed=args.seed)
        except HarnessMismatchError as exc:
            sys.stderr.write(f"harness mismatch: {exc}\n")
            return 1
        doc = {"metadata": _metadata(args), "harness": [
            {"characterization": row.characterization, "method": row.method,
             "failed_axiom": row.failed_axiom, "verdicts": dict(row.verdicts)}
            for row in table
        ]}
        rows = [[row.characterization, row.method, row.failed_axiom,
                 " ".join(f"{a}={'pass' if ok else 'FAIL'}" for a, ok in row.verdicts.items())]
                for row in table]
        _emit(doc, ["characterization", "method", "failed_axiom", "verdicts"], rows, args)
        return 0
    names = _method_list(args.method)
    grid = axiom_matrix(names, AXIOMS, trials=args.trials, seed=args.seed)
    doc = {"metadata": _metadata(args), "verdicts": {
        name: {axiom: grid[name][axiom].holds for axiom in AXIOMS} for name in names
    }}
    rows = [[axiom] + ["pass" if grid[name][axiom].holds else "FAIL" for name in names]
            for axiom in AXIOMS]
    _emit(doc, ["axiom"] + list(names), rows, args)
    failed = [
        (name, axiom)
        for name in names
        if name in ANCHORED_AXIOMS
        for axiom in ANCHORED_AXIOMS[name]
        if not grid[name][axiom].holds
    ]
    for name, axiom in failed:
        sys.stderr.write(f"expected axiom failed: {name} / {axiom}\n")
    return 1 if failed else 0


def cmd_equity(args: argparse.Namespace) -> int:
    matrix = _load_matrix(args)
    names = _method_list(args.method)
    allocations = {name: allocation_method(name)(matrix) for name in names}
    doc: dict = {"metadata": _metadata(args), "gini": {}, "correlations": {},
                 "lorenz": {}}
    for name, shares in allocations.items():
        doc["gini"][name] = gini(shares)
        doc["lorenz"][name] = [[p, L] for p, L in lorenz(shares).points]
    for pos, a in enumerate(names):
        for b in names[pos + 1 :]:
            spearman, pearson = rank_correlations(allocations[a], allocations[b])
            doc["correlations"][f"{a}-{b}"] = {"spearman": spearman, "pearson": pearson}
    if args.lorenz_out:
        for name, shares in allocations.items():
            path = Path(f"{args.lorenz_out}{name}.csv")
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["p", "L"])
                writer.writerows(lorenz(shares).points)
    # triangular agreement table: Spearman below the diagonal, Pearson above
    correlations = doc["correlations"]
    rows = []
    for a in names:
        row = [a]
        for b in names:
            if a == b:
                row.append("-")
            elif names.index(a) > names.index(b):
                row.append(f"{correlations[f'{b}-{a}']['spearman']:.3f}")
            else:
                row.append(f"{correlations[f'{a}-{b}']['pearson']:.3f}")
        rows.append(row)
    for name in names:
        rows.append([f"gini({name})", f"{doc['gini'][name]:.6f}"] + [""] * (len(names) - 1))
    _emit(doc, ["method"] + list(names), rows, args)
    return 0


def _parse_blocks(spec: str) -> list[range]:
    blocks = []
    try:
        for part in spec.split(","):
            start, _, end = part.partition("-")
            blocks.append(range(int(start), int(end or start) + 1))
    except ValueError as exc:
        raise TollValidationError(f"--blocks {spec!r}: {exc}") from exc
    return blocks


def cmd_generate(args: argparse.Namespace) -> int:
    if args.blocks:
        matrix = block_structured_matrix(
            _parse_blocks(args.blocks), seed=args.seed,
            density=args.density, max_toll=args.max_toll,
        )
    else:
        matrix = random_matrix(args.n, density=args.density,
                               max_toll=args.max_toll, seed=args.seed)
    write_triplet_csv(matrix, args.output)
    return 0


def _add_common(parser: argparse.ArgumentParser, *, seeded: bool = False) -> None:
    parser.add_argument("--format", choices=("csv", "json", "markdown"), default="json")
    parser.add_argument("--output", help="write the report here instead of stdout")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp for byte-identical reruns")
    if seeded:
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--trials", type=int, default=200)


def _add_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="triplet CSV (or .json export)")
    parser.add_argument("--segments", type=int, default=None,
                        help="override the segment count of a triplet file")
    parser.add_argument("--dense", action="store_true",
                        help="read --input as a dense n-by-n CSV grid")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tollshare", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("allocate", help="per-segment toll shares")
    _add_input(p)
    p.add_argument("--method", default="ses,sps,scs")
    _add_common(p)
    p.set_defaults(fn=cmd_allocate)

    p = sub.add_parser("game", help="compare a game solution with its method")
    _add_input(p)
    p.add_argument("--solution", choices=sorted(_SOLUTIONS), required=True)
    p.add_argument("--limit", type=int, default=EXHAUSTIVE_LIMIT,
                   help="largest n for exhaustive enumeration "
                        f"(never above {EXHAUSTIVE_CEILING})")
    _add_common(p)
    p.set_defaults(fn=cmd_game)

    p = sub.add_parser("core", help="core-membership reports")
    _add_input(p)
    p.add_argument("--method", default="ses,sps,scs")
    _add_common(p)
    p.set_defaults(fn=cmd_core)

    p = sub.add_parser("axioms", help="axiom verdict matrix / independence harness")
    p.add_argument("--method", default="ses,sps,scs")
    p.add_argument("--harness", action="store_true",
                   help="run the axiom-independence harness instead")
    _add_common(p, seeded=True)
    p.set_defaults(fn=cmd_axioms)

    p = sub.add_parser("equity", help="Gini / Lorenz / correlations")
    _add_input(p)
    p.add_argument("--method", default="ses,sps,scs")
    p.add_argument("--lorenz-out", help="prefix for per-method p,L CSV files")
    _add_common(p)
    p.set_defaults(fn=cmd_equity)

    p = sub.add_parser("generate", help="write a seeded random problem file")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--max-toll", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--blocks", help="contiguous blocks, e.g. 1-3,4-5")
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_generate, no_timestamp=True, format="csv")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TollShareError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
