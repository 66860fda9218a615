r"""Alternating parent/change pairs of the benchmark, written as one BENCH file.

    python3 scripts/bench_pairs.py --parent 8a48093 --change HEAD \
        --workload bulk:10:5101 --workload audit:10:5201 --workload oracle:10:5301 \
        --seconds 22 --claim bulk:round_ref_ms --what "..." --output BENCH_10.json

Each side runs from a clean copy of its commit's files (``git archive``),
made under ``--workdir`` or in a temporary directory, so neither sees the
other's working tree.  A ``--workload NAME:PAIRS:FIRST_SEED`` runs
``PAIRS`` pairs on the seeds ``FIRST_SEED, FIRST_SEED + 1, ...``: in each
pair both sides run
``python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0``
one after the other, and the side that runs first alternates from pair to
pair.  One benchmark process runs at a time.  ``--claim WORKLOAD:METRIC``
must name one of the ``--workload`` names and one of the ``end_to_end``
metrics of ``BENCHMARK.json``; it is checked before any copy is made.

The output has the keys ``what``, ``host``, ``protocol``, ``claim``,
``summary`` and ``pairs``; ``claim`` is ``null`` without ``--claim``.
``summary[workload][metric]`` gives each side's quartiles (inclusive
method) and values, in how many pairs the change was lower, and the change
of the median; ``pairs`` keeps every run's report and result as
``perfbench/run.py`` printed them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def checkout(rev: str, into: Path) -> Path:
    """A clean copy of the files of commit ``rev``."""
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def run_once(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: the report and the result it printed last."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{copy.name} {workload} seed {seed} exited {done.returncode}:\n"
                         f"{done.stderr}")
    report, result = done.stdout.strip().splitlines()[-2:]
    return {"report": json.loads(report), "result": json.loads(result)}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "iqr": q3 - q1}


def summarise(pairs: list[dict]) -> dict:
    """Per metric: each side's quartiles and values, and the pairs in which
    the change was lower."""
    metrics = pairs[0]["parent"]["result"]["metrics"]
    summary = {}
    for metric in metrics:
        values = {side: [pair[side]["result"]["metrics"][metric]["value"] for pair in pairs]
                  for side in SIDES}
        lower = sum(c < p for p, c in zip(values["parent"], values["change"]))
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        summary[metric] = {
            "parent": parent,
            "change": change,
            "change_lower_in": f"{lower}/{len(pairs)}",
            "median_change": change["median"] / parent["median"] - 1.0,
            "parent_values": values["parent"],
            "change_values": values["change"],
        }
    for key, fold in (("failed", sum), ("attempted", sum), ("correct", all)):
        summary[key] = {side: fold(pair[side]["result"][key] for pair in pairs)
                        for side in SIDES}
    return summary


def run_pairs(copies: dict[str, Path], workloads: list[tuple[str, int, int]],
              seconds: float) -> dict[str, list[dict]]:
    pairs: dict[str, list[dict]] = {}
    for number, (workload, count, first_seed) in enumerate(workloads):
        pairs[workload] = []
        for i in range(count):
            seed = first_seed + i
            order = SIDES if (number + i) % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(copies[side], workload, seed, seconds)
                print(f"{workload} seed {seed} {side}: "
                      f"{pair[side]['result']['metrics']['round_ref_ms']['value']:.1f} ms",
                      file=sys.stderr)
            pairs[workload].append(pair)
    return pairs


def parse_workload(text: str) -> tuple[str, int, int]:
    name, pairs, first_seed = text.split(":")
    if int(pairs) < 2:
        raise argparse.ArgumentTypeError("quartiles need at least 2 pairs")
    return name, int(pairs), int(first_seed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit of the parent side")
    parser.add_argument("--change", default="HEAD", help="commit of the change side")
    parser.add_argument("--workload", action="append", required=True, type=parse_workload,
                        metavar="NAME:PAIRS:FIRST_SEED")
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC",
                        help="the metric the change claims to improve (default: no claim)")
    parser.add_argument("--what", required=True, help="what the two sides are")
    parser.add_argument("--workdir", type=Path, help="where the copies go and stay (default: a"
                        " temporary directory, removed at the end)")
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.claim:  # checked before the first pair, not after the last
        workload, _, metric = args.claim.partition(":")
        names = [name for name, _, _ in args.workload]
        metrics = [entry["name"] for entry in
                   json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
        if workload not in names:
            parser.error(f"--claim {args.claim}: workload {workload!r} is not among the"
                         f" --workload names {names}")
        if metric not in metrics:
            parser.error(f"--claim {args.claim}: metric {metric!r} is not among the"
                         f" end-to-end metrics {metrics}")

    with (contextlib.nullcontext(args.workdir) if args.workdir
          else tempfile.TemporaryDirectory(prefix="bench-pairs-")) as workdir:
        copies = {side: checkout(rev, Path(workdir) / side)
                  for side, rev in zip(SIDES, (args.parent, args.change))}
        pairs = run_pairs(copies, args.workload, args.seconds)
    summary = {workload: summarise(runs) for workload, runs in pairs.items()}
    claim = None
    if args.claim:
        claim = {"metric": metric, "workload": workload,
                 **{key: summary[workload][metric][key] for key in
                    ("parent", "change", "change_lower_in", "median_change")}}
    seeds = ", ".join(f"{first}-{first + count - 1} ({name})"
                      for name, count, first in args.workload)
    document = {
        "what": args.what,
        "host": (f"{os.cpu_count()} vCPU {platform.system()}, Python "
                 f"{platform.python_version()}, numpy {metadata.version('numpy')}"),
        "protocol": (f"`python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g}"
                     " --trace 0` from a clean copy of each commit; one parent/change pair per"
                     " seed, the side that runs first alternating from pair to pair; seeds "
                     f"{seeds}"),
        "claim": claim,
        "summary": summary,
        "pairs": pairs,
    }
    args.output.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
