r"""Peak RSS and wall time of the CLI commands on one generated problem and on AP68.

    python3 scripts/peak_rss.py --n 2000 --density 0.2 --seed 3

Runs ``generate`` with the given size, density and seed, then ``allocate``,
``core`` and ``equity`` on the file it wrote, then ``game --solution
shapley`` and ``game --solution tau`` on the bundled 22-segment AP68, whose
``2^22`` coalitions the exhaustive oracles enumerate.  Each command runs in a
child interpreter that imports ``tollshare`` from ``src/`` of this checkout
and writes its report with ``--no-timestamp`` beside the file.  Prints one
row per command, the last two named ``shapley`` and ``tau``:
its peak resident set size in MB and its wall time in seconds.  The peak is
the ``ru_maxrss`` of the child's own rusage, as ``os.wait4`` returns it; the
``RUSAGE_CHILDREN`` maximum of the parent would carry over from one child to
the next.  That rusage covers the processes the command reaped too, so the
``generate`` row is the larger of the command's peak and that of the child
its triplet writer forks on a host with 2 or more CPUs (on 2 CPUs the child
peaked at 25.2 MB on the 25k-trip ``--n 500 --density 0.2`` problem and 43.0 MB
at ``--n 2000``, mostly pages it shares with the command).  The files go to ``--workdir``, made if missing, or to a
temporary directory that is removed at the end.  A command that exits nonzero stops the run.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_CLI = "import sys; from tollshare.cli import main; sys.exit(main(sys.argv[1:]))"
COMMANDS = ("allocate", "core", "equity")
SOLUTIONS = ("shapley", "tau")
AP68 = ROOT / "src" / "tollshare" / "data" / "ap68_trips.csv"


def run_child(argv: list[str]) -> tuple[float, float]:
    """Peak RSS in MB and wall seconds of one CLI command in a child interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", _CLI, *argv], env)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"{argv[0]} exited {code}")
    return usage.ru_maxrss / 1024, wall  # ru_maxrss is in KB on Linux


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--density", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, help="where the problem and the reports go"
                        " (default: a temporary directory, removed at the end)")
    args = parser.parse_args(argv)
    with (contextlib.nullcontext(args.workdir) if args.workdir
          else tempfile.TemporaryDirectory(prefix="peak-rss-")) as workdir:
        Path(workdir).mkdir(parents=True, exist_ok=True)
        problem = Path(workdir) / "trips.csv"
        runs = [("generate", ["generate", "--n", str(args.n), "--density", str(args.density),
                              "--seed", str(args.seed), "--output", str(problem)])]
        runs += [(command, [command, "--input", str(problem), "--no-timestamp",
                            "--output", str(Path(workdir) / f"{command}.json")])
                 for command in COMMANDS]
        runs += [(solution, ["game", "--input", str(AP68), "--segments", "22",
                             "--solution", solution, "--no-timestamp",
                             "--output", str(Path(workdir) / f"{solution}.json")])
                 for solution in SOLUTIONS]
        print(f"n={args.n} density={args.density:g} seed={args.seed}")
        print(f"{'command':<10}{'peak_rss_mb':>12}{'wall_s':>9}")
        for command, child_argv in runs:
            peak, wall = run_child(child_argv)
            print(f"{command:<10}{peak:>12.1f}{wall:>9.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
