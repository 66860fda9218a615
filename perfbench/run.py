"""Benchmark of the ``tollshare`` package, run from the root of a checkout.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 22 --trace 0

The package is imported from ``src/`` of the checkout; nothing is installed.
BLAS and OpenMP pools are held to one thread, so the run is one busy thread.
A run checks every output of one untimed warm-up round, then repeats timed
rounds of its workload (see ``workloads.py``) in this process for at most
``--seconds``, but at least three rounds.  Garbage is collected before each
operation, outside its timing.  With ``--trace 0`` it reports the end-to-end
metrics:

* ``setup_s``: median time of fresh interpreters that only run
  ``import tollshare.cli``;
* ``round_ref_ms``: time of one round, the sum over its operations of each
  operation's median;
* ``peak_rss_mb``: peak resident set size of this process.

Both times are rescaled by reference work measured beside them, so that they
do not follow the host's swings in speed (see ``reference.py``).  The report
gives the raw wall times too: ``setup_raw_s`` and ``round_ms``.

With ``--trace 1`` rounds alternate between untraced and traced, and it
reports per-layer metrics instead: calls, self time and errors of every
traced function, the layers' work counts and ratios, each command's untraced
median, and the tracing overhead.  Counts come from the first traced round
and repeat exactly for a fixed seed; times are medians over rounds.

The last line of standard output is the result object; the line before it is
a report with provenance, per-command medians, sample counts and tail
percentiles, which is also written, with the spans of the first traced
round, to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from hashlib import sha256
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
# set before numpy loads, and inherited by the set-up interpreters
for _pool in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_pool] = "1"

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_STARTS = 3
# three rounds give a median that one disturbed round cannot move
MIN_ROUNDS = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def load_package():
    """Import ``tollshare`` from the checkout's ``src/``."""
    sys.path.insert(0, str(SRC))
    import tollshare
    import tollshare.cli  # noqa: F401
    import tollshare.datasets  # noqa: F401

    if Path(tollshare.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"tollshare imported from {tollshare.__file__}, not from {SRC}")
    return tollshare


def setup_seconds(starts: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing ``tollshare.cli``, and of
    as many running the reference imports, in turn."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))

    def start(code: str) -> float:
        # no timeout: waiting with one polls, which rounds times to 50 ms
        begin = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        return perf_counter() - begin

    package, yardstick = [], []
    for _ in range(starts):
        yardstick.append(start(reference.YARDSTICK))
        package.append(start("import tollshare.cli"))
    return package, yardstick


@dataclass
class Round:
    traced: bool
    seconds: dict[str, float] = field(default_factory=dict)
    #: wall time in ms rescaled by the reference job, in gauged rounds
    scaled_ms: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    failed_ops: int = 0
    functions: dict = field(default_factory=dict)
    roots: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    @property
    def total_ms(self) -> float:
        return 1e3 * sum(self.seconds.values())


def run_op(op: workloads.Op, tracer: tracing.Tracer | None) -> tuple[object, float]:
    start = perf_counter()
    result = op.call() if tracer is None else tracer.span(f"bench.{op.name}", op.call)
    return result, perf_counter() - start


def run_round(workload: workloads.Workload, fingerprints: dict[str, bytes],
              tracer: tracing.Tracer | None, gauge: bool = False) -> Round:
    """One pass over the workload's operations, checking each output.

    With ``gauge`` the reference job runs before the first operation and
    after each one, and ``scaled_ms`` holds each operation's rescaled time.
    """
    rnd = Round(traced=tracer is not None)
    if tracer is not None:
        tracer.reset()
    job_before = reference.job_ms() if gauge else 0.0
    for op in workload.ops:
        problems = list(workload.problems)
        gc.collect()
        try:
            with contextlib.nullcontext() if tracer is None else tracer.installed():
                result, elapsed = run_op(op, tracer)
            rnd.seconds[op.name] = elapsed
            problems += op.check(result)
            fingerprint = op.fingerprint(result)
            if fingerprints.setdefault(op.name, fingerprint) != fingerprint:
                problems.append("output differs from the first round")
        except (Exception, SystemExit):
            problems.append(traceback.format_exc(limit=3).strip())
        if gauge:
            job_after = reference.job_ms()
            if op.name in rnd.seconds:
                rnd.scaled_ms[op.name] = (1e3 * rnd.seconds[op.name] * reference.REFERENCE_MS
                                          / (0.5 * (job_before + job_after)))
            job_before = job_after
        if problems:
            rnd.failed_ops += 1
            rnd.failures += [f"{op.name}: {p}" for p in problems]
    if tracer is not None:
        rnd.functions, rnd.roots = tracing.aggregate(tracer.spans)
        rnd.counts = dict(tracer.counts)
    return rnd


def tail(samples: list[float]) -> dict | None:
    """Highest percentile of the ladder with at least ten samples beyond it."""
    ordered = sorted(samples)
    for p in TAIL_LADDER:
        if round(len(ordered) * (100.0 - p), 6) >= 1000:
            rank = max(1, math.ceil(len(ordered) * p / 100.0))
            return {"p": p, "value": ordered[rank - 1]}
    return None


def summary(samples: list[float]) -> dict:
    return {"median": statistics.median(samples), "samples": len(samples),
            "tail": tail(samples)} if samples else {"median": None, "samples": 0, "tail": None}


def sum_of_medians(samples: dict[str, list[float]]) -> float:
    return sum(statistics.median(v) for v in samples.values() if v)


def provenance(tollshare, workload: workloads.Workload, seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = out.stdout.strip() or None
    digest = sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "tollshare": tollshare.__version__,
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "inputs": workload.inputs,
    }


def _ratio(numer: float, denom: float) -> float:
    return numer / denom if denom else 0.0


def layer_metrics(traced: list[Round], untraced: list[Round]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run as ``name -> (value, unit)``."""
    first = traced[0]

    def median_of(get) -> float:
        return statistics.median(get(r) for r in traced)

    def fn(r: Round, name: str, key: str) -> float:
        return r.functions.get(name, {}).get(key, 0)

    out: dict[str, tuple[float, str]] = {}
    for name in tracing.TARGETS:
        out[f"{name}.calls"] = (fn(first, name, "calls"), "count")
        out[f"{name}.ms"] = (median_of(lambda r: fn(r, name, "ms")), "ms")
        out[f"{name}.errors"] = (fn(first, name, "errors"), "count")
    counts = first.counts
    trips_read = counts.get("model.read.trips", 0)
    out["model.read.trips"] = (trips_read, "count")
    out["model.trips_per_s"] = (_ratio(trips_read, 1e-3 * median_of(
        lambda r: fn(r, "model.read_triplet_csv", "inclusive_ms"))), "1/s")
    out["methods.trips_per_s"] = (_ratio(counts.get("methods.trips", 0), 1e-3 * median_of(
        lambda r: sum(fn(r, f"methods.{m}", "inclusive_ms") for m in ("ses", "sps", "scs")))),
        "1/s")
    out["game.intervals"] = (counts.get("game.intervals", 0), "count")
    out["game.build_useful_ratio"] = (_ratio(counts.get("game.distinct_matrices", 0),
                                             fn(first, "game.SegmentsGame", "calls")), "ratio")
    coalitions = counts.get("game.coalitions", 0)
    out["game.coalitions"] = (coalitions, "count")
    exhaustive = ("mask_values", "shapley_value", "compromise_bounds", "tau_value",
                  "core_check_exhaustive")
    out["game.coalitions_per_s"] = (_ratio(coalitions, 1e-3 * median_of(
        lambda r: sum(fn(r, f"game.{f}", "ms") for f in exhaustive))), "1/s")
    attempted = fn(first, "axioms.run_instance", "calls")
    out["axioms.useful_ratio"] = (
        _ratio(attempted - fn(first, "axioms.run_instance", "errors"), attempted), "ratio")
    out["equity.useful_ratio"] = (_ratio(counts.get("equity.distinct_pairs", 0),
                                         fn(first, "equity.rank_correlations", "calls")), "ratio")
    for layer in tracing.LAYERS:
        out[f"layer.{layer}.ms"] = (median_of(lambda r: sum(
            v["ms"] for k, v in r.functions.items() if k.startswith(layer + "."))), "ms")
    for command in workloads.COMMANDS:
        samples = [1e3 * r.seconds[command] for r in untraced if command in r.seconds]
        out[f"cmd.{command}.ms"] = (statistics.median(samples) if samples else 0.0, "ms")
    out["trace.overhead_ratio"] = (
        median_of(lambda r: r.total_ms) / statistics.median(r.total_ms for r in untraced) - 1.0,
        "ratio")
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, list]:
    """Run the benchmark; returns ``(result, report, spans)``."""
    tollshare = load_package()
    work = HERE / ".work" / f"{workload_name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(workload_name, tollshare, seed, work)
        setup, yardstick = ([], []) if trace else setup_seconds(SETUP_STARTS)
        tracer = tracing.Tracer() if trace else None
        fingerprints: dict[str, bytes] = {}
        warmup = run_round(workload, fingerprints, None)
        rounds: list[Round] = []
        spans: list = []
        start = perf_counter()
        last_round = 0.0
        while True:
            now = perf_counter()
            # start a round only if it is expected to end within the run
            if len(rounds) >= MIN_ROUNDS and now - start + last_round > seconds:
                break
            traced = trace and len(rounds) % 2 == 1
            rounds.append(run_round(workload, fingerprints, tracer if traced else None,
                                    gauge=not trace))
            last_round = perf_counter() - now
            if traced and not spans:
                spans = tracer.spans
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [r for r in rounds if not r.traced]
    traced_rounds = [r for r in rounds if r.traced]
    checked = [warmup, *rounds]
    attempted = sum(len(workload.ops) for _ in checked)
    failed = sum(r.failed_ops for r in checked)
    for problem in dict.fromkeys(p for r in checked for p in r.failures):
        sys.stderr.write(f"FAILED {problem}\n")
    commands_ms = {op.name: [1e3 * r.seconds[op.name] for r in untraced if op.name in r.seconds]
                   for op in workload.ops}
    commands_ref_ms = {op.name: [r.scaled_ms[op.name] for r in untraced if op.name in r.scaled_ms]
                       for op in workload.ops}
    if trace:
        metrics = layer_metrics(traced_rounds, untraced)
        metrics["bench.failed_ratio"] = (failed / attempted, "ratio")
    else:
        metrics = {
            "setup_s": (statistics.median(setup) * reference.YARDSTICK_S
                        / statistics.median(yardstick), "s"),
            "round_ref_ms": (sum_of_medians(commands_ref_ms), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "workload": workload_name,
        "trace": int(trace),
        "seconds": seconds,
        "rounds": len(untraced),
        "traced_rounds": len(traced_rounds),
        "failed_ratio": failed / attempted,
        "provenance": provenance(tollshare, workload, seed),
        "setup_raw_s": {**summary(setup), "values": setup},
        "yardstick_s": {**summary(yardstick), "values": yardstick},
        "round_ms": sum_of_medians(commands_ms),
        "round_ref_ms": sum_of_medians(commands_ref_ms),
        "commands_ms": {name: summary(v) for name, v in commands_ms.items()},
        "commands_ref_ms": {name: summary(v) for name, v in commands_ref_ms.items()},
    }
    if trace:
        report["counts_repeat"] = all(
            r.counts == traced_rounds[0].counts
            and {k: (v["calls"], v["errors"]) for k, v in r.functions.items()}
            == {k: (v["calls"], v["errors"]) for k, v in traced_rounds[0].functions.items()}
            for r in traced_rounds)
        report["counts"] = traced_rounds[0].counts
        # each command's layer self times add up to its wall time
        report["command_layers_ms"] = {
            name: {**root, "unattributed_ms": root["wall_ms"] - sum(root["layers"].values())}
            for name, root in traced_rounds[0].roots.items()}
    return result, report, spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, report, spans = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        sys.stderr.write(f"cannot load tollshare from {SRC}: {exc}\n")
        return 2
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    origin = spans[0][1] if spans else 0.0
    (out_dir / name).write_text(json.dumps({"report": report, "result": result, "spans": [
        [label, round(1e6 * (start - origin)), round(1e6 * (end - origin)), parent, error]
        for label, start, end, parent, error in spans]}) + "\n")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
