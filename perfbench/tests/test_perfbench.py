"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The smoke and count tests run every workload as a subprocess, for a warm-up
and three rounds each, so the module takes about a minute and a half.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3

#: sha256 of ``generate --n 1000 --density 0.2 --seed 3``; pins the draw
#: stream and the reference writer together.
GENERATED_SHA256_SEED3 = "36f1a738336c0bac8ba3dda2a161b782cf7310cbba77ce3d2d0896e2f39a647a"


def bench_run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(result: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_end_to_end_metric(workload):
    result = result_of(bench_run(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_fixed_seed(workload):
    first, second = (result_of(bench_run(workload, 1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    exact = [name for name, unit in units(first).items()
             if unit == "count" or name.endswith("useful_ratio")]
    assert {n: first["metrics"][n]["value"] for n in exact} == \
        {n: second["metrics"][n]["value"] for n in exact}


def test_perturbed_allocation_counts_as_failed(tmp_path):
    tollshare = bench.load_package()
    workload = workloads.build("oracle", tollshare, SEED, tmp_path)
    workload.ops = [op for op in workload.ops if op.name in ("allocate", "core")]
    assert bench.run_round(workload, {}, None).failed_ops == 0

    original = tollshare.methods.ses
    with tracing.rebind("tollshare", {original: lambda matrix: original(matrix) * (1 + 1e-6)}):
        perturbed = bench.run_round(workload, {}, None)
    assert perturbed.failed_ops == 2
    assert any("ses shares sum to" in f for f in perturbed.failures)
    assert any("ses is not in the core" in f for f in perturbed.failures)
    assert tollshare.methods.METHODS["ses"] is original


def test_reference_writer_pins_the_generated_file():
    data = workloads.reference_triplet_csv(1000, 0.2, SEED)
    assert hashlib.sha256(data).hexdigest() == GENERATED_SHA256_SEED3


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = bench_run("audit", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
