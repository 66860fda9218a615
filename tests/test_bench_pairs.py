"""Tests of the argument checks of ``scripts/bench_pairs.py``."""

import importlib.util
from pathlib import Path
from unittest import mock

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _main(module, claim, tmp_path):
    return module.main(["--parent", "HEAD", "--workload", "oracle:2:1", "--claim", claim,
                        "--what", "test", "--workdir", str(tmp_path / "copies"),
                        "--output", str(tmp_path / "bench.json")])


@pytest.mark.parametrize("claim, why", [
    ("oracle:round_ms", "metric 'round_ms'"),
    ("oracle", "metric ''"),
    ("oracle:round_ref_ms:x", "metric 'round_ref_ms:x'"),
    ("bulk:round_ref_ms", "workload 'bulk'"),
])
def test_bad_claim_fails_before_any_checkout(bench_pairs, tmp_path, capsys, claim, why):
    with mock.patch.object(bench_pairs, "checkout", side_effect=AssertionError("checked out")), \
            mock.patch.object(bench_pairs, "run_pairs", side_effect=AssertionError("ran")):
        with pytest.raises(SystemExit) as exc:
            _main(bench_pairs, claim, tmp_path)
    assert exc.value.code == 2
    assert f"error: --claim {claim}: {why}" in capsys.readouterr().err
    assert not (tmp_path / "copies").exists() and not (tmp_path / "bench.json").exists()


def test_good_claim_reaches_the_checkout(bench_pairs, tmp_path):
    class Reached(Exception):
        pass

    with mock.patch.object(bench_pairs, "checkout", side_effect=Reached), \
            mock.patch.object(bench_pairs, "run_pairs", side_effect=AssertionError("ran")):
        with pytest.raises(Reached):
            _main(bench_pairs, "oracle:round_ref_ms", tmp_path)
