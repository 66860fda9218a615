"""Smoke test of ``scripts/peak_rss.py`` on a small generated problem and AP68."""

import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "peak_rss.py"


def test_reports_every_command_of_a_small_problem(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("peak_rss", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--n", "30", "--density", "0.5", "--seed", "1",
                        "--workdir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["n=30 density=0.5 seed=1", f"{'command':<10}{'peak_rss_mb':>12}{'wall_s':>9}"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["generate", "allocate", "core", "equity", "shapley", "tau"]
    assert all(float(peak) > 1.0 and float(wall) > 0.0 for _, peak, wall in rows)
    assert (tmp_path / "trips.csv").read_text().startswith("entry,exit,toll")
    core = json.loads((tmp_path / "core.json").read_text())
    assert set(core["reports"]) == {"ses", "sps", "scs"}
    for solution in ("shapley", "tau"):
        report = json.loads((tmp_path / f"{solution}.json").read_text())
        assert len(report["vector"]) == 22 and report["matches_method"]
