"""The command lines the benchmark runs must parse.

``perfbench/workloads.py`` calls ``tollshare.cli.main`` with fixed argument
lists, so an option the CLI stops accepting fails every round of a workload.
This builds each workload and parses its CLI argument lists without running
the commands.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import tollshare
from tollshare import cli

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
#: The one operation that calls the library instead of the CLI.
_LIBRARY_OPS = {"core_exhaustive"}


def _workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, _WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        # ``@dataclass`` looks its module up in sys.modules
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize("workload", _workloads().WORKLOADS)
def test_cli_operations_parse(workload, tmp_path, monkeypatch):
    parsed = []

    def parse_only(argv):
        try:
            cli._parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"{workload}: {argv} does not parse")
        parsed.append(argv)
        return 0

    built = _workloads().build(workload, tollshare, 3, tmp_path)
    assert not built.problems
    monkeypatch.setattr(cli, "main", parse_only)
    cli_ops = [op for op in built.ops if op.name not in _LIBRARY_OPS]
    for op in cli_ops:
        assert op.call() == 0, op.name
    assert len(parsed) == len(cli_ops) > 0
