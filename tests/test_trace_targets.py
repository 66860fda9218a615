"""The functions the traced benchmark wraps must exist under their names.

``perfbench/tracing.py`` looks up each of its ``TARGETS`` when a traced run
starts, so a renamed target breaks every traced run.  This checks the names
without running the benchmark.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets() -> dict[str, tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("name, target", sorted(_targets().items()))
def test_target_resolves_on_the_package(name, target):
    module, path = target
    owner = importlib.import_module(f"tollshare.{module}")
    *classes, attr = path.split(".")
    for cls_name in classes:
        owner = getattr(owner, cls_name)
        assert isinstance(owner, type), (name, cls_name)
    if classes:
        # wrapped on the class itself, so it must be defined there, not inherited
        assert attr in vars(owner), name
    assert callable(getattr(owner, attr)), name


def test_every_target_module_is_registered_by_the_package_imports():
    """A traced run indexes ``sys.modules`` for each target's module after
    the imports of ``perfbench/run.py``'s ``load_package``; the lazily loaded
    modules must be there before any command runs."""
    env = dict(os.environ, PYTHONPATH=str(_TRACING.parents[1] / "src"))
    code = ("import json, sys, tollshare, tollshare.cli, tollshare.datasets; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('tollshare.'))))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    registered = set(json.loads(result.stdout))
    assert {f"tollshare.{module}" for module, _ in _targets().values()} <= registered
