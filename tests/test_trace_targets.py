"""The functions the traced benchmark wraps must exist under their names.

``perfbench/tracing.py`` looks up each of its ``TARGETS`` when a traced run
starts, so a renamed target breaks every traced run.  This checks the names
without running the benchmark.
"""

import importlib
import importlib.util
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
