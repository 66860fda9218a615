import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from tollshare import TollMatrix

# Every tier-1 run draws the same examples and writes no example database.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")

_HYPOTHESIS_HOME = pytest.StashKey[Path]()


def pytest_configure(config):
    # Whatever the database setting, hypothesis caches the constants it finds
    # in the package source under its home directory, from collection on.
    # Give it a throwaway one, so a run writes nothing into the checkout.
    home = Path(tempfile.mkdtemp(prefix="tollshare-hypothesis-"))
    config.stash[_HYPOTHESIS_HOME] = home
    set_hypothesis_home_dir(home)


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)


@pytest.fixture
def example3() -> TollMatrix:
    """3 segments; one toll unit each on trips [1,2] and [1,3]."""
    return TollMatrix(3, {(1, 2): 1.0, (1, 3): 1.0})


@pytest.fixture
def example61() -> TollMatrix:
    """5-segment problem whose proportional allocation is unstable."""
    entries = {
        (1, 1): 1.0, (1, 2): 5.0, (1, 3): 0.01, (1, 4): 0.01, (1, 5): 1.0,
        (2, 2): 1.5, (2, 3): 0.01, (2, 4): 0.01, (2, 5): 0.02,
        (3, 3): 0.01, (3, 4): 0.01, (3, 5): 0.01,
        (4, 4): 2.0, (4, 5): 0.01,
        (5, 5): 0.01,
    }
    return TollMatrix(5, entries)
