"""Bundled datasets.

``ap68`` is a 22-segment toll problem for the AP68 highway
(Bilbao - Zaragoza).  The trip-level matrix is not the operator's raw data:
it was reconstructed by constrained optimization so that the three built-in
methods reproduce published per-segment allocation figures for that highway
to within less than a thousandth of a euro per segment.  See
``scripts/build_ap68_fixture.py`` in the source repository.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .model import TollMatrix, read_triplet_csv

AP68_SEGMENTS = 22


def ap68_path() -> Path:
    """Filesystem path of the bundled AP68 triplet CSV."""
    return Path(resources.files(__package__) / "data" / "ap68_trips.csv")


def ap68() -> TollMatrix:
    return read_triplet_csv(ap68_path(), n=AP68_SEGMENTS)
