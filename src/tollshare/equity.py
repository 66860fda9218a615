"""Inequality and agreement statistics for allocation vectors.

The rank correlations follow the steps of ``scipy.stats.spearmanr`` and
``scipy.stats.pearsonr`` in numpy, so the package needs no scipy at run time;
the tests check both statistics, and the average ranks, against scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (ConstantVectorError, InvalidAllocationError, SegmentIndexError,
                     VectorShapeError, ZeroTotalError)


def _in_range(x: np.ndarray) -> None:
    """Refuse a vector unless the sum of its entries' sizes times its length
    is finite, which also refuses a NaN or infinite entry: no sum taken here,
    up to the Gini pair sum, is larger, so none overflows."""
    with np.errstate(over="ignore"):
        size = float(np.abs(x).sum())
    if not size * len(x) < np.inf:
        raise InvalidAllocationError("entries and their sum times their count must be finite")


def _as_shares(x: Sequence[float]) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise VectorShapeError("expected a nonempty 1-d vector")
    _in_range(x)
    if np.any(x < 0.0):
        raise InvalidAllocationError("shares must be nonnegative")
    return x


def gini(x: Sequence[float]) -> float:
    """Mean absolute difference Gini index, in [0, 1).

    ``G = sum_ij |x_i - x_j| / (2 n sum_i x_i)``; no small-sample
    correction is applied.  On the ascending-sorted vector the pair sum is
    ``2 sum_k k (n - k) (x_(k+1) - x_(k))``: every gap between neighbours
    separates ``k`` values from ``n - k``.  That needs O(n) memory, adds only
    nonnegative terms, and gives exactly 0 for a constant vector.
    """
    x = _as_shares(x)
    total = float(x.sum())
    if total <= 0.0:
        raise ZeroTotalError("gini requires a positive total")
    n = len(x)
    k = np.arange(1.0, n)
    return float(np.dot(k * (n - k), np.diff(np.sort(x)))) / (n * total)


@dataclass(frozen=True)
class LorenzCurve:
    """Cumulative-share curve over the ascending-sorted allocation.

    ``points[k] = (k/n, share of the total held by the k poorest segments)``
    for k = 0..n.
    """

    points: tuple[tuple[float, float], ...]

    @property
    def area(self) -> float:
        """Trapezoid area under the curve."""
        p = np.array(self.points)
        return float(np.trapezoid(p[:, 1], p[:, 0]))

    def gini_estimate(self) -> float:
        """1 - 2 * area; the same quantity as :func:`gini`, so the two agree up
        to rounding."""
        return 1.0 - 2.0 * self.area


def lorenz(x: Sequence[float]) -> LorenzCurve:
    x = _as_shares(x)
    total = float(x.sum())
    if total <= 0.0:
        raise ZeroTotalError("a Lorenz curve requires a positive total")
    ordered = np.sort(x)
    cum = np.concatenate([[0.0], np.cumsum(ordered)]) / total
    n = len(x)
    return LorenzCurve(tuple((k / n, float(cum[k])) for k in range(n + 1)))


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-d vector; a tie group gets the mean of its ranks.

    The steps of ``scipy.stats.rankdata(x)``: a stable sort, the tie groups
    from the sorted values, and ``(first + end + 1) / 2`` for the group
    that takes 0-based sorted positions ``first .. end - 1``.
    """
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    first = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    end = np.append(first[1:], len(x))
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((first + end + 1) / 2.0, end - first)
    return ranks


def _unit(x: np.ndarray) -> np.ndarray:
    """``x`` centred and scaled to unit norm; the norm is taken on the vector
    divided by its largest deviation, so it cannot overflow."""
    centred = x - x.mean()
    largest = np.max(np.abs(centred))
    return centred / (largest * np.linalg.vector_norm(centred / largest))


def rank_correlations(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """(Spearman, Pearson) between two allocations.

    Spearman is the Pearson product-moment correlation (``np.corrcoef``) of
    the average ranks.  Pearson is the dot product of the two unit vectors,
    clipped to [-1, 1].  Both follow the steps of ``scipy.stats.spearmanr``
    and ``pearsonr`` (scipy 1.17) and give the same bits, except that both
    are rounded when n = 2, where they can only be -1 or 1: ``pearsonr``
    rounds too, while ``spearmanr`` returns the ``np.corrcoef`` of ranks
    [1, 2] and [2, 1], one ulp short of -1.  The tests check them against
    scipy.  Raises
    :class:`InvalidAllocationError` on a vector that ``_in_range`` refuses
    and :class:`ConstantVectorError` when either vector is constant.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise VectorShapeError("expected two equal-length vectors of length >= 2")
    _in_range(x)
    _in_range(y)
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise ConstantVectorError("correlation is undefined for a constant vector")
    spearman = np.corrcoef(average_ranks(x), average_ranks(y))[1, 0]
    pearson = np.clip(np.vecdot(_unit(x), _unit(y)), -1.0, 1.0)
    if len(x) == 2:
        spearman, pearson = np.round(spearman), np.round(pearson)
    return float(spearman), float(pearson)


@dataclass(frozen=True)
class Ranking:
    """Segments ordered by share, descending; ties break on segment index."""

    order: tuple[int, ...]
    top: tuple[int, ...]
    bottom: tuple[int, ...]


def ranking(x: Sequence[float], top: int = 3, bottom: int = 3) -> Ranking:
    """Top and bottom segments of an allocation.

    ``bottom`` segments are reported in descending-share order, i.e. as the
    final positions of the full ranking.  A count above the number of
    segments takes them all; a negative one raises :class:`SegmentIndexError`.
    """
    if top < 0 or bottom < 0:
        raise SegmentIndexError(f"ranking counts must be >= 0, got top={top}, bottom={bottom}")
    x = _as_shares(x)
    order = tuple(sorted(range(1, len(x) + 1), key=lambda i: (-x[i - 1], i)))
    return Ranking(order, order[:top], order[max(0, len(x) - bottom) :])
