"""Coalition-value view of a toll problem and brute-force solution oracles.

A coalition of segments is worth the tolls of the trips it fully contains.
Because trips are contiguous, a coalition's worth decomposes over its maximal
contiguous blocks, which is what makes the interval-based core test
sufficient for nonnegative allocations.

The Shapley, compromise (tau) and average-tree solutions are computed here by
exhaustive enumeration on purpose: they serve as independent cross-checks of
the closed-form allocation methods, so they must not share code with them.
Each function names the ``2^n`` vectors it holds; :data:`EXHAUSTIVE_CEILING`
and :data:`INTERVAL_CEILING` bound them and the interval grid, which the core
tests read in bands of at most :data:`BAND_CELLS` cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InvalidAllocationError,
    LengthMismatchError,
    OracleSizeError,
    SegmentIndexError,
    TauUndefinedError,
)
from .methods import SpsDecomposition, WeightScheme, sps_decomposition
from .model import DEFAULT_TOL, TollMatrix, allowance

#: Largest ``n`` for any ``2^n`` vector, the one size bound of the
#: exhaustive oracles: 22 segments (the AP68 case study) need 32 MB per vector.
EXHAUSTIVE_CEILING = 22

#: Largest ``n`` whose ``(n+2) x (n+2)`` interval grid a game builds: 2^24
#: floats, 128 MB; n = 2000 needs 32 MB.  It is the only ``n x n`` table.
INTERVAL_CEILING = (1 << 12) - 2

#: Cells of one band of start rows in the core tests (see :func:`_bands`).
BAND_CELLS = 1 << 15


def _ending_tolls(matrix: TollMatrix) -> np.ndarray:
    """``S[a, k]``: total toll of trips that exit at ``k`` and enter at ``a`` or
    later, on a zero-padded 1-based ``(n+2) x (n+2)`` grid."""
    n = matrix.n
    dense = np.zeros((n + 2, n + 2))
    entry, exit, toll = matrix.columns
    dense[entry, exit] = toll
    return np.cumsum(dense[::-1], axis=0, out=dense[::-1])[::-1]


class SegmentsGame:
    """Characteristic function derived from a toll matrix.

    ``value(S)`` is the total toll of trips whose whole path lies in ``S``.
    Raises :class:`OracleSizeError` above :data:`INTERVAL_CEILING` segments.
    """

    def __init__(self, matrix: TollMatrix):
        if matrix.n > INTERVAL_CEILING:
            raise OracleSizeError(matrix.n, INTERVAL_CEILING, "interval grid")
        self.matrix = matrix
        self.n = matrix.n
        # interval[a, b] = sum over h >= a, k <= b of t_hk: the total toll of
        # trips inside [a, b], and 0 when a > b because the grid is upper
        # triangular.  A suffix sum over entries, then a prefix sum over exits.
        interval = _ending_tolls(matrix)
        self._interval = np.cumsum(interval, axis=1, out=interval)
        self._mask_values: np.ndarray | None = None

    @property
    def grand_value(self) -> float:
        return float(self._interval[1, self.n])

    def interval_value(self, start: int, end: int) -> float:
        """Worth of the contiguous coalition ``start..end`` (0 when empty)."""
        if start > end:
            return 0.0
        if not (1 <= start and end <= self.n):
            raise SegmentIndexError(f"interval [{start},{end}] out of range 1..{self.n}")
        return float(self._interval[start, end])

    def value(self, coalition: Iterable[int]) -> float:
        """Worth of an arbitrary coalition of 1-based segments."""
        mask = 0
        for i in coalition:
            if not (1 <= i <= self.n):
                raise SegmentIndexError(f"segment {i} out of range 1..{self.n}")
            mask |= 1 << (i - 1)
        value = 0.0
        while mask:
            low = (mask & -mask).bit_length() - 1
            end = low
            while (mask >> (end + 1)) & 1:
                end += 1
            value += self._interval[low + 1, end + 1]
            mask &= ~((1 << (end + 1)) - 1)
        return value

    def mask_values(self) -> np.ndarray:
        """Worths of all ``2^n`` coalitions, indexed by membership bitmask.

        Subset DP: adding segment ``i+1`` on top of a mask below ``2^i`` adds
        the tolls of trips that exit at ``i+1`` and enter inside the run of
        members just below it.  The masks below ``2^i`` whose top run has
        ``r`` members form one contiguous block, so each run length takes
        one scalar addition over a slice.  Needs one float per coalition;
        raises :class:`OracleSizeError` above :data:`EXHAUSTIVE_CEILING`
        before allocating.
        """
        if self._mask_values is None:
            if self.n > EXHAUSTIVE_CEILING:
                raise OracleSizeError(self.n, EXHAUSTIVE_CEILING)
            ending = _ending_tolls(self.matrix)
            values = np.zeros(1 << self.n)
            for i in range(self.n):
                half = 1 << i
                # gained[r]: tolls of trips exiting at i+1 that enter at i+1-r or later
                gained = ending[i + 1 : 0 : -1, i + 1].tolist()
                # the masks with bits i-1..i-r set and bit i-r-1 clear
                for r in range(i + 1):
                    lo, hi = half - (half >> r), half - (half >> (r + 1))
                    np.add(values[lo:hi], gained[r], out=values[half + lo : half + hi])
            self._mask_values = values
        return self._mask_values


def _doubling_sums(x: np.ndarray, dtype=float) -> np.ndarray:
    """``out[mask] = sum of x[i] over the bits i of mask``, for all ``2^len(x)``
    masks.  Each sum adds its terms lowest bit first."""
    out = np.zeros(1 << len(x), dtype=dtype)
    for i, xi in enumerate(x):
        half = 1 << i
        np.add(out[:half], xi, out=out[half : 2 * half])
    return out


def _split(vector: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of a ``2^n`` vector over the masks without and with bit ``i``,
    aligned so that ``with_i[j] = vector[without_i_mask[j] | 1 << i]``."""
    view = vector.reshape(-1, 2, 1 << i)
    return view[:, 0, :], view[:, 1, :]


def shapley_value(game: SegmentsGame) -> np.ndarray:
    """Exact Shapley value by full subset enumeration.

    Every coalition S not containing player i contributes its marginal
    ``v(S + i) - v(S)`` with weight ``|S|! (n - |S| - 1)! / n!``.  The
    marginals are taken on :func:`_split` views into one contiguous
    ``2^(n-1)`` buffer, whose slot ``j`` holds the coalition made of the
    other ``n - 1`` bits of ``j``; so one weight vector, looked up by the
    popcount of ``j``, serves every player.  Holds two ``2^(n-1)`` float
    vectors besides the worths.
    """
    n = game.n
    values = game.mask_values()
    fact = [1.0] * (n + 1)
    for s in range(1, n + 1):
        fact[s] = fact[s - 1] * s
    coeff = np.array([fact[s] * fact[n - s - 1] / fact[n] for s in range(n)])
    weight = coeff[_doubling_sums(np.ones(n - 1, dtype=np.uint8), dtype=np.uint8)]
    buffer = np.empty(len(weight))
    shapley = np.zeros(n)
    for i in range(n):
        without, with_i = _split(values, i)
        gains = buffer.reshape(without.shape)
        np.subtract(with_i, without, out=gains)
        buffer *= weight
        shapley[i] = float(gains.sum())
    return shapley


@dataclass(frozen=True)
class CompromiseBounds:
    """Per-player utopia payoffs and minimal rights, plus the efficiency mix.

    ``alpha`` is ``None`` when the two bounds coincide in aggregate.
    """

    utopia: np.ndarray
    minimal_rights: np.ndarray
    alpha: float | None


def compromise_bounds(game: SegmentsGame, *, tol: float = DEFAULT_TOL) -> CompromiseBounds:
    """Utopia vector M and minimal-rights vector m by full enumeration.

    ``M_i = v(N) - v(N without i)``; ``m_i`` maximizes, over all coalitions S
    containing i, what S can offer i after paying everyone else their utopia
    payoff.  The summed utopia payoffs of every coalition are a doubling
    sum, one ``2^n`` float vector besides the worths.  Laid out as a square
    whose columns run over the low bits and rows over the high bits, its
    column maxima hold each low player's maximum and its row maxima each
    high player's, which :func:`_split` views of those short vectors then
    take; ``max`` is exact in any order.
    """
    n = game.n
    values = game.mask_values()
    full = (1 << n) - 1
    grand = values[full]
    utopia = np.array([grand - values[full & ~(1 << i)] for i in range(n)])
    slack = _doubling_sums(utopia)
    np.subtract(values, slack, out=slack)
    low = n // 2
    square = slack.reshape(-1, 1 << low)
    columns, rows = square.max(axis=0), square.max(axis=1)
    rights = np.array([float(_split(columns, i)[1].max()) for i in range(low)]
                      + [float(_split(rows, i)[1].max()) for i in range(n - low)]) + utopia
    denom = float(utopia.sum() - rights.sum())
    alpha = (grand - float(rights.sum())) / denom if abs(denom) > allowance(tol, grand) else None
    return CompromiseBounds(utopia, rights, alpha)


def tau_value(game: SegmentsGame, *, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Compromise value: the efficient convex mix of minimal rights and
    utopia payoffs.  Raises :class:`TauUndefinedError` when the bounds
    coincide but are not efficient."""
    bounds = compromise_bounds(game, tol=tol)
    grand = game.grand_value
    if bounds.alpha is None:
        gap = abs(float(bounds.minimal_rights.sum()) - grand)
        if gap <= allowance(tol, grand):
            return bounds.minimal_rights.copy()
        raise TauUndefinedError(
            f"bounds coincide but miss the grand value by {gap:g}"
        )
    return bounds.minimal_rights + bounds.alpha * (bounds.utopia - bounds.minimal_rights)


def average_tree_value(game: SegmentsGame) -> np.ndarray:
    """Average-tree solution specialized to the line graph of segments.

    For player i with left block L = 1..i-1 and right block R = i+1..n, the
    n rooted trees contribute (i-1) marginals against R, one residual term,
    and (n-i) marginals against L, averaged over n.
    """
    n = game.n
    grand = game.grand_value
    interval = game._interval
    i = np.arange(1, n + 1)
    left = interval[1, :n]
    right = interval[2:, n]
    join_right = interval[1 : n + 1, n]
    join_left = interval[1, 1 : n + 1]
    return (
        (i - 1) * (join_right - right)
        + (grand - left - right)
        + (n - i) * (join_left - left)
    ) / n


# -- core membership --------------------------------------------------------

@dataclass(frozen=True)
class IntervalViolation:
    start: int
    end: int
    value: float
    allocated: float
    deficit: float


@dataclass(frozen=True)
class CoreReport:
    """Outcome of a core-membership test for one allocation."""

    is_member: bool
    efficient: bool
    efficiency_gap: float
    violations: tuple[IntervalViolation, ...]

    def to_json_dict(self) -> dict:
        return {
            "is_member": self.is_member,
            "efficient": self.efficient,
            "efficiency_gap": self.efficiency_gap,
            "violations": [
                {
                    "interval": [v.start, v.end],
                    "value": v.value,
                    "allocated": v.allocated,
                    "deficit": v.deficit,
                }
                for v in self.violations
            ],
        }


def _check_shares(game: SegmentsGame, shares: Sequence[float]) -> np.ndarray:
    x = np.asarray(shares, dtype=float)
    if x.ndim != 1 or len(x) != game.n:
        raise LengthMismatchError(game.n, int(x.size))
    if not np.all(np.isfinite(x)) or np.any(x < 0.0):
        raise InvalidAllocationError("allocation must be a finite nonnegative vector")
    return x


def _prefix(x: np.ndarray) -> np.ndarray:
    return np.concatenate([[0.0], np.cumsum(x)])


def _bands(game: SegmentsGame):
    """Consecutive bands of start rows ``s0..s1-1`` (0-based) over the end
    columns ``s0..n-1``, of at most :data:`BAND_CELLS` cells unless one row
    is wider.  Yields ``s0``, ``s1``, the band's interval worths and the mask
    of its intervals ``[s, e]``, ``s <= e``, other than the grand coalition."""
    n, s0 = game.n, 0
    while s0 < n:
        s1 = min(n, s0 + max(1, BAND_CELLS // (n - s0)))
        proper = np.arange(s0, n) >= np.arange(s0, s1)[:, None]
        if s0 == 0:
            proper[0, n - 1] = False
        yield s0, s1, game._interval[s0 + 1 : s1 + 1, s0 + 1 : n + 1], proper
        s0 = s1


def core_check(
    game: SegmentsGame,
    shares: Sequence[float],
    tol: float = DEFAULT_TOL,
) -> CoreReport:
    """Interval-based core test.

    Checks efficiency plus the stability inequality on every contiguous
    coalition.  For this game class, a nonnegative allocation that satisfies
    all interval inequalities satisfies them for arbitrary coalitions too,
    because a coalition's worth is the sum over its contiguous blocks while
    its allocated total only grows with extra members.  The intervals are
    compared a band of start rows at a time (:func:`_bands`); violations are
    listed by start, then end.
    """
    x = _check_shares(game, shares)
    n = game.n
    slack = allowance(tol, game.grand_value)
    prefix = _prefix(x)
    gap = float(prefix[n] - game.grand_value)
    efficient = abs(gap) <= slack
    found: list = []
    for s0, s1, worth, short in _bands(game):
        # the sum over segments s..e is prefix[e] - prefix[s-1]
        allocated = prefix[s0 + 1 :] - prefix[s0:s1, None]
        short &= allocated < worth - slack
        if not short.any():
            continue
        starts, ends = np.nonzero(short)
        found += zip((starts + s0 + 1).tolist(), (ends + s0 + 1).tolist(),
                     worth[starts, ends].tolist(), allocated[starts, ends].tolist())
    violations = tuple(IntervalViolation(s, e, w, a, w - a) for s, e, w, a in found)
    return CoreReport(
        is_member=efficient and not violations,
        efficient=efficient,
        efficiency_gap=gap,
        violations=violations,
    )


def core_check_exhaustive(
    game: SegmentsGame,
    shares: Sequence[float],
    tol: float = DEFAULT_TOL,
) -> tuple[bool, list[tuple[int, ...]]]:
    """Full ``2^n`` core test; a cross-check for :func:`core_check`.

    Returns membership plus the violating coalitions as member tuples, in
    ascending mask order.  Every coalition's allocated total is a doubling
    sum; two ``2^n`` float vectors besides the worths.
    """
    x = _check_shares(game, shares)
    values = game.mask_values()
    slack = allowance(tol, game.grand_value)
    efficient = abs(float(x.sum()) - game.grand_value) <= slack
    short = _doubling_sums(x) < values - slack
    # the empty and the grand coalition are not stability constraints
    short[0] = short[-1] = False
    n = game.n
    violating = [
        tuple(i + 1 for i in range(n) if mask >> i & 1)
        for mask in np.flatnonzero(short).tolist()
    ]
    return efficient and not violating, violating


@dataclass(frozen=True)
class SpsCoreCriterion:
    """Closed-form test of whether the proportional method is stable.

    The proportional allocation lies in the core exactly when ``beta`` is at
    least the worst ratio of an interval's uncovered worth to its pooled
    involvement; ``worst_interval`` attains ``rhs_max``.
    """

    satisfied: bool
    worst_interval: tuple[int, int] | None
    rhs_max: float | None
    beta: float | None


def sps_core_criterion(
    matrix: TollMatrix | SegmentsGame, tol: float = DEFAULT_TOL,
    decomposition: SpsDecomposition | None = None,
) -> SpsCoreCriterion:
    """Evaluate the criterion on a toll matrix, or on the :class:`SegmentsGame`
    already built from one, whose interval worths are then reused;
    ``decomposition``, the matrix's :func:`sps_decomposition` where the
    caller holds it already, is reused too."""
    if isinstance(matrix, SegmentsGame):
        game, matrix = matrix, matrix.matrix
    else:
        game = None
    d = sps_decomposition(matrix) if decomposition is None else decomposition
    if d.beta is None:
        return SpsCoreCriterion(True, None, None, None)
    game = game if game is not None else SegmentsGame(matrix)
    separable, nonseparable = _prefix(d.separable), _prefix(d.nonseparable)
    # each band holds rhs = (worth - separable) / nonseparable and its
    # denominators; a running maximum, replaced only by a greater one, keeps
    # argmax's first maximum in (start, end) order across the bands
    rhs_max, start, end = -np.inf, 0, 0
    for s0, s1, worth, counted in _bands(game):
        rhs = separable[s0 + 1 :] - separable[s0:s1, None]
        np.subtract(worth, rhs, out=rhs)
        denom = nonseparable[s0 + 1 :] - nonseparable[s0:s1, None]
        counted &= denom > 0.0
        np.divide(rhs, denom, out=rhs, where=counted)
        rhs[~counted] = -np.inf
        best = int(np.argmax(rhs))
        if rhs.flat[best] > rhs_max:
            rhs_max = float(rhs.flat[best])
            row, col = divmod(best, rhs.shape[1])
            start, end = s0 + row, s0 + col
    return SpsCoreCriterion(d.beta >= rhs_max - tol, (start + 1, end + 1), rhs_max, d.beta)


def core_scheme_check(scheme: WeightScheme, n: int, tol: float = DEFAULT_TOL) -> bool:
    """Certificate that every allocation of a weight scheme is stable.

    True exactly when the scheme ignores the toll matrix and its weights sum
    to 1 over every trip, so each trip's toll is fully handed out to the
    segments of that trip.
    """
    if not scheme.t_independent:
        return False
    weight = scheme.weights_for(TollMatrix.zero(n))
    for h in range(1, n + 1):
        for k in range(h, n + 1):
            total = sum(weight(h, k, i) for i in range(h, k + 1))
            if abs(total - 1.0) > tol:
                return False
    return True
