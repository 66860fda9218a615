"""Coalition-value view of a toll problem and brute-force solution oracles.

A coalition of segments is worth the tolls of the trips it fully contains.
Because trips are contiguous, a coalition's worth decomposes over its maximal
contiguous blocks, which is what makes the interval-based core test
sufficient for nonnegative allocations.

The Shapley, compromise (tau) and average-tree solutions are computed here by
exhaustive enumeration on purpose: they serve as independent cross-checks of
the closed-form allocation methods, so they must not share code with them.
The worths of :meth:`SegmentsGame.mask_values` are their only ``2^n`` vector,
which :data:`EXHAUSTIVE_CEILING` bounds; they read it in blocks of
:data:`ORACLE_BLOCK` masks.  No ``n x n`` table is kept: the interval
core tests and the average-tree value read the interval worths from one
sweep (:func:`_sweep`) in bands of at most :data:`BAND_CELLS` cells, and
:data:`SWEEP_CEILING` bounds the ``O(n^2)`` time of that sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

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

#: Largest ``n`` for the ``2^n`` worth vector, the one size bound of the
#: exhaustive oracles: its 22 segments (the AP68 case study) take 32 MB.
EXHAUSTIVE_CEILING = 22

#: Masks in one block of the exhaustive oracles, which hold about one block
#: of floats per segment past the block's own bits.  A block's sum is one node of the
#: pairwise sum numpy takes over a whole vector: that sum splits a
#: power-of-two length into exact halves, down to leaves of 128 elements.
#: So the block sums, combined as a perfect binary tree (:func:`_tree_sum`),
#: give the bits of one sum over all masks, as long as this is a power of
#: two of at least 2^7.
ORACLE_BLOCK = 1 << 13

#: Largest ``n`` whose game is built, a bound on the ``O(n^2)`` time of the
#: interval sweep.  One sweep serving three core tests and the sps criterion
#: took 20 ns per interval at n = 2000 to 8000 (2-vCPU Linux host, numpy
#: 2.4.6), so the ``n(n+1)/2`` intervals of n = 16,383 take about 2.7 s.
SWEEP_CEILING = (1 << 14) - 1

#: Cells of one band of start rows in the sweep (see :func:`_sweep`).
BAND_CELLS = 1 << 15


class SegmentsGame:
    """Characteristic function derived from a toll matrix.

    ``value(S)`` is the total toll of trips whose whole path lies in ``S``.
    Raises :class:`OracleSizeError` above :data:`SWEEP_CEILING` segments.
    """

    def __init__(self, matrix: TollMatrix):
        if matrix.n > SWEEP_CEILING:
            raise OracleSizeError(matrix.n, SWEEP_CEILING, "interval sweep")
        self.matrix = matrix
        self.n = matrix.n
        self._mask_values: np.ndarray | None = None

    def _row(self, start: int) -> np.ndarray:
        """Worths of the intervals ``start..e`` for ``e = start..n``, with the
        float additions of :func:`_sweep`: per exit ``k``, ``S[start, k]``
        adds the tolls of the trips ``[h, k]``, ``h >= start``, from the last
        entry up, and the worths are its running sums over ``k``."""
        entry, exit, toll = self.matrix.columns
        ending = np.zeros(self.n + 1)
        first = int(np.searchsorted(entry, start))
        np.add.at(ending, exit[first:][::-1], toll[first:][::-1])
        return np.cumsum(ending[start:])

    @cached_property
    def grand_value(self) -> float:
        return float(self._row(1)[-1])

    def interval_value(self, start: int, end: int) -> float:
        """Worth of the contiguous coalition ``start..end`` (0 when empty)."""
        if start > end:
            return 0.0
        if not (1 <= start and end <= self.n):
            raise SegmentIndexError(f"interval [{start},{end}] out of range 1..{self.n}")
        return float(self._row(start)[end - start])

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
            value += self.interval_value(low + 1, end + 1)
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
            ending = np.zeros((self.n, self.n))
            for s0, s1, band in _ending_bands(self):
                ending[s0:s1, s0:] = band
            values = np.zeros(1 << self.n)
            for i in range(self.n):
                half = 1 << i
                # gained[r]: tolls of trips exiting at i+1 that enter at i+1-r or later
                gained = ending[i::-1, i].tolist()
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


def _block_bits(n: int) -> int:
    """``b`` such that the ``2^n`` masks of ``n`` bits fall in blocks of
    ``2^b``: :data:`ORACLE_BLOCK`, or one block when that is larger."""
    return min(n, ORACLE_BLOCK.bit_length() - 1)


def _block_sums(x: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """``(high, sums)`` for each block of the ``2^len(x)`` masks, with
    ``sums[low] = _doubling_sums(x)[high << b | low]`` bit for bit, where
    ``b = _block_bits(len(x))``.

    The sums over the low ``b`` bits are taken once; the block ``high`` adds
    ``x[b + k]`` for each bit ``k`` of ``high``, lowest first, which is the
    fold order of :func:`_doubling_sums`.  The blocks are walked depth first
    over those bits, so each adds only its highest bit, to the sums of the
    block without it: one addition per mask, with one spare block per high
    bit.  They come in bit-reversed order of ``high``, and a later block may
    overwrite ``sums``.
    """
    bits = _block_bits(len(x))
    tops = x[bits:]
    spare = np.empty((len(tops), 1 << bits))

    def walk(sums: np.ndarray, high: int, k: int) -> Iterator[tuple[int, np.ndarray]]:
        if k == len(tops):
            yield high, sums
            return
        yield from walk(sums, high, k + 1)
        np.add(sums, tops[k], out=spare[k])
        yield from walk(spare[k], high | 1 << k, k + 1)

    return walk(_doubling_sums(x[:bits]), 0, 0)


def _tree_sum(parts: np.ndarray) -> float:
    """Sum of a power-of-two number of block sums, adjacent pairs first."""
    while len(parts) > 1:
        parts = parts[0::2] + parts[1::2]
    return float(parts[0])


def _split(vector: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of a ``2^n`` vector over the masks without and with bit ``i``,
    aligned so that ``with_i[j] = vector[without_i_mask[j] | 1 << i]``."""
    view = vector.reshape(-1, 2, 1 << i)
    return view[:, 0, :], view[:, 1, :]


def shapley_value(game: SegmentsGame) -> np.ndarray:
    """Exact Shapley value by full subset enumeration.

    Every coalition S not containing player i contributes its marginal
    ``v(S + i) - v(S)`` with weight ``|S|! (n - |S| - 1)! / n!``.  Slot
    ``j`` of player i's ``2^(n-1)`` marginals holds the coalition made of
    the other ``n - 1`` bits of ``j``, so one weight, looked up by the
    popcount of ``j``, serves every player.  The slots go a block of
    :data:`ORACLE_BLOCK` at a time: when ``2^i`` is below the block, player
    i's :func:`_split` views of all worths are built once, and each block
    takes its rows of them, else two slices ``2^i`` apart.  Players 1 and 2
    subtract one column of those rows at a time: their two halves
    interleave in runs of 2 and 4 floats, so a whole-view subtract would
    run numpy's inner loop over 2 or 4 floats per call, where a column is
    one long strided loop.  Every marginal is the same float either way.
    A block's weights depend only on the popcount of its high bits and are
    built once per popcount; the block sums combine by :func:`_tree_sum`.
    Besides the worths, holds one block of floats per high bit and two
    more.
    """
    n = game.n
    values = game.mask_values()
    fact = [1.0] * (n + 1)
    for s in range(1, n + 1):
        fact[s] = fact[s - 1] * s
    coeff = np.array([fact[s] * fact[n - s - 1] / fact[n] for s in range(n)])
    bits = _block_bits(n - 1)
    block = 1 << bits
    low_popcounts = _doubling_sums(np.ones(bits, dtype=np.uint8), dtype=np.uint8)
    weights = [coeff[h : h + bits + 1][low_popcounts] for h in range(n - bits)]
    buffer = np.empty(block)
    parts = np.empty(1 << (n - 1 - bits))
    shapley = np.zeros(n)
    for i in range(n):
        if i < bits:
            without, with_i = _split(values, i)
            gains = buffer.reshape(-1, 1 << i)
            rows = len(gains)
        for high in range(len(parts)):
            # the worth of slot j is at mask j with a 0 put in at bit i
            if i < bits:
                span = slice(high * rows, (high + 1) * rows)
                if i in (1, 2):
                    for r in range(1 << i):
                        np.subtract(with_i[span, r], without[span, r], out=gains[:, r])
                else:
                    np.subtract(with_i[span], without[span], out=gains)
            else:
                start = (high << bits) + (high << bits >> i << i)
                np.subtract(values[start + (1 << i) : start + (1 << i) + block],
                            values[start : start + block], out=buffer)
            buffer *= weights[high.bit_count()]
            parts[high] = buffer.sum()
        shapley[i] = _tree_sum(parts)
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
    payoff.  The summed utopia payoffs come a block of masks at a time from
    :func:`_block_sums`.  The running maxima over the blocks, slot by slot,
    hold each low player's maximum and the maxima of the blocks each high
    player's, which :func:`_split` views of those short vectors then take;
    ``max`` is exact in any order.  Besides the worths, holds one block of
    floats per high bit and three more.
    """
    n = game.n
    values = game.mask_values()
    full = (1 << n) - 1
    grand = values[full]
    utopia = np.array([grand - values[full & ~(1 << i)] for i in range(n)])
    bits = _block_bits(n)
    block = 1 << bits
    slack = np.empty(block)
    columns = np.full(block, -np.inf)
    rows = np.empty(1 << (n - bits))
    for high, sums in _block_sums(utopia):
        np.subtract(values[high * block : (high + 1) * block], sums, out=slack)
        np.maximum(columns, slack, out=columns)
        rows[high] = slack.max()
    rights = np.array([float(_split(columns, i)[1].max()) for i in range(bits)]
                      + [float(_split(rows, i)[1].max()) for i in range(n - bits)]) + utopia
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
    and (n-i) marginals against L, averaged over n.  The worths of the
    intervals ``1..e`` and ``s..n`` are the first row and the last column
    of the interval table; the last column comes from one :func:`_sweep`.
    """
    n = game.n
    grand = game.grand_value
    i = np.arange(1, n + 1)
    join_left = game._row(1)
    ends = [worth[:, -1].copy() for _, _, worth in _sweep(game)]
    join_right = np.concatenate(ends[::-1])
    left = np.concatenate([[0.0], join_left[:-1]])
    right = np.append(join_right[1:], 0.0)
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


def _ending_bands(game: SegmentsGame) -> Iterator[tuple[int, int, np.ndarray]]:
    """``S[a, k]``, the toll of the trips that exit at ``k`` and enter at
    ``a`` or later, in bands of start rows ``s0..s1-1`` (0-based) from the
    bottom row up: ``ending[s - s0, k - s0]`` is ``S[s+1, k+1]`` for
    ``k = s0..n-1``.  A band holds at most :data:`BAND_CELLS` cells unless
    one row is wider; the caller may overwrite it.

    ``S[a, k]`` is ``S[a+1, k]`` plus the toll of ``[a, k]``: a band
    scatters the tolls of the trips entering in it under the ``S`` row
    carried from below it, takes one reversed ``cumsum`` over the rows and
    carries its top row up.  So every ``S[a, k]`` takes the additions of
    one reversed ``cumsum`` over a full table, wherever the bands fall.
    """
    n = game.n
    entry, exit, toll = game.matrix.columns
    carry = np.zeros(0)
    s1 = n
    while s1 > 0:
        # the most rows r whose band, r rows of n - s1 + r cells, fits the budget
        width = n - s1
        rows = min(s1, max(1, (math.isqrt(width * width + 4 * BAND_CELLS) - width) // 2))
        s0 = s1 - rows
        block = np.zeros((rows + 1, n - s0))
        block[rows, rows:] = carry
        first, last = np.searchsorted(entry, (s0 + 1, s1 + 1))
        block[entry[first:last] - 1 - s0, exit[first:last] - 1 - s0] = toll[first:last]
        np.cumsum(block[::-1], axis=0, out=block[::-1])
        carry = block[0].copy()
        yield s0, s1, block[:rows]
        s1 = s0


def _sweep(game: SegmentsGame) -> Iterator[tuple[int, int, np.ndarray]]:
    """The interval worths in the bands of :func:`_ending_bands`: ``worth[s - s0,
    e - s0]``, the worth of ``[s+1, e+1]``, is the running sum of ``S[s+1, k]``
    over ``k <= e`` (0 where ``e < s``), with the additions of two full-table
    ``cumsum``."""
    for s0, s1, ending in _ending_bands(game):
        yield s0, s1, np.cumsum(ending, axis=1, out=ending)


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
    compared a band of start rows at a time (:func:`interval_tests`);
    violations are listed by start, then end.
    """
    return interval_tests(game, [shares], tol)[0][0]


def core_check_exhaustive(
    game: SegmentsGame,
    shares: Sequence[float],
    tol: float = DEFAULT_TOL,
) -> tuple[bool, list[tuple[int, ...]]]:
    """Full ``2^n`` core test; a cross-check for :func:`core_check`.

    Returns membership plus the violating coalitions as member tuples, in
    ascending mask order.  The coalitions' allocated totals come a block of
    masks at a time from :func:`_block_sums`.  Besides the worths and the
    violations, holds one block of floats per high bit and two more.
    """
    x = _check_shares(game, shares)
    values = game.mask_values()
    slack = allowance(tol, game.grand_value)
    efficient = abs(float(x.sum()) - game.grand_value) <= slack
    n = game.n
    block = 1 << _block_bits(n)
    found: list[list[int]] = [[] for _ in range(len(values) // block)]
    for high, sums in _block_sums(x):
        start = high * block
        short = sums < values[start : start + block] - slack
        found[high] = (np.flatnonzero(short) + start).tolist()
    # the empty and the grand coalition are not stability constraints
    full = len(values) - 1
    violating = [
        tuple(i + 1 for i in range(n) if mask >> i & 1)
        for masks in found for mask in masks if 0 < mask < full
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
) -> SpsCoreCriterion:
    """Evaluate the criterion on a toll matrix, or on the :class:`SegmentsGame`
    already built from one.  A matrix gets its game only when ``beta`` is
    defined."""
    if isinstance(matrix, SegmentsGame):
        game, matrix = matrix, matrix.matrix
    else:
        game = None
    d = sps_decomposition(matrix)
    if d.beta is None:
        return SpsCoreCriterion(True, None, None, None)
    game = game if game is not None else SegmentsGame(matrix)
    return interval_tests(game, [], tol, d)[1]


def interval_tests(
    game: SegmentsGame,
    allocations: Sequence[Sequence[float]],
    tol: float = DEFAULT_TOL,
    decomposition: SpsDecomposition | None = None,
) -> tuple[list[CoreReport], SpsCoreCriterion | None]:
    """:func:`core_check` of each allocation and, given the matrix's
    :func:`sps_decomposition`, :func:`sps_core_criterion` (else ``None``),
    all from one :func:`_sweep` of the interval worths.

    The bands come bottom row first.  So each report lists its bands'
    violations in reverse, and an equal maximum of a later band, whose
    start rows are lower, replaces the criterion's running maximum: that
    keeps ``np.argmax``'s first maximum in (start, end) order.
    """
    xs = [_check_shares(game, shares) for shares in allocations]
    n, grand = game.n, game.grand_value
    slack = allowance(tol, grand)
    prefixes = [_prefix(x) for x in xs]
    found: list[list[list]] = [[] for _ in xs]
    criterion = decomposition is not None and decomposition.beta is not None
    if criterion:
        separable = _prefix(decomposition.separable)
        nonseparable = _prefix(decomposition.nonseparable)
    rhs_max, start, end = -np.inf, 0, 0
    for s0, s1, worth in _sweep(game):
        # the intervals [s, e], s <= e, other than the grand coalition
        proper = np.arange(s0, n) >= np.arange(s0, s1)[:, None]
        if s0 == 0:
            proper[0, n - 1] = False
        limit = worth - slack
        for prefix, bands in zip(prefixes, found):
            # the sum over segments s..e is prefix[e] - prefix[s-1]
            allocated = prefix[s0 + 1 :] - prefix[s0:s1, None]
            short = proper & (allocated < limit)
            if short.any():
                starts, ends = np.nonzero(short)
                bands.append(list(zip((starts + s0 + 1).tolist(), (ends + s0 + 1).tolist(),
                                      worth[starts, ends].tolist(),
                                      allocated[starts, ends].tolist())))
        if criterion:
            # rhs = (worth - separable) / nonseparable where that counts, else -inf
            rhs = separable[s0 + 1 :] - separable[s0:s1, None]
            np.subtract(worth, rhs, out=rhs)
            denom = nonseparable[s0 + 1 :] - nonseparable[s0:s1, None]
            counted = proper & (denom > 0.0)
            np.divide(rhs, denom, out=rhs, where=counted)
            rhs[~counted] = -np.inf
            best = int(np.argmax(rhs))
            if rhs.flat[best] >= rhs_max:
                rhs_max = float(rhs.flat[best])
                row, col = divmod(best, rhs.shape[1])
                start, end = s0 + row, s0 + col
    reports = []
    for prefix, bands in zip(prefixes, found):
        violations = tuple(IntervalViolation(s, e, w, a, w - a)
                           for band in reversed(bands) for s, e, w, a in band)
        gap = float(prefix[n] - grand)
        efficient = abs(gap) <= slack
        reports.append(CoreReport(efficient and not violations, efficient, gap, violations))
    if decomposition is None:
        return reports, None
    if not criterion:
        return reports, SpsCoreCriterion(True, None, None, None)
    beta = decomposition.beta
    return reports, SpsCoreCriterion(beta >= rhs_max - tol, (start + 1, end + 1), rhs_max, beta)


def core_scheme_check(scheme: WeightScheme, n: int, tol: float = DEFAULT_TOL) -> bool:
    """Certificate that every allocation of a weight scheme is stable.

    True exactly when the scheme ignores the toll matrix and its weights sum
    to 1 over every trip, so each trip's toll is fully handed out to the
    segments of that trip.
    """
    if not scheme.t_independent:
        return False
    weight = scheme.factory(TollMatrix.zero(n))
    for h in range(1, n + 1):
        for k in range(h, n + 1):
            total = sum(weight(h, k, i) for i in range(h, k + 1))
            if abs(total - 1.0) > tol:
                return False
    return True
