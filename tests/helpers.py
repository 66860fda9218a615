"""Shared test utilities: deterministic matrix populations and slow oracles."""

from __future__ import annotations

import csv
import math
import os
from itertools import accumulate

import numpy as np
import pytest

from tollshare import (
    DuplicateTripError,
    SegmentIndexError,
    SegmentsGame,
    SpsDecomposition,
    TollMatrix,
    TollValidationError,
    model,
    random_matrix,
)
from tollshare.game import (
    CompromiseBounds,
    CoreReport,
    IntervalViolation,
    SpsCoreCriterion,
    _check_shares,
    _doubling_sums,
    _prefix,
    _split,
)
from tollshare.methods import sps_decomposition
from tollshare.model import DEFAULT_TOL, allowance


def seeded_matrices(
    count: int,
    sizes=(2, 3, 4, 5, 6, 7, 8),
    densities=(0.3, 1.0),
    max_toll: float = 10.0,
    seed_base: int = 0,
):
    """Deterministic population cycling over sizes and densities."""
    for idx in range(count):
        n = sizes[idx % len(sizes)]
        density = densities[(idx // len(sizes)) % len(densities)]
        yield random_matrix(n, density=density, max_toll=max_toll, seed=seed_base + idx)


def coalition_value_by_enumeration(matrix: TollMatrix, members) -> float:
    """Trip-by-trip coalition worth, independent of SegmentsGame internals."""
    included = set(members)
    value = 0.0
    for (h, k), t in matrix.trips():
        if all(i in included for i in range(h, k + 1)):
            value += t
    return value


def all_coalitions(n: int):
    for mask in range(1 << n):
        yield [i + 1 for i in range(n) if mask >> i & 1]


def perturbed_allocation(shares: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Move random mass between segments, keeping the vector nonnegative.

    Preserves the total, so efficiency still holds while core inequalities
    may break.
    """
    x = shares.copy()
    if len(x) < 2:
        return x
    src = int(rng.integers(0, len(x)))
    dst = int(rng.integers(0, len(x)))
    if src == dst:
        dst = (dst + 1) % len(x)
    amount = float(rng.uniform(0.0, x[src])) if x[src] > 0 else 0.0
    x[src] -= amount
    x[dst] += amount
    return x


# -- loop references for the coverage-kernel methods --------------------------
#
# These are the per-trip slice loops that ses, sps_decomposition and scs ran
# before they moved onto ``tollshare.model.coverage``.

def ses_loop(matrix: TollMatrix) -> np.ndarray:
    shares = np.zeros(matrix.n)
    for (h, k), toll in matrix.trips():
        shares[h - 1 : k] += toll / (k - h + 1)
    return shares


def exact_loads_loop(n, entry, exit, weights, segments) -> list[float]:
    """``model._exact_loads`` as ``coverage`` computed it before: one
    ``math.fsum`` per segment over a mask of every trip, O(n * T)."""
    return [math.fsum(weights[(entry <= i) & (i <= exit)].tolist()) for i in segments]


def coverage_loop_settle(matrix: TollMatrix, weights) -> np.ndarray:
    """``coverage``'s loop lane as it was before it handed an open segment
    to the array lane: its own pass for the weight entered up to each
    segment and its own settle, on the loop's prefix sums."""
    n = matrix.n
    weights = list(weights)
    diff = [0.0] * (n + 1)
    count = [0] * (n + 1)
    for (h, k), w in zip(matrix.entries, weights):
        if w:
            diff[h - 1] += w
            diff[k] -= w
            count[h - 1] += 1
            count[k] -= 1
    quick = 2.0 * model._RESIDUE * n * sum(weights)
    loads = [(s if s > quick else None) if c else 0.0
             for s, c in zip(accumulate(diff[:n]), accumulate(count[:n]))]
    if None in loads:
        by_entry = [0.0] * n
        for (h, _), w in zip(matrix.entries, weights):
            by_entry[h - 1] += w
        residue = model._RESIDUE * n
        loads = [(s if s > residue * e else None) if load is None else load
                 for load, s, e in zip(loads, accumulate(diff[:n]), accumulate(by_entry))]
        segments = [i for i, load in enumerate(loads, start=1) if load is None]
        if segments:
            entry, exit, _ = matrix.columns
            exact = model._exact_loads(n, entry, exit, np.array(weights), segments)
            for i, load in zip(segments, exact):
                loads[i - 1] = load
    return np.array(loads)


def coverage_two_step(matrix: TollMatrix, weights) -> np.ndarray:
    """``coverage`` as it settled before the rule was stated once: each lane
    clears what the bound on the total weight clears (``clear_loads``), and
    the array lane decides the rest by the per-segment bound (``settle``)."""
    n = matrix.n
    columns = model.array_lane(matrix)
    if columns is None:
        weights = list(weights)
        diff = [0.0] * (n + 1)
        count = [0] * (n + 1)
        for (h, k), w in zip(matrix.entries, weights):
            if w:
                diff[h - 1] += w
                diff[k] -= w
                count[h - 1] += 1
                count[k] -= 1
        loads = clear_loads(n, accumulate(diff[:n]), accumulate(count[:n]), sum(weights))
        if None not in loads:
            return np.array(loads)
        columns = matrix.columns
    entry, exit, _ = columns
    if not isinstance(weights, np.ndarray):
        weights = np.fromiter(weights, dtype=float, count=len(entry))
    start = entry - 1
    diff = -np.bincount(exit, weights, minlength=n + 1)
    np.add.at(diff, start, weights)
    live = weights != 0.0
    count = np.bincount(start[live], minlength=n + 1) - np.bincount(exit[live], minlength=n + 1)
    prefix = np.cumsum(diff[:n]).tolist()
    loads = clear_loads(n, prefix, np.cumsum(count[:n]).tolist(), float(weights.sum()))
    if None in loads:
        loads = settle(loads, prefix, entry, exit, weights)
    return np.array(loads)


def clear_loads(n, prefix, covering, total) -> list:
    """Loads where the bound on ``total`` clears them: 0 where ``covering``
    counts no trip, the prefix sum where it is above twice that bound, and
    ``None`` elsewhere."""
    quick = 2.0 * model._RESIDUE * n * total
    return [(s if s > quick else None) if c else 0.0 for s, c in zip(prefix, covering)]


def settle(loads, prefix, entry, exit, weights) -> list[float]:
    """``loads`` with each ``None`` decided by the per-segment bound, and
    the segments that miss it summed by ``model._exact_loads``."""
    n = len(loads)
    residue = model._RESIDUE * n
    entered = np.cumsum(np.bincount(entry - 1, weights, minlength=n)).tolist()
    loads = [(s if s > residue * e else None) if load is None else load
             for load, s, e in zip(loads, prefix, entered)]
    segments = [i for i, load in enumerate(loads, start=1) if load is None]
    if segments:
        for i, load in zip(segments, model._exact_loads(n, entry, exit, weights, segments)):
            loads[i - 1] = load
    return loads


def sps_decomposition_loop(matrix: TollMatrix) -> SpsDecomposition:
    separable = matrix.diagonal()
    involvement = np.zeros(matrix.n)
    for (h, k), toll in matrix.trips():
        involvement[h - 1 : k] += toll
    nonseparable = involvement - separable
    pooled = matrix.total - float(separable.sum())
    denom = float(nonseparable.sum())
    beta = pooled / denom if denom > 0.0 else None
    return SpsDecomposition(separable, nonseparable, pooled, beta)


def sps_loop(matrix: TollMatrix) -> np.ndarray:
    d = sps_decomposition_loop(matrix)
    if d.beta is None:
        return d.separable.copy()
    return d.separable + d.beta * d.nonseparable


def scs_loop(matrix: TollMatrix) -> np.ndarray:
    n = matrix.n
    shares = np.zeros(n)
    for (h, k), toll in matrix.trips():
        if h == k:
            shares[h - 1] += toll
            continue
        shares[h - 1] += toll * h / n
        shares[k - 1] += toll * (n - k + 1) / n
        if k - h > 1:
            shares[h : k - 1] += toll / n
    return shares


# -- loop references for the exhaustive game oracles --------------------------
#
# The worth DP before it took one contiguous block per run length, the
# per-player passes of shapley_value and compromise_bounds before they read
# one contiguous weight vector and the row and column maxima of a square,
# and core_check_exhaustive as it compared two whole 2^n vectors.  The
# oracles now read the worths in blocks of game.ORACLE_BLOCK masks; the
# output bits must stay identical.

def mask_values_run_loop(matrix: TollMatrix) -> np.ndarray:
    """Coalition worths by a per-mask run length that doubles with them."""
    n = matrix.n
    ending = ending_tolls(matrix)
    values = np.zeros(1 << n)
    run = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        half = 1 << i
        gained = ending[i + 1 : 0 : -1, i + 1]
        np.take(gained, run[:half], out=values[half : 2 * half])
        values[half : 2 * half] += values[:half]
        np.add(run[:half], 1, out=run[half : 2 * half])
        run[:half] = 0
    return values


def shapley_strided_loop(game: SegmentsGame) -> np.ndarray:
    """Marginals on ``_split`` views, weighted by a strided ``2^n`` weight view."""
    n = game.n
    values = game.mask_values()
    fact = [1.0] * (n + 1)
    for s in range(1, n + 1):
        fact[s] = fact[s - 1] * s
    coeff = np.array([fact[s] * fact[n - s - 1] / fact[n] for s in range(n)] + [0.0])
    weight = coeff[_doubling_sums(np.ones(n, dtype=np.uint8), dtype=np.uint8)]
    buffer = np.empty(len(values) // 2)
    shapley = np.zeros(n)
    for i in range(n):
        without, with_i = _split(values, i)
        gains = buffer.reshape(without.shape)
        np.subtract(with_i, without, out=gains)
        gains *= _split(weight, i)[0]
        shapley[i] = float(gains.sum())
    return shapley


def compromise_bounds_loop(game: SegmentsGame, tol: float = DEFAULT_TOL) -> CompromiseBounds:
    """Minimal rights as one maximum per player over a ``_split`` half-vector."""
    n = game.n
    values = game.mask_values()
    full = (1 << n) - 1
    grand = values[full]
    utopia = np.array([grand - values[full & ~(1 << i)] for i in range(n)])
    slack = _doubling_sums(utopia)
    np.subtract(values, slack, out=slack)
    rights = np.array([float(_split(slack, i)[1].max()) for i in range(n)]) + utopia
    denom = float(utopia.sum() - rights.sum())
    alpha = None
    if abs(denom) > tol * max(1.0, abs(grand)):
        alpha = (grand - float(rights.sum())) / denom
    return CompromiseBounds(utopia, rights, alpha)


def core_check_exhaustive_full(game: SegmentsGame, shares, tol: float = DEFAULT_TOL):
    """Membership and violating coalitions from every coalition's allocated
    total as one doubling sum over all ``2^n`` masks."""
    x = _check_shares(game, shares)
    values = game.mask_values()
    slack = allowance(tol, game.grand_value)
    efficient = abs(float(x.sum()) - game.grand_value) <= slack
    short = _doubling_sums(x) < values - slack
    short[0] = short[-1] = False
    violating = [tuple(i + 1 for i in range(game.n) if mask >> i & 1)
                 for mask in np.flatnonzero(short).tolist()]
    return efficient and not violating, violating


# -- full-grid references for the interval core tests -------------------------
#
# The interval worths as one ``(n+2) x (n+2)`` table, the way SegmentsGame
# built it before it swept bands of start rows, and core_check and
# sps_core_criterion over every interval of that table at once, as ``n x n``
# arrays.  The worths and the reports must stay equal, float bits included.

def ending_tolls(matrix: TollMatrix) -> np.ndarray:
    """``S[a, k]``: the total toll of the trips that exit at ``k`` and enter at
    ``a`` or later, on a zero-padded 1-based ``(n+2) x (n+2)`` grid: a suffix
    sum over entries."""
    n = matrix.n
    dense = np.zeros((n + 2, n + 2))
    entry, exit, toll = matrix.columns
    dense[entry, exit] = toll
    return np.cumsum(dense[::-1], axis=0)[::-1]


def interval_grid(matrix: TollMatrix) -> np.ndarray:
    """``grid[a, b]``: the total toll of the trips inside ``[a, b]``, 1-based,
    0 when ``a > b``: :func:`ending_tolls`, then a prefix sum over exits."""
    return np.cumsum(ending_tolls(matrix), axis=1)


def _span_sums(prefix: np.ndarray) -> np.ndarray:
    """``out[s-1, e-1] = prefix[e] - prefix[s-1]``, the sum over segments
    ``s..e``; only entries with ``s <= e`` mean anything."""
    return prefix[None, 1:] - prefix[:-1, None]


def _proper_intervals(n: int) -> np.ndarray:
    """Mask of the intervals ``[s, e]``, ``s <= e``, other than the grand
    coalition, in the layout of :func:`_span_sums`."""
    mask = np.triu(np.ones((n, n), dtype=bool))
    mask[0, n - 1] = False
    return mask


def core_check_full_grid(game: SegmentsGame, shares, tol: float = DEFAULT_TOL) -> CoreReport:
    x = _check_shares(game, shares)
    n = game.n
    grid = interval_grid(game.matrix)
    grand = float(grid[1, n])
    slack = allowance(tol, grand)
    prefix = _prefix(x)
    gap = float(prefix[n] - grand)
    efficient = abs(gap) <= slack
    worth = grid[1 : n + 1, 1 : n + 1]
    allocated = _span_sums(prefix)
    short = _proper_intervals(n)
    short &= allocated < worth - slack
    starts, ends = np.nonzero(short)
    violations = tuple(
        IntervalViolation(start + 1, end + 1, w, a, w - a)
        for start, end, w, a in zip(
            starts.tolist(), ends.tolist(),
            worth[starts, ends].tolist(), allocated[starts, ends].tolist(),
        )
    )
    return CoreReport(efficient and not violations, efficient, gap, violations)


def sps_core_criterion_full_grid(matrix: TollMatrix, tol: float = DEFAULT_TOL) -> SpsCoreCriterion:
    d = sps_decomposition(matrix)
    if d.beta is None:
        return SpsCoreCriterion(True, None, None, None)
    n = matrix.n
    rhs = _span_sums(_prefix(d.separable))
    np.subtract(interval_grid(matrix)[1 : n + 1, 1 : n + 1], rhs, out=rhs)
    denom = _span_sums(_prefix(d.nonseparable))
    counted = _proper_intervals(n)
    counted &= denom > 0.0
    np.divide(rhs, denom, out=rhs, where=counted)
    rhs[~counted] = -np.inf
    # argmax keeps the first maximum in (start, end) order
    start, end = divmod(int(np.argmax(rhs)), n)
    rhs_max = float(rhs[start, end])
    return SpsCoreCriterion(d.beta >= rhs_max - tol, (start + 1, end + 1), rhs_max, d.beta)


# -- loop references for the random generators --------------------------------
#
# The separate cell loops of sample_matrix and block_structured_matrix before
# they shared one sampler; the draw stream must stay bit-identical.

def sample_matrix_loop(rng: np.random.Generator, n: int, density: float = 1.0,
                       max_toll: float = 10.0) -> TollMatrix:
    entries = {}
    for h in range(1, n + 1):
        for k in range(h, n + 1):
            if rng.random() < density:
                entries[(h, k)] = max_toll * (1.0 - rng.random())
    return TollMatrix(n, entries)


def block_structured_loop(intervals, seed: int = 0, density: float = 1.0,
                          max_toll: float = 10.0) -> TollMatrix:
    """``intervals`` are the sorted ``(start, end)`` blocks of ``1..n``."""
    rng = np.random.default_rng(seed)
    entries = {}
    for start, end in intervals:
        for h in range(start, end + 1):
            for k in range(h, end + 1):
                if rng.random() < density:
                    entries[(h, k)] = max_toll * (1.0 - rng.random())
    return TollMatrix(intervals[-1][1], entries)


def sample_blocks_loop(rng: np.random.Generator, n: int, intervals, density: float = 1.0,
                       max_toll: float = 10.0) -> TollMatrix:
    """One scalar draw per cell of the ``(start, end)`` blocks, then one per
    hit's toll: the draw stream the sampler's chunks must reproduce."""
    entries = {}
    for start, end in intervals:
        for h in range(start, end + 1):
            for k in range(h, end + 1):
                if rng.random() < density:
                    entries[(h, k)] = max_toll * (1.0 - rng.random())
    return TollMatrix(n, entries)


# -- loop references for the triplet CSV reader and writer --------------------
#
# The row-by-row reader, with the duplicate check and segment-count inference
# of ``from_triplets``, and the ``csv.writer`` writer that the column reader and
# the one-shot writer replaced, and the dense writer that built the whole grid;
# results, errors and bytes must stay identical.

def write_dense_csv_grid(matrix: TollMatrix, path) -> None:
    """The dense writer as it was: every row of an ``n x n`` float grid."""
    grid = np.zeros((matrix.n, matrix.n))
    for (h, k), t in matrix.trips():
        grid[h - 1, k - 1] = t
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in grid:
            writer.writerow([repr(float(v)) for v in row])


def _no_children_left() -> bool:
    """True if this process has no child left, reaped or not."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def write_triplet_csv_loop(matrix: TollMatrix, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("entry", "exit", "toll"))
        for (h, k), t in matrix.trips():
            writer.writerow([h, k, repr(t)])


def read_triplet_csv_loop(path, n: int | None = None) -> TollMatrix:
    rows = []
    blank_lines = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header] != ["entry", "exit", "toll"]:
            raise TollValidationError(
                f"{path}: expected header {'entry,exit,toll'!r}, got {header!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                blank_lines.append(lineno)
                continue
            if len(row) != 3:
                raise TollValidationError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            try:
                rows.append((int(row[0]), int(row[1]), float(row[2])))
            except ValueError as exc:
                raise TollValidationError(f"{path}:{lineno}: {exc}") from exc
    try:
        seen = {}
        for entry, exit, toll in rows:
            if (entry, exit) in seen:
                raise DuplicateTripError(entry, exit)
            seen[(entry, exit)] = toll
        if n is None:
            if not seen:
                raise SegmentIndexError(
                    "cannot infer the segment count from an empty record set; pass n"
                )
            n = max(exit for _, exit in seen)
        return TollMatrix(n, seen)
    except TollValidationError as exc:
        exc.args = (f"{_triplet_origin(path, rows, blank_lines, exc)}: {exc}",)
        raise


def _triplet_origin(path, rows, blank_lines, exc) -> str:
    """``path:line`` of the row a trip error is about: the repeat of a
    duplicate, otherwise the first row with that trip."""
    trip = (getattr(exc, "entry", None), getattr(exc, "exit", None))
    matches = [i for i, (h, k, _) in enumerate(rows) if (h, k) == trip]
    if not matches:
        return str(path)
    line = matches[1 if isinstance(exc, DuplicateTripError) else 0] + 2
    for blank in blank_lines:
        if blank <= line:
            line += 1
    return f"{path}:{line}"


# -- loop reference for the sub-highway scan ------------------------------------
#
# The interval-by-trip scan that ``axioms._subhighways`` ran before it paired
# the cuts no trip crosses; both must list the same intervals in one order.

def subhighways_scan(matrix: TollMatrix):
    """Contiguous intervals that no positive trip partially overlaps."""
    for start in range(1, matrix.n + 1):
        for end in range(start, matrix.n + 1):
            for (h, k), _ in matrix.trips():
                inside = start <= h and k <= end
                if not (inside or k < start or h > end):
                    break
            else:
                yield start, end
