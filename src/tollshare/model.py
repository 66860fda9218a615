"""Data model for one-way highway toll problems.

A problem is a toll matrix: for every trip ``[h, k]`` (enter at segment ``h``,
leave at segment ``k``, ``1 <= h <= k <= n``) it records the total toll
collected from all users of that trip.  Matrices are stored sparsely as a map
from ``(entry, exit)`` int tuples to positive tolls, in trip order; segment
indices are 1-based on every public interface.

Where each rule lives: ``_segment_count`` and ``TollMatrix.__post_init__``
check every value from outside, and ``_trusted`` builds what already passes
them and holds the one float-range rule; ``allowance`` is the one tolerance
rule; ``coverage`` and ``_sample`` state the bit-identity rules of their
Python and numpy lanes, and ``coverage`` states once the rounding bound by
which it settles a segment's load in either lane.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import warnings
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate, chain, combinations_with_replacement, pairwise
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    BlocksNotPartitionError,
    DuplicateTripError,
    InvalidDensityError,
    InvalidSeedError,
    LowerTriangularNonzeroError,
    NegativeFactorError,
    NegativeTollError,
    NonFiniteError,
    NonNumericTollError,
    SegmentIndexError,
    TollValidationError,
    clipped,
)

#: Default tolerance for currency comparisons, scaled by ``allowance``.
DEFAULT_TOL = 1e-9

#: Most segments a matrix may have: 8 MB per float array of length ``n``,
#: far above the ``game.SWEEP_CEILING`` of the interval core tests.
SEGMENT_CEILING = 1 << 20

#: Most cells, trips inside a block, that ``_sample`` draws for: n = 2047 at
#: density 1, where ``generate`` peaked at 204 MB RSS (``scripts/peak_rss.py
#: --n 2047 --density 1 --seed 3``, 2-core Linux host, numpy 2.4.6).  n = 2000
#: has 2,001,000 cells.
CELL_CEILING = 1 << 21

#: What ``float`` raises for a value that is no float: not a number, or an
#: integer past the float range.
_NOT_A_FLOAT = (TypeError, ValueError, OverflowError)


def allowance(tol: float, *amounts: float) -> float:
    """How far two amounts may differ and still count as equal: ``tol``
    relative to the largest of ``amounts`` in size, absolute below 1."""
    return tol * max(1.0, *map(abs, amounts))


class TripColumns(NamedTuple):
    """The positive trips of a matrix in ``trips()`` order, one read-only
    array per field: ``entry`` and ``exit`` as ``intp``, ``toll`` as float."""

    entry: np.ndarray
    exit: np.ndarray
    toll: np.ndarray


def _bad_trip(entry: int, exit: int, n: int) -> SegmentIndexError:
    return SegmentIndexError(f"trip [{entry},{exit}] is not a valid trip for {n} segments",
                             entry, exit)


def _integral(value) -> int | None:
    """``value`` as a plain ``int`` when it is integral, such as ``2.0`` or a
    numpy integer, and is not a boolean; ``None`` otherwise."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return None if number != value or isinstance(value, (bool, np.bool_)) else number


def _segment_count(n) -> int:
    """``n`` as a plain ``int``, or the ``SegmentIndexError`` of a segment
    count that is not an integer from 1 to ``SEGMENT_CEILING``."""
    count = n if type(n) is int else _integral(n)
    if count is None:
        raise SegmentIndexError(f"segment count must be an integer, got {n!r}")
    if count < 1:
        raise SegmentIndexError(f"segment count must be >= 1, got {count}")
    if count > SEGMENT_CEILING:
        raise SegmentIndexError(f"segment count must be at most {SEGMENT_CEILING}, got {count}")
    return count


def _as_trip(entry, exit) -> tuple[int, int]:
    """The trip ``[entry, exit]`` as a plain tuple of ``_integral`` indices."""
    trip = _integral(entry), _integral(exit)
    if None in trip:
        raise SegmentIndexError(f"trip [{entry},{exit}] has a segment index that is not "
                                "an integer", entry, exit)
    return trip


@dataclass(frozen=True)
class TollMatrix:
    """Aggregated tolls of a one-way linear highway with ``n`` segments.

    ``entries`` maps each trip, an ``(entry, exit)`` tuple of ``int``s, to
    its toll.  Only strictly positive tolls are stored; every absent trip
    has toll zero.  Instances are immutable after construction and safe to
    share between threads.
    """

    n: int
    entries: Mapping[tuple[int, int], float]

    def __post_init__(self):
        n = _segment_count(self.n)
        cleaned: dict[tuple[int, int], float] = {}
        for trip, value in self.entries.items():
            entry, exit = trip
            if not (type(trip) is tuple and type(entry) is int and type(exit) is int):
                trip = entry, exit = _as_trip(entry, exit)
            if not (1 <= entry <= exit <= n):
                raise _bad_trip(entry, exit, n)
            try:
                value = float(value)
            except _NOT_A_FLOAT:
                raise NonNumericTollError(entry, exit, value) from None
            if not (0.0 <= value < math.inf):
                fault = NonFiniteError if not math.isfinite(value) else NegativeTollError
                raise fault(entry, exit, value)
            if value:
                cleaned[trip] = value
        # most callers pass trips in order already; rebuild only when not
        trips = list(cleaned)
        ordered = sorted(trips)
        if ordered != trips:
            cleaned = {trip: cleaned[trip] for trip in ordered}
        vars(self).update(vars(_trusted(n, cleaned)))

    def __hash__(self) -> int:
        # entries are sorted, so equal matrices list equal items in one order
        return hash((self.n, tuple(self.entries.items())))

    def __reduce__(self):
        # rebuilt through the constructor: the read-only entries do not pickle
        return TollMatrix, (self.n, dict(self.entries))

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "TollMatrix":
        return cls(n, {})

    @classmethod
    def unit(cls, entry: int, exit: int, n: int) -> "TollMatrix":
        """Matrix with a single toll of 1 on trip ``[entry, exit]``."""
        return cls(n, {(entry, exit): 1.0})

    @classmethod
    def from_dense(cls, grid: Sequence[Sequence[float]] | np.ndarray) -> "TollMatrix":
        """Build a matrix from a square grid with nothing below the diagonal."""
        rows: list[list[float]] = []
        try:
            for h, row in enumerate(grid, start=1):
                cells = []
                for k, value in enumerate(row, start=1):
                    try:
                        cells.append(float(value))
                    except _NOT_A_FLOAT:
                        raise NonNumericTollError(h, k, value) from None
                rows.append(cells)
        except TypeError:  # the grid or a row is not iterable: refused below
            rows = []
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise SegmentIndexError("dense toll grid must be square and nonempty")
        for h, row in enumerate(rows, start=1):
            for k, value in enumerate(row[: h - 1], start=1):
                if value != 0.0:
                    fault = LowerTriangularNonzeroError if math.isfinite(value) else NonFiniteError
                    raise fault(h, k, value)
        return cls(n, {(h, k): row[k - 1] for h, row in enumerate(rows, start=1)
                       for k in range(h, n + 1)})

    @classmethod
    def from_triplets(
        cls,
        rows: Iterable[tuple[int, int, float]],
        n: int | None = None,
    ) -> "TollMatrix":
        """Build a matrix from ``(entry, exit, toll)`` records.

        ``n`` defaults to the largest exit index seen; it must be given
        explicitly when ``rows`` is empty.  Duplicate trips are rejected.
        """
        return _from_records(rows, n)

    # -- inspection -------------------------------------------------------

    @property
    def total(self) -> float:
        """Sum of all collected tolls."""
        return self._total  # type: ignore[attr-defined]

    @cached_property
    def columns(self) -> TripColumns:
        """The trips as arrays, built on first use and kept with the matrix;
        equality and hashing still look at ``n`` and ``entries`` only."""
        count = len(self.entries)
        ends = np.fromiter(chain.from_iterable(self.entries), dtype=np.intp, count=2 * count)
        ends = ends.reshape(count, 2)
        columns = TripColumns(ends[:, 0].copy(), ends[:, 1].copy(),
                              np.fromiter(self.entries.values(), dtype=float, count=count))
        for column in columns:
            column.flags.writeable = False
        return columns

    def toll(self, entry: int, exit: int) -> float:
        if not (1 <= entry <= exit <= self.n):
            raise _bad_trip(entry, exit, self.n)
        return self.entries.get((entry, exit), 0.0)

    def trips(self) -> Iterator[tuple[tuple[int, int], float]]:
        """Positive trips in (entry, exit) order."""
        return iter(self.entries.items())

    def involvement(self, segment: int) -> float:
        """Total toll of trips whose path contains ``segment``."""
        if not (1 <= segment <= self.n):
            raise SegmentIndexError(f"segment {segment} out of range 1..{self.n}")
        return math.fsum(
            t for (h, k), t in self.entries.items() if h <= segment <= k
        )

    def diagonal(self) -> np.ndarray:
        """Per-segment tolls of single-segment trips, ``t_ii``."""
        if (columns := array_lane(self)) is None:
            return np.array([self.entries.get((i, i), 0.0) for i in range(1, self.n + 1)])
        single = columns.entry == columns.exit
        return np.bincount(columns.entry[single] - 1, columns.toll[single], minlength=self.n)

    def __add__(self, other: "TollMatrix") -> "TollMatrix":
        if not isinstance(other, TollMatrix):
            return NotImplemented
        if other.n != self.n:
            raise SegmentIndexError("cannot add matrices with different segment counts")
        merged = dict(self.entries)
        for trip, t in other.entries.items():
            merged[trip] = merged.get(trip, 0.0) + t
        if len(merged) > len(self.entries):  # other brought a trip of its own
            merged = dict(sorted(merged.items()))
        return _trusted(self.n, merged)

    def scaled(self, factor: float) -> "TollMatrix":
        if factor < 0.0:
            raise NegativeFactorError(factor)
        factor = float(factor)
        return _trusted(self.n, {trip: toll for trip, t in self.entries.items()
                                 if (toll := factor * t)})

    def __repr__(self) -> str:
        return f"TollMatrix(n={self.n}, trips={len(self.entries)}, total={self.total:g})"


def _trusted(n: int, entries: Mapping[tuple[int, int], float],
             tolls: Iterable[float] | None = None, **cached) -> TollMatrix:
    """The matrix over ``entries`` without the constructor's per-trip checks,
    for builders whose input already passes them: ``n`` a plain ``int`` of at
    least 1, and ``entries`` keyed in sorted order by plain ``(entry, exit)``
    int tuples in range, each toll a positive float.  A dict is wrapped
    read-only; ``tolls`` lists the tolls where reading ``entries`` would
    build them, and ``cached`` sets cached properties.

    Only the total is checked, by the package's one float-range rule.  One
    that is not finite means a toll that is not, which the constructor
    names; a finite one times ``max(n, 100)`` must stay finite, since the
    summed utopia payoffs, the summed non-separable revenues and the Gini
    pair sum are at most n times it, and a percent 100 times a share.
    """
    try:
        total = math.fsum(entries.values() if tolls is None else tolls)
    except OverflowError:  # finite tolls whose sum passes the largest float
        total = sys.float_info.max
    if not math.isfinite(total):
        return TollMatrix(n, dict(entries))
    if total * (factor := max(n, 100)) == math.inf:
        raise TollValidationError(f"the tolls add up to more than the largest float / {factor}")
    matrix = object.__new__(TollMatrix)
    vars(matrix).update(n=n, entries=MappingProxyType(entries) if type(entries) is dict
                        else entries, _total=total, **cached)
    return matrix


#: Trip count from which ``coverage`` and the methods built on it take the
#: array lane; below it the Python loop is faster.  Every matrix of the axiom
#: audit (at most 36 trips) and AP68 (64) stays on the loop.
_ARRAY_LANE_TRIPS = 128

#: Rounding bound of a prefix sum, per segment and per unit of weight
#: entered so far: each weight meets at most n - 1 others in its bin and n
#: more bins in the prefix sum, and the weight exited so far is at most that
#: entered, so the error is below ``(2n - 1) eps`` times it; 4n leaves room
#: for the rounding of the entered weight itself.
_RESIDUE = 4 * float(np.finfo(float).eps)


def array_lane(matrix: TollMatrix) -> TripColumns | None:
    """``matrix.columns`` if the matrix has enough trips for the array lane,
    ``None`` if it takes the loop."""
    return matrix.columns if len(matrix.entries) >= _ARRAY_LANE_TRIPS else None


def coverage(matrix: TollMatrix, weights: Iterable[float] | np.ndarray) -> np.ndarray:
    """Per segment, the sum of ``weights`` (one nonnegative weight per trip,
    in ``matrix.trips()`` order) over the trips that use it.

    Below ``_ARRAY_LANE_TRIPS`` trips this is a loop over a difference
    array; from there on numpy does the same on ``matrix.columns``, taking
    ``weights`` as an array (any other iterable is read into one).  In each
    bin the loop subtracts the weights of the trips that exit there before
    it adds those of the trips that enter at the next segment, so the array
    lane starts from the negated exits and adds the entries in trip order,
    and the two return the same bits.

    A segment that no trip of nonzero weight covers gets 0.  A covered one
    gets its prefix sum where that is above its rounding bound, ``_RESIDUE
    * n`` times the weight entered up to the segment.  Below the bound the
    prefix sum may be all rounding residue, so the segments that miss it
    take ``_exact_loads``, called once with all of them.  The weight entered is
    at most twice the sum of all weights, so the loop lane clears a prefix
    sum above twice the bound on that sum without the per-segment pass, and
    hands the matrix over to the array lane if any segment stays open.
    """
    n = matrix.n
    columns = array_lane(matrix)
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
        quick = 2.0 * _RESIDUE * n * sum(weights)
        loads = [(s if s > quick else None) if c else 0.0
                 for s, c in zip(accumulate(diff[:n]), accumulate(count[:n]))]
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
    # trips of nonzero weight per bin; ses and scs weigh every trip
    starts, exits = (start, exit) if live.all() else (start[live], exit[live])
    count = np.bincount(starts, minlength=n + 1) - np.bincount(exits, minlength=n + 1)
    entered = np.cumsum(np.bincount(start, weights, minlength=n))
    covered = np.cumsum(count[:n]) != 0
    loads = np.cumsum(diff[:n])
    missed = covered & ~(loads > _RESIDUE * n * entered)
    loads[~covered] = 0.0
    if missed.any():
        segments = (np.flatnonzero(missed) + 1).tolist()
        loads[missed] = _exact_loads(n, entry, exit, weights, segments)
    return loads


def _exact_loads(n: int, entry: np.ndarray, exit: np.ndarray, weights: np.ndarray,
                 segments: Sequence[int]) -> list[float]:
    """Per segment of ``segments``, the sum of ``weights`` over the trips
    ``entry[j]..exit[j]`` that use it, exact and rounded once, as
    ``math.fsum`` rounds it, in one pass over the trips and segments.

    Every float is an integer times a power of two, so each weight scaled
    by ``2 ** -low``, with ``2 ** low`` the smallest such power among them
    and 1, is an integer.  Python ints add those exactly in a difference
    array, and ``int / int`` rounds the exact quotient once."""
    mantissa, exponent = np.frexp(weights)
    mantissa = (mantissa * 2.0 ** 53).astype(np.int64)
    exponent = exponent.astype(np.int64) - 53
    live = mantissa != 0
    low = int(np.min(exponent, where=live, initial=0))
    scaled = mantissa.astype(object) << np.where(live, exponent - low, 0).astype(object)
    diff = np.zeros(n + 1, dtype=object)
    np.add.at(diff, entry - 1, scaled)
    np.subtract.at(diff, exit, scaled)
    sums = np.cumsum(diff[:n]).tolist()
    return [sums[i - 1] / (1 << -low) for i in segments]


def inessential_segments(matrix: TollMatrix) -> list[int]:
    """Segments that no positive trip passes through."""
    used = np.zeros(matrix.n, dtype=bool)
    for (h, k), _ in matrix.trips():
        used[h - 1 : k] = True
    return [i + 1 for i in range(matrix.n) if not used[i]]


def is_unit_matrix(matrix: TollMatrix) -> bool:
    """True when the matrix charges exactly one trip exactly 1."""
    items = list(matrix.trips())
    return len(items) == 1 and items[0][1] == 1.0


# -- random generators ----------------------------------------------------

#: Most uniforms ``_sample`` draws at once, and most rows ``write_triplet_csv``
#: formats at once: a sparse matrix owes one draw per cell but keeps few, so
#: an uncapped first chunk costs ``n(n+1)/2`` floats, and a slice of rows
#: holds 190 to 250 bytes of Python objects per row.  At 8,192 the writer
#: peaked at 1.6 MB on a 25k-trip matrix (4.0 MB at 65,536) and wrote as
#: fast, and sampling n = 2000 took 3% longer (16% at 4,096).
_DRAW_CHUNK = 1 << 13


@cache
def _triangle(n: int) -> tuple[tuple[int, int], ...]:
    """The cells of the block ``(1, n)`` in visiting order; the loop lane asks
    only for ``n(n+1)/2 < _ARRAY_LANE_TRIPS``, so at most 15 are kept."""
    return tuple(combinations_with_replacement(range(1, n + 1), 2))


def _sample(rng: np.random.Generator, n: int, blocks: Sequence[tuple[int, int]] | None,
            density: float, max_toll: float) -> TollMatrix:
    """Occupy each trip inside a ``(start, end)`` block with probability
    ``density`` and toll uniform on ``(0, max_toll]``, in (entry, exit) order.

    Each chunk of uniforms is no longer than ``_DRAW_CHUNK``, nor than the
    fewest draws still owed: one per cell left, or two at density 1, where
    every cell hits, plus a hit's toll that the last chunk lacked.  So no
    chunk draws past the end of the stream.  From ``_ARRAY_LANE_TRIPS``
    cells on, ``_sample_arrays`` resolves the same draws in numpy.  ``n`` is
    checked as the constructor checks it, and the cell count against
    ``CELL_CEILING`` before any draw; ``blocks`` defaults to ``[(1, n)]``.
    """
    if not (0.0 < density <= 1.0):
        raise InvalidDensityError(density)
    if not (0.0 < max_toll < math.inf):
        raise TollValidationError(f"max_toll must be positive and finite, got {max_toll!r}")
    n, max_toll = _segment_count(n), float(max_toll)
    blocks = [(1, n)] if blocks is None else blocks
    widths = [end - start + 1 for start, end in blocks]
    cells = sum(w * (w + 1) // 2 for w in widths)
    if cells > CELL_CEILING:
        raise SegmentIndexError(f"{cells} trips to draw for; the limit is {CELL_CEILING}")
    if cells >= _ARRAY_LANE_TRIPS:
        entry, exit, toll = _sample_arrays(rng, blocks, cells, density, max_toll)
        matrix = _from_arrays(n, entry, exit, toll)
        return TollMatrix(n, _trip_dict(entry, exit, toll)) if matrix is None else matrix
    walk = _triangle(n) if blocks == [(1, n)] else [
        cell for start, end in blocks
        for cell in combinations_with_replacement(range(start, end + 1), 2)]
    owed = 2 if density == 1.0 else 1
    # ``pending`` is the hit whose toll is the next draw
    entries, visited, pending = {}, 0, None
    while visited < cells or pending is not None:
        size = min(owed * (cells - visited) + (pending is not None), _DRAW_CHUNK)
        for draw in rng.random(size).tolist():
            if pending is not None:
                # a toll is at least max_toll * 2**-53, positive unless max_toll is tiny
                if toll := max_toll * (1.0 - draw):
                    entries[pending] = toll
                pending = None
            else:
                if draw < density:
                    pending = walk[visited]
                visited += 1
    return _trusted(n, entries)


def _sample_arrays(rng: np.random.Generator, blocks: Sequence[tuple[int, int]], cells: int,
                   density: float, max_toll: float) -> TripColumns:
    """The hits of ``_sample``'s loop over ``cells`` cells as ``(entry, exit,
    toll)`` arrays, from the same draws.

    In a chunk, a draw is a cell draw exactly when it lies an odd number of
    places after the last miss before it, a chunk's first cell draw
    standing one place after a miss.  Hits are numbered by cell in visiting
    order and mapped to trips through each row's first number, a chunk at a
    time, so only the columns outlive their chunk.
    """
    heads = [h for start, end in blocks for h in range(start, end + 1)]
    ends = [end for start, end in blocks for _ in range(start, end + 1)]
    row_entry = np.array(heads, dtype=np.intp)
    widths = np.array(ends, dtype=np.intp) - row_entry + 1
    row_first = np.cumsum(widths) - widths
    entries: list[np.ndarray] = []
    exits: list[np.ndarray] = []
    tolls: list[np.ndarray] = []
    done = 0
    pending = 0
    while done < cells or pending:
        draws = rng.random(min(cells - done + pending, _DRAW_CHUNK))
        tolls.append(max_toll * (1.0 - draws[:pending]))
        draws = draws[pending:]
        if not len(draws):
            pending = 0
            continue
        place = np.arange(len(draws))
        last_miss = np.where(draws >= density, place, -1)
        np.maximum.accumulate(last_miss, out=last_miss)
        cell = np.empty(len(draws), dtype=bool)
        cell[0] = True
        cell[1:] = (place[1:] - last_miss[:-1]) % 2 == 1
        hit = np.flatnonzero(cell & (draws < density))
        counted = np.cumsum(cell)
        number = done + counted[hit] - 1
        row = np.searchsorted(row_first, number, side="right") - 1
        entries.append(row_entry[row])
        exits.append(entries[-1] + (number - row_first[row]))
        done += int(counted[-1])
        pending = int(len(hit) > 0 and hit[-1] == len(draws) - 1)
        tolls.append(max_toll * (1.0 - draws[hit[: len(hit) - pending] + 1]))
    return TripColumns(np.concatenate(entries), np.concatenate(exits), np.concatenate(tolls))


def sample_matrix(rng: np.random.Generator, n: int, density: float = 1.0,
                  max_toll: float = 10.0) -> TollMatrix:
    """Draw from an existing generator: each of the ``n(n+1)/2`` trips is
    occupied with probability ``density``, toll uniform on ``(0, max_toll]``."""
    return _sample(rng, n, None, density, max_toll)


def _seeded_rng(seed: int) -> np.random.Generator:
    try:
        return np.random.default_rng(seed)
    except ValueError as exc:  # numpy takes only non-negative integer seeds
        raise InvalidSeedError(seed) from exc


def random_matrix(n: int, density: float = 1.0, max_toll: float = 10.0, seed: int = 0) -> TollMatrix:
    """Seeded random matrix; a pure function of all four arguments."""
    return sample_matrix(_seeded_rng(seed), n, density, max_toll)


def block_structured_matrix(
    blocks: Sequence[Iterable[int]],
    seed: int = 0,
    density: float = 1.0,
    max_toll: float = 10.0,
) -> TollMatrix:
    """Random matrix whose positive trips all stay inside the given blocks.

    ``blocks`` must partition ``1..n`` into contiguous intervals; each block
    is then a sub-highway of the result by construction.
    """
    intervals: list[tuple[int, int]] = []
    for block in blocks:
        if isinstance(block, range):  # read from its start, stop and step
            members = block if block.step > 0 else block[::-1]
        else:
            members = sorted(set(int(i) for i in block))
        if not members:
            raise BlocksNotPartitionError("empty block")
        if members[-1] - members[0] >= len(members):  # distinct, so a gap
            missing = members[0] + 1 if isinstance(members, range) else next(
                a + 1 for a, b in pairwise(members) if b > a + 1)
            raise BlocksNotPartitionError(f"block [{members[0]}, {members[-1]}] is not "
                                          f"contiguous: segment {missing} is missing")
        intervals.append((members[0], members[-1]))
    intervals.sort()
    n = 0  # the end of the block before, 0 before the first
    for start, end in intervals:
        if start != n + 1:
            raise BlocksNotPartitionError(f"no block covers [{n + 1}, {start - 1}]"
                                          if start > n + 1 else
                                          f"block [{start}, {end}] starts before {n + 1}")
        n = end
    return _sample(_seeded_rng(seed), n, intervals, density, max_toll)


# -- file formats ----------------------------------------------------------

TRIPLET_HEADER = ("entry", "exit", "toll")

def write_triplet_csv(matrix: TollMatrix, path: str | Path) -> None:
    """Write ``matrix.columns`` as triplet CSV, the bytes ``csv.writer`` writes, as no
    integer or float ``repr`` needs quoting: each slice of ``_DRAW_CHUNK`` rows is one
    ``%`` format, ``"%d,%d,%r\\r\\n"`` once per row, over the slice's cells
    interleaved in one list, so no Python code runs per row."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRIPLET_HEADER) + "\r\n")
        for start in range(0, len(matrix.entries), _DRAW_CHUNK):
            columns = [column[start:start + _DRAW_CHUNK].tolist() for column in matrix.columns]
            cells = [None] * (3 * len(columns[0]))
            for offset, column in enumerate(columns):
                cells[offset::3] = column
            fh.write("%d,%d,%r\r\n" * len(columns[0]) % tuple(cells))


#: One triplet record as ``np.loadtxt`` parses it.
_RECORD = np.dtype([("entry", np.int64), ("exit", np.int64), ("toll", np.float64)])

#: Bytes that send a file to the row walk: the ASCII separators, which
#: numpy strips from a number as white space and ``int`` and ``float`` do
#: not, and the vertical tab and form feed; ``str.splitlines`` ends a line
#: at each of them but the unit separator, and the ``csv`` module at none.
_WALK_BYTES = b"\x1c\x1d\x1e\x1f\v\f"

#: Least bytes ``_pieces`` decodes at once; a piece runs on to the end of
#: the line it stops in.  Its lines are held as ``str`` objects, about three
#: times the piece; from 16 KB to 1 MB a read took as long.
_PIECE_BYTES = 1 << 16


def read_triplet_csv(path: str | Path, n: int | None = None) -> TollMatrix:
    """Read a triplet CSV: its bytes once, parsed by one ``np.loadtxt`` call
    over its lines and built by ``_from_arrays``, or by the row walk where
    the header is not plain, numpy may read a cell that Python would not
    (``_load_records``) or ``_from_arrays`` refuses a check.  The walk
    parses every row before it builds the matrix, so a parse fault is
    reported before a duplicate; each error names its ``path:line``."""
    try:
        raw = Path(path).read_bytes()
        fields = _load_records(raw)
        matrix = None if fields is None else _from_arrays(n, *fields)
        return _walk_triplet_csv(raw, path, n) if matrix is None else matrix
    except (csv.Error, UnicodeDecodeError) as exc:
        raise TollValidationError(f"{path}: {exc}") from exc


def _check_header(reader: Iterator[list[str]], path: str | Path) -> None:
    header = next(reader, None)
    if header is None or [c.strip().lower() for c in header] != list(TRIPLET_HEADER):
        raise TollValidationError(
            f"{path}: expected header {','.join(TRIPLET_HEADER)!r}, got {clipped(repr(header))}"
        )


def _load_records(raw: bytes) -> list[np.ndarray] | None:
    """The records after the header, parsed by one ``np.loadtxt`` call over
    the text's lines, split one ``_pieces`` piece at a time, as one
    contiguous array per field; the parsed records are freed on return, so
    the checks of ``_from_arrays`` do not run beside them.  ``None`` sends
    the file to the walk, which reports any fault: the first line is not
    the plain header; numpy rejects the body or warns about it, as about a
    body with no record or, in releases that only deprecate the cast, a
    float cell in an integer field; or the file is not ASCII or holds one
    of ``_WALK_BYTES``.  Otherwise ``str.splitlines`` ends lines where the
    ``csv`` module does in a file opened with ``newline=""``, at ``\\n``,
    ``\\r`` and ``\\r\\n``; a quote, which could join lines, is no number to
    numpy."""
    if not raw.isascii() or any(byte in raw for byte in _WALK_BYTES):
        return None
    lines = chain.from_iterable(map(str.splitlines, _pieces(raw)))
    header = next(lines, "")
    if [cell.strip().lower() for cell in header.split(",")] != list(TRIPLET_HEADER):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            records = np.loadtxt(lines, delimiter=",", dtype=_RECORD, comments=None, ndmin=1)
        except (ValueError, Warning):
            return None
    return [np.ascontiguousarray(records[name]) for name in TRIPLET_HEADER]


def _pieces(raw: bytes) -> Iterator[str]:
    """The ASCII text ``raw`` decoded one piece of at least ``_PIECE_BYTES``
    at a time, each piece ending just after a ``\\n`` or at the end of
    ``raw``, so no line end is split between two pieces."""
    view = memoryview(raw)
    start = 0
    while start < len(raw):
        end = raw.find(b"\n", start + _PIECE_BYTES) + 1 or len(raw)
        yield str(view[start:end], "ascii")
        start = end


def _walk_triplet_csv(raw: bytes, path: str | Path, n: int | None) -> TollMatrix:
    """``read_triplet_csv`` row by row with the ``csv`` module, over the
    file's bytes ``raw`` decoded as ``open`` would: skips blank rows and
    raises for the first bad one with its ``path:line``, lines counting
    records, the header being line 1."""
    records, lines = [], []
    with io.TextIOWrapper(io.BytesIO(raw), newline="") as text:
        reader = csv.reader(text)
        _check_header(reader, path)
        for line, row in enumerate(reader, start=2):
            if not any(cell.strip() for cell in row):
                continue
            if len(row) != 3:
                raise TollValidationError(f"{path}:{line}: expected 3 fields, got {len(row)}")
            try:
                records.append((int(row[0]), int(row[1]), float(row[2])))
            except ValueError as exc:
                raise TollValidationError(f"{path}:{line}: {clipped(str(exc))}") from exc
            lines.append(line)
    return _from_records(records, n, str(path), lines)


def _from_records(records: Iterable[tuple[object, object, object]], n: int | None,
                  source: str | None = None, lines: Sequence[int] | None = None) -> TollMatrix:
    """Build a matrix from ``(entry, exit, toll)`` records, ``lines`` giving
    each record's line in ``source``.

    ``n`` defaults to the largest exit.  A repeated trip is rejected at its
    repeat.  An error is prefixed with ``source`` and the line of the record
    it is about: the repeat of a duplicate, otherwise the trip's record.
    """
    try:
        heads, tails, tolls = tuple(zip(*records, strict=True)) or ((), (), ())
    except (TypeError, ValueError):
        raise TollValidationError("every triplet record must have 3 fields: entry, exit, toll") from None
    trips: list[tuple[int, int]] = []
    at = None
    try:
        trips = list(map(_as_trip, heads, tails))
        entries = dict(zip(trips, tolls))
        if len(entries) < len(trips):
            seen: set[tuple[int, int]] = set()
            at = next(i for i, trip in enumerate(trips) if trip in seen or seen.add(trip))
            raise DuplicateTripError(*trips[at])
        if n is None:
            if not entries:
                raise SegmentIndexError(
                    "cannot infer the segment count from an empty record set; pass n"
                )
            n = max(map(itemgetter(1), entries))
        return TollMatrix(n, entries)
    except TollValidationError as exc:
        if at is None:
            trip = (getattr(exc, "entry", None), getattr(exc, "exit", None))
            at = next((i for i, key in enumerate(trips) if key == trip), None)
        _name_source(exc, source if lines is None or at is None else f"{source}:{lines[at]}")
        raise


def _from_arrays(n: int | None, entry: np.ndarray, exit: np.ndarray,
                 toll: np.ndarray) -> TollMatrix | None:
    """The matrix of the records ``(entry[i], exit[i], toll[i])``, checked as
    arrays, with the arrays of its positive trips kept as its ``columns``.

    ``n`` defaults to the largest exit.  ``None`` when ``n`` or a record
    breaks a check of ``_from_records`` or the constructor: the caller then
    builds through them, and they raise the error.
    """
    entry = np.ascontiguousarray(entry, dtype=np.intp)
    exit = np.ascontiguousarray(exit, dtype=np.intp)
    toll = np.ascontiguousarray(toll, dtype=float)
    if not _increasing(entry, exit):
        order = np.lexsort((exit, entry))
        entry, exit, toll = entry[order], exit[order], toll[order]
        if not _increasing(entry, exit):
            return None
    try:
        n = _segment_count(exit.max() if n is None and len(exit) else n)
    except SegmentIndexError:
        return None
    if not np.all((toll >= 0.0) & (toll < math.inf)):
        return None
    if len(entry) and not (entry.min() >= 1 and int(exit.max()) <= n and np.all(entry <= exit)):
        return None
    live = toll > 0.0
    if not live.all():
        entry, exit, toll = entry[live], exit[live], toll[live]
    columns = TripColumns(entry, exit, toll)
    for column in columns:
        column.flags.writeable = False
    try:
        return _trusted(n, _ColumnEntries(columns), memoryview(toll), columns=columns)
    except TollValidationError:
        return None


def _increasing(entry: np.ndarray, exit: np.ndarray) -> bool:
    """Whether the trips ``(entry[i], exit[i])`` rise strictly in (entry, exit) order."""
    after, before = entry[1:], entry[:-1]
    return bool(np.all((after > before) | ((after == before) & (exit[1:] > exit[:-1]))))


def _trip_dict(entry: np.ndarray, exit: np.ndarray,
               toll: np.ndarray) -> dict[tuple[int, int], float]:
    return dict(zip(zip(entry.tolist(), exit.tolist()), toll.tolist()))


class _ColumnEntries(Mapping):
    """The read-only ``entries`` that ``_from_arrays`` builds from columns on demand."""

    def __init__(self, columns: TripColumns):
        self._columns = columns

    @cached_property
    def _trips(self) -> dict[tuple[int, int], float]:
        return _trip_dict(*self._columns)

    def __len__(self) -> int:
        return len(self._columns.toll)

    def __getitem__(self, trip: tuple[int, int]) -> float:
        return self._trips[trip]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._trips)

    def get(self, trip, default=None):
        return self._trips.get(trip, default)

    def items(self):
        return self._trips.items()

    def values(self):
        return self._trips.values()


def _name_source(exc: TollValidationError, where: str | None) -> None:
    """Prefix the message of ``exc`` with the file (and line) it is about,
    keeping its type and attributes."""
    if where is not None:
        exc.args = (f"{where}: {exc}",)


def write_dense_csv(matrix: TollMatrix, path: str | Path) -> None:
    """Write the n-by-n grid one row at a time, from ``matrix.entries``, so
    that only one row of the grid is ever held."""
    rows: dict[int, list[tuple[int, float]]] = {}
    for (h, k), t in matrix.trips():
        rows.setdefault(h, []).append((k, t))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for h in range(1, matrix.n + 1):
            row = ["0.0"] * matrix.n
            for k, t in rows.get(h, ()):
                row[k - 1] = repr(t)
            writer.writerow(row)


def read_dense_csv(path: str | Path) -> TollMatrix:
    """Read a dense grid, one row per non-blank line, into ``from_dense``;
    an error about a row's cell names that row's line."""
    try:
        with open(path, newline="") as fh:
            rows = [(line, row) for line, row in enumerate(csv.reader(fh), start=1) if row]
    except (csv.Error, UnicodeDecodeError) as exc:
        raise TollValidationError(f"{path}: {exc}") from exc
    try:
        return TollMatrix.from_dense([row for _, row in rows])
    except TollValidationError as exc:
        # a rejected cell's error names its grid row as the trip's entry
        row = getattr(exc, "entry", None)
        _name_source(exc, f"{path}:{rows[row - 1][0]}" if row else str(path))
        raise


def to_json_dict(matrix: TollMatrix) -> dict:
    return {
        "n": matrix.n,
        "trips": [
            {"entry": h, "exit": k, "toll": t} for (h, k), t in matrix.trips()
        ],
    }


def write_json(matrix: TollMatrix, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(to_json_dict(matrix), fh, indent=2)
        fh.write("\n")


def read_json(path: str | Path) -> TollMatrix:
    """Read a ``write_json`` export, whose segment count and trips
    ``_from_records`` checks.  JSON's ``null``, ``true`` and ``false`` are
    refused here: it would take them for an absent count or a number."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
            n = payload["n"]
            fields = [(r["entry"], r["exit"], r["toll"]) for r in payload["trips"]]
        # RecursionError: arrays or objects nested deeper than the parser's stack
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise TollValidationError(f"{path}: not a toll matrix export ({exc!r})") from exc
    if any(value is None or type(value) is bool for value in chain([n], *fields)):
        raise TollValidationError(f"{path}: a segment count, index or toll is null, true or false")
    return _from_records(fields, n, str(path))
