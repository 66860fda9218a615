"""Executable checkers for the allocation-method axioms.

Every checker takes a method (a function from toll matrices to share
vectors) and the objects the axiom quantifies over, and hands its
comparisons to ``_verdict``.  ``CATALOGUE`` holds one ``AxiomSpec`` per
axiom, in report order; the runners look an axiom up there and never branch
on its name.  The per-method axiom claims live in ``ANCHORED_AXIOMS``, and
the paper's characterizations in ``CHARACTERIZATIONS``, each with every
counterexample's failing axiom and the instances on which it fails; both
are built from one named tuple per axiom set.

Seeded verdicts depend on the draw stream, so the draw order is fixed:
``generate_instance`` draws the size, then the builder draws in the order
it is written.  Golden digests of the ``axioms`` output pin it.  Checking
can only falsify, never prove: a method that survives the seeded trials is
reported as holding for the tested population.

``axiom_matrix`` and ``independence_harness`` run their cells through
``_map_cells``: the caller and one forked child per other CPU the process
may use pull cells from one shared queue until it is empty.  Which worker
runs a cell depends on timing, but the report bytes cannot, since each
cell draws from its own ``_stable_seed`` and the verdicts merge in cell
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, combinations, combinations_with_replacement
from typing import Callable, Iterable, Iterator, Mapping, NoReturn, Sequence, TypeVar

import gc
import os
import pickle
import threading
import zlib

import numpy as np

from .errors import (
    HarnessMismatchError,
    InvalidTrialsError,
    NoWitnessError,
    PreconditionNotMet,
    SegmentIndexError,
)
from .methods import METHODS, TRIGGERS, MethodFn, allocation_method
from .model import (
    DEFAULT_TOL,
    TollMatrix,
    _trusted,
    allowance,
    block_structured_matrix,
    inessential_segments,
    sample_matrix,
)

#: Relative tolerance for fairness-delta comparisons, which subtract
#: near-equal allocations and therefore lose more precision than sums; it is
#: scaled by the largest share subtracted, as rounding grows with it.
FAIRNESS_TOL = 1e-8


@dataclass(frozen=True)
class Witness:
    """Replayable record of a falsified axiom instance.

    ``instance`` holds exactly the inputs the checker was called with;
    ``location`` narrows the failure down (segment, pair, cut, interval).
    """

    instance: Mapping[str, object]
    location: Mapping[str, object]
    lhs: float
    rhs: float
    gap: float
    tol: float


@dataclass(frozen=True)
class AxiomVerdict:
    axiom: str
    holds: bool
    witness: Witness | None = None


#: One comparison of a checker: ``(location, lhs, rhs, slack)``, with the
#: location as ``(key, value)`` pairs
_Comparison = tuple[tuple[tuple[str, object], ...], float, float, float]


def _stable_seed(seed: int, *parts: str) -> int:
    """Process-independent per-cell seed (str hash randomization is off-limits)."""
    return (zlib.crc32(":".join(parts).encode()) ^ (seed & 0xFFFFFFFF)) & 0x7FFFFFFF


def _verdict(axiom: str, instance: Mapping[str, object], tol: float,
             comparisons: Iterable[_Comparison]) -> AxiomVerdict:
    """The verdict on the first comparison whose sides differ by more than
    its slack, or a holding verdict if none does.  Checkers may pass a
    generator, so a failing check stops computing where it fails; the
    witness's inputs replay to the same gap."""
    for location, lhs, rhs, slack in comparisons:
        if abs(lhs - rhs) > slack:
            lhs, rhs = float(lhs), float(rhs)
            return AxiomVerdict(axiom, False, Witness(dict(instance), dict(location),
                                                      lhs, rhs, abs(lhs - rhs), tol))
    return AxiomVerdict(axiom, True)


def _per_segment(lhs: list[float], rhs: list[float], slack: float) -> Iterator[_Comparison]:
    """Two share vectors compared segment by segment."""
    return (((("segment", i),), x, y, slack) for i, (x, y) in enumerate(zip(lhs, rhs), start=1))


# -- matrix surgery ----------------------------------------------------------

def blocked_matrix(matrix: TollMatrix, cut: int) -> TollMatrix:
    """Zero every trip crossing the boundary between ``cut`` and ``cut + 1``."""
    if not (1 <= cut < matrix.n):
        raise SegmentIndexError(f"cut must lie in 1..{matrix.n - 1}, got {cut}")
    return _trusted(matrix.n, {(h, k): t for (h, k), t in matrix.trips() if not (h <= cut < k)})


def covariance_transform(matrix: TollMatrix, b: float, a: Sequence[float]) -> TollMatrix:
    """Rescale off-diagonal tolls by ``b`` and shift diagonal tolls by ``a``."""
    a = np.asarray(a, dtype=float)
    if len(a) != matrix.n:
        raise SegmentIndexError(f"shift vector must have length {matrix.n}")
    entries: dict[tuple[int, int], float] = {
        (h, k): b * t for (h, k), t in matrix.trips() if h != k
    }
    for i in range(1, matrix.n + 1):
        diag = b * matrix.toll(i, i) + float(a[i - 1])
        if diag != 0.0:
            entries[(i, i)] = diag
    return TollMatrix(matrix.n, entries)


# -- single-instance checkers ------------------------------------------------

def check_efficiency(f: MethodFn, matrix: TollMatrix, tol: float = DEFAULT_TOL) -> AxiomVerdict:
    """Shares must add up to the collected total."""
    allocated = float(f(matrix).sum())
    total = matrix.total
    return _verdict("efficiency", {"matrix": matrix}, tol,
                    [((), allocated, total, allowance(tol, total))])


def check_inessential_segment(f: MethodFn, matrix: TollMatrix, tol: float = DEFAULT_TOL) -> AxiomVerdict:
    """Segments used by no positive trip receive nothing."""
    shares = f(matrix)
    slack = allowance(tol, matrix.total)
    return _verdict("inessential_segment", {"matrix": matrix}, tol,
                    (((("segment", i),), shares[i - 1], 0.0, slack)
                     for i in inessential_segments(matrix)))


def check_additivity(f: MethodFn, matrix: TollMatrix, other: TollMatrix, tol: float = DEFAULT_TOL) -> AxiomVerdict:
    combined = f(matrix + other).tolist()
    split = (f(matrix) + f(other)).tolist()
    slack = allowance(tol, matrix.total + other.total)
    return _verdict("additivity", {"matrix": matrix, "other": other}, tol,
                    _per_segment(combined, split, slack))


def check_linearity(f: MethodFn, matrix: TollMatrix, other: TollMatrix, b: float, b2: float,
                    tol: float = DEFAULT_TOL) -> AxiomVerdict:
    combined = f(matrix.scaled(b) + other.scaled(b2)).tolist()
    split = (b * f(matrix) + b2 * f(other)).tolist()
    slack = allowance(tol, b * matrix.total + b2 * other.total)
    instance = {"matrix": matrix, "other": other, "b": b, "b2": b2}
    return _verdict("linearity", instance, tol, _per_segment(combined, split, slack))


def check_covariance(f: MethodFn, matrix: TollMatrix, b: float, a: Sequence[float],
                     tol: float = DEFAULT_TOL) -> AxiomVerdict:
    """Rescaling tolls rescales shares; extra single-segment toll passes through."""
    a = np.asarray(a, dtype=float)
    transformed = f(covariance_transform(matrix, b, a)).tolist()
    expected = (b * f(matrix) + a).tolist()
    slack = allowance(tol, b * matrix.total + float(a.sum()))
    return _verdict("covariance", {"matrix": matrix, "b": b, "a": a}, tol,
                    _per_segment(transformed, expected, slack))


def _common_interval(matrix: TollMatrix) -> tuple[int, int]:
    """Segments contained in every positive trip (whole range if none)."""
    lo, hi = 1, matrix.n
    for (h, k), _ in matrix.trips():
        lo, hi = max(lo, h), min(hi, k)
    return lo, hi


def check_segment_symmetry(f: MethodFn, matrix: TollMatrix, tol: float = DEFAULT_TOL) -> AxiomVerdict:
    """Two segments that appear in every positive trip get equal shares."""
    shares = f(matrix).tolist()
    lo, hi = _common_interval(matrix)
    slack = allowance(tol, matrix.total)
    return _verdict("segment_symmetry", {"matrix": matrix}, tol,
                    (((("pair", (i, j)),), shares[i - 1], shares[j - 1], slack)
                     for i, j in combinations(range(lo, hi + 1), 2)))


def check_weak_segment_symmetry(f: MethodFn, matrix: TollMatrix, tol: float = DEFAULT_TOL) -> AxiomVerdict:
    """With tolls only on the full-highway trip, all shares coincide."""
    if any(trip != (1, matrix.n) for trip, _ in matrix.trips()):
        raise PreconditionNotMet(
            "weak segment symmetry applies only when every positive trip is the full-highway trip"
        )
    shares = f(matrix)
    slack = allowance(tol, matrix.total)
    return _verdict("weak_segment_symmetry", {"matrix": matrix}, tol,
                    (((("pair", (i, i + 1)),), shares[i - 1], shares[i], slack)
                     for i in range(1, matrix.n)))


def check_weighted_segment_symmetry(f: MethodFn, matrix: TollMatrix, tol: float = DEFAULT_TOL) -> AxiomVerdict:
    """Shares of essential segments stand in the ratio of their involvements.

    Applies only when no toll sits on a single-segment trip; compared by
    cross-multiplication to avoid dividing by small shares, with a slack
    scaled by each pair's products.
    """
    if np.any(matrix.diagonal() != 0.0):
        raise PreconditionNotMet(
            "weighted segment symmetry applies only when all single-segment tolls are zero"
        )
    shares = f(matrix).tolist()
    involvements = [matrix.involvement(i) for i in range(1, matrix.n + 1)]
    essential = [i for i in range(1, matrix.n + 1) if involvements[i - 1] > 0.0]
    products = ((i, j, shares[i - 1] * involvements[j - 1], shares[j - 1] * involvements[i - 1])
                for i, j in combinations(essential, 2))
    return _verdict("weighted_segment_symmetry", {"matrix": matrix}, tol,
                    (((("pair", (i, j)),), lhs, rhs, allowance(tol, lhs, rhs))
                     for i, j, lhs, rhs in products))


def _blocking_loss(f: MethodFn, matrix: TollMatrix, cut: int, segments: slice) -> tuple[np.ndarray, float]:
    """Shares lost by blocking ``cut``, and the size of the shares subtracted
    on ``segments``."""
    before, after = f(matrix), f(blocked_matrix(matrix, cut))
    size = max(np.max(np.abs(before[segments])), np.max(np.abs(after[segments])))
    return before - after, float(size)


def check_toll_fairness(f: MethodFn, matrix: TollMatrix, cut: int, tol: float = FAIRNESS_TOL) -> AxiomVerdict:
    """Blocking a boundary costs its two adjacent segments equally."""
    delta, size = _blocking_loss(f, matrix, cut, slice(cut - 1, cut + 1))
    return _verdict("toll_fairness", {"matrix": matrix, "cut": cut}, tol,
                    [((("cut", cut),), delta[cut - 1], delta[cut], allowance(tol, size))])


def check_toll_component_fairness(
    f: MethodFn, matrix: TollMatrix, cut: int, tol: float = FAIRNESS_TOL
) -> AxiomVerdict:
    """Blocking a boundary costs both resulting components the same average."""
    delta, size = _blocking_loss(f, matrix, cut, slice(None))
    return _verdict("toll_component_fairness", {"matrix": matrix, "cut": cut}, tol,
                    [((("cut", cut),), float(delta[:cut].mean()), float(delta[cut:].mean()),
                      allowance(tol, size))])


def _subhighways(matrix: TollMatrix) -> Iterator[tuple[int, int]]:
    """Contiguous intervals that no positive trip partially overlaps: those
    between two cuts that no trip crosses, cut ``c`` following segment ``c``."""
    crossing = [0] * (matrix.n + 1)
    for (h, k), _ in matrix.trips():
        crossing[h] += 1
        crossing[k] -= 1
    cuts = [c for c, trips in enumerate(accumulate(crossing)) if not trips]
    return ((a + 1, b) for a, b in combinations(cuts, 2))


def check_subhighway_efficiency(f: MethodFn, matrix: TollMatrix, tol: float = DEFAULT_TOL) -> AxiomVerdict:
    """Every sub-highway keeps exactly the tolls collected inside it, with a
    slack scaled by each one's own tolls."""
    prefix = np.concatenate([[0.0], np.cumsum(f(matrix))]).tolist()
    internal = ((start, end, sum(t for (h, k), t in matrix.trips() if start <= h and k <= end))
                for start, end in _subhighways(matrix))
    return _verdict("subhighway_efficiency", {"matrix": matrix}, tol,
                    (((("interval", (start, end)),), prefix[end] - prefix[start - 1], inside,
                      allowance(tol, inside))
                     for start, end, inside in internal))


def check_indifference_to_extensions(f: MethodFn, n: int, tol: float = DEFAULT_TOL) -> AxiomVerdict:
    """Extending a unit trip by one segment only affects the new endpoint's
    neighbor; all other segments of the original trip keep their share, up to
    the absolute ``tol``.

    Exhausts every trip of an n-segment highway and both one-segment
    extensions, the left one first.
    """

    def comparisons() -> Iterator[_Comparison]:
        for h, k in combinations_with_replacement(range(1, n + 1), 2):
            base = f(TollMatrix.unit(h, k, n)).tolist()
            # the left extension may move segment h's share, the right one k's
            for left, right, moved in ((h - 1, k, h), (h, k + 1, k)):
                if left < 1 or right > n:
                    continue
                extended = f(TollMatrix.unit(left, right, n)).tolist()
                for i in range(h, k + 1):
                    if i != moved:
                        yield ((("trip", (h, k)), ("extended", (left, right)), ("segment", i)),
                               base[i - 1], extended[i - 1], tol)

    return _verdict("indifference_to_extensions", {"n": n}, tol, comparisons())


# -- the catalogue ---------------------------------------------------------------

#: Occupancy densities of the random instances.
_DENSITIES = (0.3, 0.7, 1.0)


def _pick(rng: np.random.Generator, seq: Sequence):
    """``rng.choice(seq)``, the same draw and value, without converting ``seq``
    to an array on every call."""
    return seq[rng.integers(len(seq))]


def _rand(rng: np.random.Generator, n: int) -> TollMatrix:
    return sample_matrix(rng, n, density=_pick(rng, _DENSITIES))


def _drop_segment(matrix: TollMatrix, segment: int) -> TollMatrix:
    return _trusted(matrix.n, {(h, k): t for (h, k), t in matrix.trips()
                               if not (h <= segment <= k)})


def _strip_diagonal(matrix: TollMatrix) -> TollMatrix:
    return _trusted(matrix.n, {(h, k): t for (h, k), t in matrix.trips() if h != k})


def _draw_common_interval(rng: np.random.Generator, n: int) -> Mapping[str, object]:
    """Trips that all contain a random interval ``[lo, hi]`` of at least two
    segments."""
    lo = int(rng.integers(1, n))
    hi = int(rng.integers(lo + 1, n + 1))
    entries = {}
    for h in range(1, lo + 1):
        for k in range(hi, n + 1):
            if rng.random() < 0.7:
                entries[(h, k)] = 10.0 * (1.0 - rng.random())
    return {"matrix": TollMatrix(n, entries)}


def _draw_full_trip(rng: np.random.Generator, n: int) -> Mapping[str, object]:
    c = 0.0 if rng.random() < 0.2 else 10.0 * (1.0 - rng.random())
    return {"matrix": TollMatrix(n, {(1, n): c} if c else {})}


def _draw_subhighways(rng: np.random.Generator, n: int) -> Mapping[str, object]:
    if rng.random() < 0.5:
        bounds = [0] + [i for i in range(1, n) if rng.random() < 0.5] + [n]
        blocks = [range(lo + 1, hi + 1) for lo, hi in zip(bounds, bounds[1:])]
        return {"matrix": block_structured_matrix(
            blocks, seed=int(rng.integers(2**63)), density=_pick(rng, _DENSITIES)
        )}
    return {"matrix": _rand(rng, n)}


def _draw_linear(rng: np.random.Generator, n: int) -> Mapping[str, object]:
    coeffs = (0.0, 0.5, 1.0, 2.0, float(rng.uniform(0.0, 3.0)))
    return {"matrix": _rand(rng, n), "other": _rand(rng, n),
            "b": _pick(rng, coeffs), "b2": _pick(rng, coeffs)}


def _draw_covariant(rng: np.random.Generator, n: int) -> Mapping[str, object]:
    a = rng.uniform(0.0, 5.0, size=n)
    a[rng.random(n) < 0.3] = 0.0
    return {"matrix": _rand(rng, n),
            "b": _pick(rng, (0.5, 1.0, 2.0, float(rng.uniform(0.1, 3.0)))), "a": a}


def _draw_cut(rng: np.random.Generator, n: int) -> Mapping[str, object]:
    return {"matrix": _rand(rng, n), "cut": int(rng.integers(1, n))}


def _alone(matrix: TollMatrix, rng: np.random.Generator) -> Mapping[str, object]:
    return {"matrix": matrix}


def _at_first_cut(matrix: TollMatrix, rng: np.random.Generator) -> Mapping[str, object] | None:
    return {"matrix": matrix, "cut": 1} if matrix.n >= 2 else None


@dataclass(frozen=True)
class AxiomSpec:
    """One catalogue record: an axiom's checker and how to build its instances.

    ``draw(rng, n)`` builds a random instance on ``n >= min_size`` segments
    that satisfies the axiom's hypothesis; ``around(matrix, rng)`` builds one
    on a given matrix, or returns ``None`` where the axiom does not take one.
    ``tol`` is the default tolerance, and an ``exhausted`` axiom is checked
    once per size instead of on sampled instances.
    """

    check: Callable[..., AxiomVerdict]
    draw: Callable[[np.random.Generator, int], Mapping[str, object]]
    around: Callable[[TollMatrix, np.random.Generator], Mapping[str, object] | None] = _alone
    min_size: int = 1
    tol: float = DEFAULT_TOL
    exhausted: bool = False


CATALOGUE: Mapping[str, AxiomSpec] = {
    "efficiency": AxiomSpec(check_efficiency, lambda rng, n: {"matrix": _rand(rng, n)}),
    "inessential_segment": AxiomSpec(
        check_inessential_segment,
        lambda rng, n: {"matrix": _drop_segment(_rand(rng, n), int(rng.integers(1, n + 1)))},
    ),
    "additivity": AxiomSpec(
        check_additivity,
        lambda rng, n: {"matrix": _rand(rng, n), "other": _rand(rng, n)},
        lambda matrix, rng: {"matrix": matrix, "other": _rand(rng, matrix.n)},
    ),
    "linearity": AxiomSpec(
        check_linearity,
        _draw_linear,
        lambda matrix, rng: {"matrix": matrix, "other": _rand(rng, matrix.n), "b": 2.0, "b2": 0.5},
    ),
    "covariance": AxiomSpec(
        check_covariance,
        _draw_covariant,
        lambda matrix, rng: {"matrix": matrix, "b": 2.0, "a": rng.uniform(0.0, 2.0, size=matrix.n)},
    ),
    "segment_symmetry": AxiomSpec(check_segment_symmetry, _draw_common_interval, min_size=2),
    "weak_segment_symmetry": AxiomSpec(check_weak_segment_symmetry, _draw_full_trip),
    "weighted_segment_symmetry": AxiomSpec(
        check_weighted_segment_symmetry,
        lambda rng, n: {"matrix": _strip_diagonal(_rand(rng, n))},
        min_size=2,
    ),
    "toll_fairness": AxiomSpec(
        check_toll_fairness, _draw_cut, _at_first_cut, min_size=2, tol=FAIRNESS_TOL
    ),
    "toll_component_fairness": AxiomSpec(
        check_toll_component_fairness, _draw_cut, _at_first_cut, min_size=2, tol=FAIRNESS_TOL
    ),
    "subhighway_efficiency": AxiomSpec(check_subhighway_efficiency, _draw_subhighways),
    "indifference_to_extensions": AxiomSpec(
        check_indifference_to_extensions, lambda rng, n: {"n": n}, lambda matrix, rng: None,
        min_size=2, exhausted=True,
    ),
}

AXIOMS = tuple(CATALOGUE)


def run_instance(f: MethodFn, axiom: str, instance: Mapping[str, object], tol: float) -> AxiomVerdict:
    """Run one checker on one concrete instance."""
    return CATALOGUE[axiom].check(f, **instance, tol=tol)


def replay(f: MethodFn, verdict: AxiomVerdict) -> AxiomVerdict:
    """Re-run the checker on a failed verdict's witness inputs."""
    if verdict.witness is None:
        raise NoWitnessError(f"{verdict.axiom} verdict carries no witness to replay")
    return run_instance(f, verdict.axiom, verdict.witness.instance, verdict.witness.tol)


def generate_instance(
    axiom: str, rng: np.random.Generator, sizes: Sequence[int]
) -> Mapping[str, object]:
    """Draw one random instance satisfying the axiom's hypothesis."""
    spec = CATALOGUE[axiom]
    valid = [s for s in sizes if s >= spec.min_size]
    n = int(_pick(rng, valid)) if valid else spec.min_size
    return spec.draw(rng, n)


def evaluate_axiom(
    f: MethodFn,
    axiom: str,
    *,
    trials: int = 200,
    seed: int = 0,
    sizes: Sequence[int] = tuple(range(1, 9)),
    tol: float | None = None,
    extra_instances: Iterable[Mapping[str, object]] = (),
) -> AxiomVerdict:
    """Falsification run: designated instances first, then seeded trials.

    Deterministic in (axiom, seed, trials, sizes).  An exhausted axiom is
    checked once per size instead of sampled.  A negative ``trials`` raises
    :class:`InvalidTrialsError`.
    """
    if trials < 0:
        raise InvalidTrialsError(trials)
    spec = CATALOGUE[axiom]
    if tol is None:
        tol = spec.tol
    for instance in extra_instances:
        try:
            verdict = run_instance(f, axiom, instance, tol)
        except PreconditionNotMet:
            continue
        if not verdict.holds:
            return verdict
    rng = np.random.default_rng(seed)
    if spec.exhausted:
        plan = (spec.draw(rng, n) for n in sorted({max(s, spec.min_size) for s in sizes}))
    else:
        plan = (generate_instance(axiom, rng, sizes) for _ in range(trials))
    for instance in plan:
        verdict = run_instance(f, axiom, instance, tol)
        if not verdict.holds:
            return verdict
    return AxiomVerdict(axiom, True)


#: The axiom sets of the paper's characterizations of sps and of scs, which
#: ``ANCHORED_AXIOMS`` and ``CHARACTERIZATIONS`` share.
_PROPORTIONAL = ("efficiency", "inessential_segment", "weighted_segment_symmetry", "covariance")
_COMPENSATED = ("efficiency", "linearity", "inessential_segment", "weak_segment_symmetry",
                "indifference_to_extensions")
_COMPENSATED_FAIRNESS = ("toll_component_fairness", "subhighway_efficiency")

#: Axiom sets with explicit support, per method; these are asserted by the
#: acceptance suite.
ANCHORED_AXIOMS: Mapping[str, tuple[str, ...]] = {
    "ses": (
        "efficiency",
        "additivity",
        "inessential_segment",
        "segment_symmetry",
        "toll_fairness",
        "subhighway_efficiency",
    ),
    "sps": _PROPORTIONAL,
    "scs": _COMPENSATED + _COMPENSATED_FAIRNESS,
}


# -- running cells -----------------------------------------------------------

_T = TypeVar("_T")

#: Signal that ends a child the caller no longer waits for (9 on every POSIX
#: system; ``signal`` is not loaded for one constant).
_SIGKILL = 9

#: Bytes of one queue record, a cell index, and the most records a queue
#: holds: one page of 4,096 bytes, the least a pipe can hold.
_RECORD = 4
_RECORDS = 4096 // _RECORD


def _worker_count() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _map_cells(run: Callable[..., _T], cells: Sequence[tuple]) -> Iterator[_T]:
    """``run(*cell)`` for each cell, yielded in cell order.

    Cells must not depend on one another.  The caller and one forked child
    per other worker pull cells from one shared queue, each taking the next
    cell when it finishes one, so a worker held up by a slow cell does not
    hold back cells another worker could run; each child sends its results
    back pickled.  Which worker ran a cell depends on timing, but its result
    does not.  A cell that no worker returned, because it raised or its
    child died, runs here when its turn comes, so errors are those of a loop
    over the cells.  With one worker, no ``os.fork`` or another live thread
    (forking then can deadlock), every cell runs here in turn.
    """
    done = _run_shares(run, cells)
    for i, cell in enumerate(cells):
        yield done[i] if i in done else run(*cell)


def _run_shares(run: Callable[..., _T], cells: Sequence[tuple]) -> dict[int, _T]:
    """The results, by cell index, of the cells each worker pulled before
    its first failing cell; all children are reaped before it returns or
    raises."""
    workers = min(_worker_count(), len(cells))
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return {}
    queue, step = _queue(len(cells))
    children: list[tuple[int, int]] = []  # (pid, read end)
    try:
        for _ in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no room for a child: the others pull its cells
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                _child(run, cells, queue, step, write)
            os.close(write)
            children.append((pid, read))
        done = dict(_pull(run, cells, queue, step))
        for _, read in children:
            done.update(_receive(read))
        return done
    except BaseException:
        for pid, _ in children:
            os.kill(pid, _SIGKILL)
        raise
    finally:
        os.close(queue)
        for pid, read in children:
            os.close(read)
            os.waitpid(pid, 0)


def _queue(count: int) -> tuple[int, int]:
    """The read end of a pipe holding the first index of each run of
    ``step`` cells, in cell order, and ``step``.

    Every record is written, and the write end closed, before any worker
    reads, so a read past the last record returns ``b""``.  A pipe holds at
    least one page (pipe(7)), so the records never fill it: ``step`` is 1 up
    to ``_RECORDS`` cells and grows beyond."""
    step = -(-count // _RECORDS)
    read, write = os.pipe()
    try:
        os.write(write, b"".join(i.to_bytes(_RECORD, "little") for i in range(0, count, step)))
    finally:
        os.close(write)
    return read, step


def _pull(run: Callable[..., _T], cells: Sequence[tuple], queue: int,
          step: int) -> list[tuple[int, _T]]:
    """``(index, result)`` for each cell this worker pulls from ``queue``, up
    to its first cell that raises an ``Exception``."""
    results = []
    try:
        while record := os.read(queue, _RECORD):
            first = int.from_bytes(record, "little")
            for i, cell in enumerate(cells[first:first + step], first):
                results.append((i, run(*cell)))
    except Exception:
        pass  # the cell runs again in turn and raises there
    return results


def _child(run: Callable[..., _T], cells: Sequence[tuple], queue: int, step: int,
           write: int) -> NoReturn:
    """Pull cells in a forked child, write the results to ``write`` and
    leave without returning into the caller's stack."""
    try:
        # objects from before the fork are the caller's to collect; a
        # collection here would run their finalizers a second time
        gc.freeze()
        with open(write, "wb") as pipe:
            pipe.write(pickle.dumps(_pull(run, cells, queue, step)))
    finally:
        os._exit(0)


def _receive(read: int) -> list:
    """A child's results; empty if it died before writing them all."""
    with open(read, "rb", closefd=False) as pipe:
        try:
            return pickle.load(pipe)
        except Exception:
            return []


def axiom_matrix(
    method_names: Sequence[str] = tuple(METHODS),
    axioms: Sequence[str] = AXIOMS,
    *,
    trials: int = 200,
    seed: int = 0,
    sizes: Sequence[int] = tuple(range(1, 9)),
) -> dict[str, dict[str, AxiomVerdict]]:
    """Verdict grid: one falsification run per (method, axiom) cell."""

    def cell(name: str, axiom: str) -> AxiomVerdict:
        return evaluate_axiom(allocation_method(name), axiom, trials=trials,
                              seed=_stable_seed(seed, name, axiom), sizes=sizes)

    cells = [(name, axiom) for name in method_names for axiom in axioms]
    grid: dict[str, dict[str, AxiomVerdict]] = {name: {} for name in method_names}
    for (name, axiom), verdict in zip(cells, _map_cells(cell, cells)):
        grid[name][axiom] = verdict
    return grid


# -- independence harness ------------------------------------------------------

@dataclass(frozen=True)
class Characterization:
    """An axiom set together with the methods that pin down its minimality.

    ``failures`` maps each alternative method to the single axiom of the set
    it is expected to violate, and ``instances`` maps a method to the
    hand-built instances on which it provably does, which the harness checks
    before its seeded trials.
    """

    name: str
    axioms: tuple[str, ...]
    failures: Mapping[str, str]
    instances: Mapping[str, Sequence[Mapping[str, object]]] = field(default_factory=dict)


_T3 = TollMatrix(3, {(1, 2): 1.0, (1, 3): 1.0})

CHARACTERIZATIONS: tuple[Characterization, ...] = (
    Characterization(
        "proportional_axioms", _PROPORTIONAL,
        {"A1_involvement_sum": "efficiency", "A1_swap_diag": "covariance",
         "ses": "weighted_segment_symmetry", "A1_tilde": "inessential_segment"},
        {"A1_involvement_sum": [{"matrix": _T3}],
         "A1_swap_diag": [{"matrix": TollMatrix.zero(2), "b": 1.0, "a": (1.0, 2.0)}],
         "ses": [{"matrix": _T3}],
         "A1_tilde": [{"matrix": TollMatrix(3, {(2, 3): 1.0})}]},
    ),
    Characterization(
        "compensated_axioms", _COMPENSATED,
        {"ses": "indifference_to_extensions", "A2_uniform": "inessential_segment",
         "A2_zero": "efficiency", "A2_entrance": "weak_segment_symmetry",
         "A2_hybrid": "linearity"},
        {"ses": [{"n": 3}],
         "A2_uniform": [{"matrix": TollMatrix(4, {(1, 2): 1.0, (1, 3): 1.0})}],
         "A2_zero": [{"matrix": _T3}],
         "A2_entrance": [{"matrix": TollMatrix.unit(1, 3, 3)}],
         "A2_hybrid": [{"matrix": TollMatrix.unit(1, 2, 3), "other": TollMatrix.unit(1, 3, 3),
                        "b": 1.0, "b2": 1.0}]},
    ),
    Characterization(
        "compensated_fairness_axioms", _COMPENSATED_FAIRNESS,
        {"A2_zero": "subhighway_efficiency", "ses": "toll_component_fairness"},
        {"A2_zero": [{"matrix": _T3}], "ses": [{"matrix": _T3, "cut": 1}]},
    ),
)


def _pass_instances(method: str, axiom: str, rng: np.random.Generator) -> list[Mapping[str, object]]:
    """Instances built on a method's trigger matrices for its pass cells."""
    around = CATALOGUE[axiom].around
    built = (around(matrix, rng) for matrix in TRIGGERS.get(method, ()))
    return [instance for instance in built if instance is not None]


@dataclass(frozen=True)
class HarnessRow:
    characterization: str
    method: str
    failed_axiom: str
    verdicts: Mapping[str, bool]


def independence_harness(
    *,
    trials: int = 60,
    seed: int = 0,
    sizes: Sequence[int] = tuple(range(1, 7)),
) -> list[HarnessRow]:
    """Check that every alternative method fails exactly its designated axiom.

    Raises :class:`HarnessMismatchError` on the first cell whose verdict
    contradicts the expected pattern.
    """
    def cell(char: Characterization, method: str, axiom: str,
             should_fail: bool) -> AxiomVerdict:
        cell_seed = _stable_seed(seed, char.name, method, axiom)
        if should_fail:
            extras = char.instances.get(method, [])
        else:
            extras = _pass_instances(method, axiom, np.random.default_rng(cell_seed))
        return evaluate_axiom(allocation_method(method), axiom, trials=trials, seed=cell_seed,
                              sizes=sizes, extra_instances=extras)

    cells = [(char, method, axiom, expected_fail == axiom)
             for char in CHARACTERIZATIONS
             for method, expected_fail in char.failures.items()
             for axiom in char.axioms]
    rows: dict[tuple[str, str], HarnessRow] = {}
    for (char, method, axiom, should_fail), verdict in zip(cells, _map_cells(cell, cells)):
        expected_fail = char.failures[method]
        if verdict.holds == should_fail:
            raise HarnessMismatchError(
                method, axiom,
                "expected failure was not observed" if should_fail else
                f"unexpected failure (designated axiom is {expected_fail}); "
                f"witness gap {verdict.witness.gap:g}",
            )
        row = rows.setdefault((char.name, method),
                              HarnessRow(char.name, method, expected_fail, {}))
        row.verdicts[axiom] = verdict.holds
    return list(rows.values())
