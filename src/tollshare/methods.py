"""Toll allocation methods.

Three named methods are provided: ``ses`` (segments equal sharing), ``sps``
(segments proportional sharing) and ``scs`` (segments compensated sharing).
All three are instances of a generic family: a weight scheme assigns a
nonnegative weight to every (trip, segment) pair, and a segment's share is
the weighted sum of the tolls of the trips through it.  The closed forms run
on ``model.coverage`` and hand it their weights in the form of its lane, so
each returns the same bits in either lane; ``family_allocate`` stays off it
to cross-check them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import (
    InvalidAllocationError,
    NegativeWeightError,
    SegmentIndexError,
    UnknownMethodError,
    UnknownSchemeError,
)
from .model import _RESIDUE, TollMatrix, array_lane, coverage, is_unit_matrix

MethodFn = Callable[[TollMatrix], np.ndarray]


def ses(matrix: TollMatrix) -> np.ndarray:
    """Equal split: segment i receives sum over trips [h,k] containing i of
    ``t_hk / (k - h + 1)``."""
    columns = array_lane(matrix)
    if columns is None:
        return coverage(matrix, (toll / (k - h + 1) for (h, k), toll in matrix.trips()))
    return coverage(matrix, columns.toll / (columns.exit - columns.entry + 1))


@dataclass(frozen=True)
class SpsDecomposition:
    """Separable / non-separable revenue split behind the proportional method.

    ``separable[i]`` is the single-segment toll ``t_ii``;
    ``nonseparable[i]`` is the multi-segment revenue involving segment i;
    ``nonseparable_total`` is the pooled multi-segment revenue; ``beta`` is
    the proportionality coefficient, or ``None`` when there is no
    multi-segment revenue to share.
    """

    separable: np.ndarray
    nonseparable: np.ndarray
    nonseparable_total: float
    beta: float | None

    def shares(self) -> np.ndarray:
        """The proportional split ``t_ii + beta * NS_i``, or a copy of the
        diagonal when ``beta`` is ``None``."""
        if self.beta is None:
            return self.separable.copy()
        return self.separable + self.beta * self.nonseparable


def sps_decomposition(matrix: TollMatrix) -> SpsDecomposition:
    separable = matrix.diagonal()
    columns = array_lane(matrix)
    if columns is None:
        weights = (0.0 if h == k else toll for (h, k), toll in matrix.trips())
    else:
        weights = np.where(columns.entry == columns.exit, 0.0, columns.toll)
    nonseparable = coverage(matrix, weights)
    pooled = matrix.total - float(separable.sum())
    if pooled <= _RESIDUE * matrix.n * matrix.total:
        # the difference may be all rounding when the diagonal dwarfs the rest
        pooled = math.fsum(toll for (h, k), toll in matrix.trips() if h != k)
    denom = float(nonseparable.sum())
    beta = pooled / denom if denom > 0.0 else None
    return SpsDecomposition(separable, nonseparable, pooled, beta)


def sps(matrix: TollMatrix) -> np.ndarray:
    """Proportional split: ``t_ii + beta * NS_i``.

    When every toll sits on a single-segment trip the pooled revenue is zero
    and the method degenerates to the diagonal itself.
    """
    return sps_decomposition(matrix).shares()


def scs(matrix: TollMatrix) -> np.ndarray:
    """Compensated split.

    For a multi-segment trip [h,k] on an n-segment highway, the entry
    segment h weighs h/n, the exit segment k weighs (n-k+1)/n and every
    interior segment weighs 1/n; single-segment trips stay where they were
    collected.
    """
    n = matrix.n
    # a multi-segment trip gives toll/n to each segment, plus (h-1)/n at entry, (n-k)/n at exit
    columns = array_lane(matrix)
    if columns is None:
        ends = [0.0] * n
        for (h, k), toll in matrix.trips():
            if h < k:
                ends[h - 1] += toll * (h - 1) / n
                ends[k - 1] += toll * (n - k) / n
        weights = (toll if h == k else toll / n for (h, k), toll in matrix.trips())
        return coverage(matrix, weights) + ends
    multi = columns.entry < columns.exit
    h, k, toll = columns.entry[multi], columns.exit[multi], columns.toll[multi]
    # a bin's exit terms come from trips entering before it, so the loop adds them first
    ends = np.bincount(k - 1, toll * (n - k) / n, minlength=n)
    np.add.at(ends, h - 1, toll * (h - 1) / n)
    return coverage(matrix, np.where(multi, columns.toll / n, columns.toll)) + ends


# -- the generic weight-scheme family ---------------------------------------

#: Per-matrix weight function: (entry, exit, segment) -> weight.
WeightFn = Callable[[int, int, int], float]


@dataclass(frozen=True)
class WeightScheme:
    """A family member: nonnegative weights per (trip, segment) pair.

    ``t_independent`` declares that the weights do not depend on the toll
    matrix (only on its size).  ``factory`` builds the per-matrix weight
    function; binding once per matrix lets toll-dependent schemes compute
    their coefficients a single time.
    """

    name: str
    t_independent: bool
    factory: Callable[[TollMatrix], WeightFn]

    def weight(self, matrix: TollMatrix, entry: int, exit: int, segment: int) -> float:
        if not (entry <= segment <= exit):
            raise SegmentIndexError(f"segment {segment} is not on trip [{entry},{exit}]")
        return self.factory(matrix)(entry, exit, segment)


def _ses_weights(matrix: TollMatrix) -> WeightFn:
    return lambda h, k, i: 1.0 / (k - h + 1)


def _sps_weights(matrix: TollMatrix) -> WeightFn:
    beta = sps_decomposition(matrix).beta
    # beta is never consumed when there is no multi-segment toll to weight
    coeff = 0.0 if beta is None else beta

    def weight(h: int, k: int, i: int) -> float:
        return 1.0 if h == k else coeff

    return weight


def _scs_weights(matrix: TollMatrix) -> WeightFn:
    n = matrix.n

    def weight(h: int, k: int, i: int) -> float:
        if h == k:
            return 1.0
        if i == h:
            return i / n
        if i == k:
            return (n - i + 1) / n
        return 1.0 / n

    return weight


_SCHEMES: Mapping[str, WeightScheme] = {
    "ses": WeightScheme("ses", True, _ses_weights),
    "sps": WeightScheme("sps", False, _sps_weights),
    "scs": WeightScheme("scs", True, _scs_weights),
}


def builtin_scheme(name: str) -> WeightScheme:
    try:
        return _SCHEMES[name]
    except KeyError:
        raise UnknownSchemeError(name) from None


def family_allocate(matrix: TollMatrix, scheme: WeightScheme) -> np.ndarray:
    """Evaluate a family member: share_i = sum of weight * toll over the
    trips through segment i.

    The result is nonnegative by weight admissibility but is efficient only
    for schemes whose per-trip weights sum to 1.
    """
    weight = scheme.factory(matrix)
    shares = np.zeros(matrix.n)
    for (h, k), toll in matrix.trips():
        for i in range(h, k + 1):
            w = weight(h, k, i)
            if not (math.isfinite(w) and w >= 0.0):
                raise NegativeWeightError(h, k, i, w)
            shares[i - 1] += w * toll
    return shares


def share_percentages(shares: np.ndarray, total: float | None = None) -> np.ndarray:
    """Percent of the collected total per segment, half-even at 2 decimals.

    Raises :class:`InvalidAllocationError` unless the total, 100 times each
    share and each percent are finite, so nothing here overflows.  The shares
    of any matrix that the range rule accepts pass; their summed sizes may
    pass its total by a rounding, so the check is on the largest share.  A
    percent from 2^52 up is a whole number and is kept as it is, where
    ``np.round`` would overflow."""
    shares = np.asarray(shares, dtype=float)
    with np.errstate(over="ignore"):
        total = float(shares.sum() if total is None else total)
        percent = 100.0 * shares / total if 0.0 < total < math.inf else np.zeros_like(shares)
        rounded = np.round(percent, 2)  # overflows only where ``percent`` is whole
    if not (math.isfinite(total) and 100.0 * float(np.abs(shares).max(initial=0.0)) < math.inf
            and np.isfinite(percent).all()):
        raise InvalidAllocationError("total, 100 times each share and each percent must be finite")
    return np.where(np.abs(percent) < 2.0 ** 52, rounded, percent)


# -- deliberately flawed methods --------------------------------------------
#
# Each method below satisfies all but one property of an axiom set; the
# independence harness in tollshare.axioms pins down which one fails.

def _involvement_sum(matrix: TollMatrix) -> np.ndarray:
    return coverage(matrix, matrix.entries.values())


def _swap_diag(matrix: TollMatrix) -> np.ndarray:
    if matrix == TRIGGERS["A1_swap_diag"][0]:
        return np.array([2.0, 1.0])
    return sps(matrix)


def _in_tilde_family(matrix: TollMatrix) -> bool:
    return (
        matrix.n == 3
        and matrix.toll(1, 2) == 0.0
        and matrix.toll(1, 3) == 0.0
        and matrix.toll(2, 3) > 0.0
    )


def _tilde(matrix: TollMatrix) -> np.ndarray:
    if _in_tilde_family(matrix):
        return matrix.diagonal() + matrix.toll(2, 3) / 3.0
    return sps(matrix)


def _uniform(matrix: TollMatrix) -> np.ndarray:
    return np.full(matrix.n, matrix.total / matrix.n)


def _zero(matrix: TollMatrix) -> np.ndarray:
    return np.zeros(matrix.n)


def _entrance(matrix: TollMatrix) -> np.ndarray:
    shares = np.zeros(matrix.n)
    for (h, _), toll in matrix.trips():
        shares[h - 1] += toll
    return shares


def _hybrid(matrix: TollMatrix) -> np.ndarray:
    return scs(matrix) if is_unit_matrix(matrix) else ses(matrix)


COUNTEREXAMPLES: Mapping[str, MethodFn] = {
    "A1_involvement_sum": _involvement_sum,
    "A1_swap_diag": _swap_diag,
    "A1_tilde": _tilde,
    "A2_uniform": _uniform,
    "A2_zero": _zero,
    "A2_entrance": _entrance,
    "A2_hybrid": _hybrid,
}

#: Matrices that take each piecewise counterexample down its special branch.
TRIGGERS: Mapping[str, tuple[TollMatrix, ...]] = {
    "A1_swap_diag": (TollMatrix(2, {(1, 1): 1.0, (2, 2): 2.0}),),
    "A1_tilde": (TollMatrix(3, {(2, 3): 1.0}),
                 TollMatrix(3, {(1, 1): 0.5, (2, 2): 0.25, (2, 3): 2.0})),
    "A2_hybrid": (TollMatrix.unit(1, 2, 3), TollMatrix.unit(2, 2, 4)),
}


def counterexample_method(name: str) -> MethodFn:
    try:
        return COUNTEREXAMPLES[name]
    except KeyError:
        raise UnknownMethodError(name) from None


METHODS: Mapping[str, MethodFn] = {"ses": ses, "sps": sps, "scs": scs}


def allocation_method(name: str) -> MethodFn:
    """Look up a method by name, covering the three main methods and the
    deliberately flawed ones."""
    if name in METHODS:
        return METHODS[name]
    if name in COUNTEREXAMPLES:
        return COUNTEREXAMPLES[name]
    raise UnknownMethodError(name)
