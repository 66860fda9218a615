#!/usr/bin/env python3
"""Rebuild the bundled AP68 trip matrix from the published per-segment figures.

The operator's raw trip-level data for the AP68 highway is not redistributed
here.  What is published are per-segment totals under the three allocation
methods (see tests/ap68_reference.py).  This script reconstructs a compatible
trip matrix: 253 nonnegative trip variables constrained so that the equal,
proportional, and compensated allocations all land within EPSILON of the
published column values, plus one equality tying the proportional
coefficient beta to the matrix it is computed from.  Among feasible
matrices it picks the one with the least length-weighted toll mass, which
concentrates tolls on short trips and keeps the fixture sparse.

Beta enters the constraint matrix bilinearly, so it is pinned by a
coarse-to-fine one-dimensional search: for a candidate beta the remaining
problem is a linear program, and the published columns are only consistent
in a narrow beta window.

Usage:  python scripts/build_ap68_fixture.py [--output PATH]

The linear programs are solved with ``scipy.optimize.linprog``; scipy is not a
runtime dependency of the package, so install the ``test`` extra first
(``pip install -e .[test]``).

Writes the triplet CSV and prints its sha256; update FIXTURE_SHA256 in
tests/ap68_reference.py and AP68_SHA256 in perfbench/workloads.py when the
fixture is regenerated on purpose.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import ap68_reference as ref  # noqa: E402

N = 22
EPSILON = 0.0008  # per-cell window; the published columns allow ~0.0007

#: Proportionality coefficient the committed fixture was built at.  Frozen so
#: that rebuilding is bit-reproducible; pass --search-beta to re-derive it.
BETA = 0.135302746954


def _design():
    trips = [(h, k) for h in range(1, N + 1) for k in range(h, N + 1)]
    m = len(trips)
    a_equal = np.zeros((N, m))
    a_comp = np.zeros((N, m))
    a_inv = np.zeros((N, m))
    a_diag = np.zeros((N, m))
    length = np.zeros(m)
    for j, (h, k) in enumerate(trips):
        length[j] = k - h + 1
        if h == k:
            a_diag[h - 1, j] = 1.0
        for i in range(h, k + 1):
            a_equal[i - 1, j] = 1.0 / length[j]
            a_inv[i - 1, j] = 1.0
            a_comp[i - 1, j] = ((i - 1) * (h == i) + 1 + (N - i) * (k == i)) / N
    return trips, length, a_equal, a_comp, a_inv, a_diag


def _solve(beta, eps, objective, design):
    trips, length, a_equal, a_comp, a_inv, a_diag = design
    m = len(trips)
    a_prop = beta * a_inv + (1.0 - beta) * a_diag
    rows = np.vstack([a_equal, a_prop, a_comp])
    refs = np.concatenate(
        [ref.column("ses"), ref.column("sps"), ref.column("scs")]
    )
    # beta consistency: sum over multi-segment trips of (beta*len - 1)*t = 0
    consistency = np.where(length > 1, beta * length - 1.0, 0.0)
    if objective == "feasibility":
        # minimize the worst deviation s with |rows.t - refs| <= s
        nrow = rows.shape[0]
        a_ub = np.zeros((2 * nrow, m + 1))
        a_ub[:nrow, :m] = rows
        a_ub[nrow:, :m] = -rows
        a_ub[:, m] = -1.0
        b_ub = np.concatenate([refs, -refs])
        c = np.zeros(m + 1)
        c[m] = 1.0
        bounds = [(0, None)] * (m + 1)
        a_eq = np.zeros((1, m + 1))
        a_eq[0, :m] = consistency
    else:
        a_ub = np.vstack([rows, -rows])
        b_ub = np.concatenate([refs + eps, -(refs - eps)])
        c = length.copy()
        bounds = [(0, None)] * m
        a_eq = consistency[None, :]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[0.0],
                  bounds=bounds, method="highs")
    return res


def search_beta(design) -> float:
    best_beta, best_dev = None, np.inf
    for beta in np.arange(0.10, 0.91, 0.01):
        res = _solve(beta, None, "feasibility", design)
        if res.status == 0 and res.x[-1] < best_dev:
            best_beta, best_dev = beta, res.x[-1]
    lo, hi = best_beta - 0.01, best_beta + 0.01
    for _ in range(90):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        d1 = _solve(m1, None, "feasibility", design).x[-1]
        d2 = _solve(m2, None, "feasibility", design).x[-1]
        lo, hi = (lo, m2) if d1 <= d2 else (m1, hi)
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def fit(beta: float | None) -> tuple[list[tuple[int, int]], np.ndarray]:
    design = _design()
    if beta is None:
        beta = search_beta(design)
        print(f"derived beta = {beta!r}")
    res = _solve(beta, EPSILON, "sparse", design)
    if res.status != 0:
        raise SystemExit(f"no feasible matrix at beta={beta}: {res.message}")
    values = res.x.copy()
    values[values < 1e-9] = 0.0
    return design[0], values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default = Path(__file__).resolve().parent.parent / "src" / "tollshare" / "data" / "ap68_trips.csv"
    parser.add_argument("--output", default=str(default))
    parser.add_argument("--search-beta", action="store_true",
                        help="re-derive beta instead of using the frozen value")
    args = parser.parse_args()

    trips, values = fit(None if args.search_beta else BETA)
    lines = ["entry,exit,toll"]
    for j, (h, k) in enumerate(trips):
        if values[j] > 0.0:
            lines.append(f"{h},{k},{float(values[j])!r}")
    payload = "\n".join(lines) + "\n"
    Path(args.output).write_text(payload)

    import tollshare as ts

    matrix = ts.read_triplet_csv(args.output, n=N)
    for name in ref.METHOD_ORDER:
        shares = ts.allocation_method(name)(matrix)
        gap = max(abs(float(shares[i - 1]) - ref.REFERENCE_SHARES[i][ref.METHOD_ORDER.index(name)])
                  for i in range(1, N + 1))
        print(f"{name}: {len(lines) - 1} trips, max deviation {gap:.6f}")
    print("sha256:", hashlib.sha256(payload.encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
