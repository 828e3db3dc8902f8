"""Select N of K points so anchored-box counts track the full set.

Given z_1..z_K in [0,1]^d and N <= sqrt(K), the points are ranked per
coordinate (stable sort, ties broken by original index) and the ranks are cut
into N slabs per axis whose sizes differ from K/N by at most one.  The sort
is the one the exact scans use and z keeps (`PointSet.critical_grid`), so a
construction sorts z once for the decomposition and both certificate scans;
cells are found in axis-0 order, with no (K, d) slab array.  At d=1 the
cells are the slabs, and slab i is the stretch of axis-0 positions
[iK//N, (i+1)K//N): its occupancy is the stretch's length and its
representative the stretch's lowest index, with no K-long cell array.
The slab intersections partition the points into N^d cells, and the scaled
occupancy

    beta_cell = N/(K+N) * #(points in cell)

lies in [0,1] because a cell holds at most one slab's worth of points.  The
beta array is rounded to 0/1 over the dyadic hypergraph; each 1-cell
contributes one representative point (lowest original index), and the raw
selection is adjusted to exactly N points deterministically (drop highest
index / add lowest unselected index).

The certificate chains the exact measured prefix error E of the rounding to
a bound on |#(selected in A) - (N/K) #(z in A)| over all anchored boxes A:

    prefix sets:        |#(P in G) - (N/K) #G|     <= E + 1        (G-bound)
    cardinality fix:    |#(Q in G) - (N/K) #G|     <= 2(E + 1)     (Q-bound)
    slab boundaries:    #(G(J+1) \\ G(J))           <= 2dK/N
    anchored boxes:     |#(Q in A) - (N/K) #(z in A)| <= 6E + 4d + 6

with Q the final selection: N distinct rows of z, whose indices
`discrepancy.discrete_discrepancy(z, indices)` takes to measure the left
side exactly.  The analogous constant with the non-constructive reference
prefix error is recorded alongside for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import reference_prefix_bound, round_array
from .measures import PointSet

__all__ = ["CellDecomposition", "SelectionResult", "decompose", "select_subset"]


@dataclass(frozen=True)
class CellDecomposition:
    """The scaled cell-occupancy array of the rank slabs, and every cell's
    representative."""

    counts: np.ndarray        # (N,)*d cell occupancies
    beta: np.ndarray          # N/(K+N) * counts
    first: np.ndarray         # (N,)*d lowest index of a cell's points, K if none


def _whole(name, value):
    """`value` as an int; refused, not truncated, unless it is an integer
    >= 1 (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {name}={value!r}")
    return int(value)


def _slab_of_rank(k: int, n: int) -> np.ndarray:
    """Slab of every rank r = 1..K: boundaries[i] < r <= boundaries[i+1] for
    i = ceil(r*N/K) - 1 = (r*N - 1)//K, with boundaries[i] = floor(i*K/N)."""
    slab = np.arange(n - 1, k * n, n, dtype=np.int64)
    return np.floor_divide(slab, k, out=slab)


def decompose(z: PointSet, n_target: int) -> CellDecomposition:
    """Rank-slab cell decomposition of z for a target size N <= sqrt(K).
    N is an integer >= 1, a numpy integer included; a bool, a float or a
    string is refused, not truncated."""
    k, d = z.n, z.dim
    n_target = _whole("N", n_target)
    if n_target > math.isqrt(k):
        raise ValueError(
            f"N={n_target} violates the selection hypothesis N <= sqrt(K) (K={k})"
        )
    orders = z.critical_grid[2]
    shape = (n_target,) * d
    if d == 1:
        # slab i is the axis-0 positions [iK//N, (i+1)K//N), none empty
        # since K >= N^2
        bounds = np.arange(n_target + 1, dtype=np.intp) * k // n_target
        counts = np.diff(bounds)
        first = np.minimum.reduceat(orders[0], bounds[:-1]).astype(np.int64, copy=False)
    else:
        # axis-0 position p has axis-0 rank p + 1; on axis s a sorted
        # position's slab goes to its point (scatter), then to its axis-0
        # position (gather)
        slab = _slab_of_rank(k, n_target)
        cell = slab.copy()
        for order in orders[1:]:
            scattered = np.empty_like(slab)
            scattered[order] = slab
            cell *= n_target
            cell += scattered[orders[0]]
        counts = np.bincount(cell, minlength=math.prod(shape)).reshape(shape)
        first = np.full(counts.size, k, dtype=np.int64)
        np.minimum.at(first, cell, orders[0])
    assert counts.sum() == k

    beta = counts * (n_target / (k + n_target))
    if beta.max() > 1.0:
        raise ValueError(
            "cell occupancy exceeds (K+N)/N; rank slabs cannot absorb the input"
        )
    return CellDecomposition(counts, beta, first.reshape(shape))


@dataclass(frozen=True)
class SelectionResult:
    selected: PointSet
    indices: np.ndarray          # indices into z, ascending
    raw_selected_count: int
    certificate: dict

    def to_dict(self):
        return {
            "indices": self.indices.tolist(),
            "raw_selected_count": self.raw_selected_count,
            "certificate": self.certificate,
        }


def select_subset(z: PointSet, n_target: int) -> SelectionResult:
    """Select exactly N points of z tracking its anchored-box counts.

    Deterministic given (z order, N); the certificate is derived from the
    rounding that actually ran.  N is checked as `decompose` checks it."""
    decomp = decompose(z, n_target)
    n_target = int(n_target)  # decompose refused all but an integer >= 1
    k, d = z.n, z.dim

    b, round_cert = round_array(decomp.beta)
    # representative = lowest original index among each 1-cell's members
    reps = decomp.first[b == 1]
    assert np.all(reps < k), "a selected cell has no members (zero preservation broke)"
    reps = np.sort(reps)
    raw_count = reps.size

    e_prefix = round_cert["measured_prefix_error"]
    g_bound = e_prefix + 1.0
    if abs(raw_count - n_target) > g_bound + 1e-9:
        raise RuntimeError(
            f"cardinality gap {abs(raw_count - n_target)} exceeds G-bound {g_bound}"
        )

    if raw_count > n_target:
        indices = reps[:n_target]  # drop highest original indices
    elif raw_count < n_target:
        # at most raw_count < N of [0, N) are selected, so the lowest
        # unselected indices lie there
        unselected = np.setdiff1d(np.arange(n_target), reps)
        indices = np.sort(
            np.concatenate([reps, unselected[: n_target - raw_count]])
        )
    else:
        indices = reps
    selected = PointSet(z.points[indices])

    q_bound = 2.0 * g_bound
    box_bound = 4.0 * d + 3.0 * q_bound  # = 6*E + 4d + 6
    ref_prefix = reference_prefix_bound(n_target, d)
    certificate = {
        "rounding": round_cert,
        "prefix_error": e_prefix,
        "g_bound": g_bound,
        "q_bound": q_bound,
        "box_bound": box_bound,
        "slab_boundary_bound": 2.0 * d * k / n_target,
        "reference_box_bound": 6.0 * ref_prefix + 4.0 * d + 6.0,
        "n": n_target,
        "k": k,
        "d": d,
    }
    return SelectionResult(selected, indices, raw_count, certificate)
