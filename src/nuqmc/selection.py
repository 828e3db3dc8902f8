"""Select N of K points so anchored-box counts track the full set.

Given z_1..z_K in [0,1]^d and N <= sqrt(K), the points are ranked per
coordinate (stable sort, ties broken by original index) and the ranks are cut
into N slabs per axis whose sizes differ from K/N by at most one.  The sort
is the one the exact scans use (`discrepancy._grid`), so a construction
sorts each axis of z once for the decomposition and both certificate scans;
cells are found in axis-0 order, with no (K, d) slab array.  The slab
intersections partition the points into N^d cells, and the scaled occupancy

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

with Q the final selection.  The analogous constant with the
non-constructive reference prefix error is recorded alongside for
comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrepancy import _grid
from .dyadic import reference_prefix_bound, round_array
from .measures import PointSet

__all__ = ["CellDecomposition", "SelectionResult", "decompose", "select_subset"]


@dataclass(frozen=True)
class CellDecomposition:
    """Per-axis rank slabs and the scaled cell-occupancy array."""

    z: PointSet
    n_target: int
    boundaries: np.ndarray    # (d, N+1) rank cut points floor(i*K/N)
    counts: np.ndarray        # (N,)*d cell occupancies
    beta: np.ndarray          # N/(K+N) * counts
    first: np.ndarray         # (N,)*d lowest index of a cell's points, K if none

    @property
    def k(self) -> int:
        return self.z.n

    @property
    def d(self) -> int:
        return self.z.dim

    @property
    def point_cells(self) -> np.ndarray:
        """(K, d) 0-based slab index per point per axis, from a fresh sort."""
        cells = np.empty((self.k, self.d), dtype=np.int64)
        for s, order in enumerate(_grid(self.z.points)[2]):
            cells[order, s] = _slab_of_rank(self.k, self.n_target)
        return cells

    def prefix_count(self, prefix) -> int:
        """#G(J) = number of z points in the union of cells <= J (1-based)."""
        prefix = tuple(int(j) for j in prefix)
        if any(j < 0 for j in prefix):
            return 0
        cum = self.counts
        for axis in range(self.d):
            cum = np.cumsum(cum, axis=axis)
        idx = tuple(min(j, self.n_target) - 1 for j in prefix)
        if any(i < 0 for i in idx):
            return 0
        return int(cum[idx])


def _slab_of_rank(k: int, n: int) -> np.ndarray:
    """Slab of every rank r = 1..K: boundaries[i] < r <= boundaries[i+1] for
    i = ceil(r*N/K) - 1 = (r*N - 1)//K, with boundaries[i] = floor(i*K/N)."""
    slab = np.arange(n - 1, k * n, n, dtype=np.int64)
    return np.floor_divide(slab, k, out=slab)


def decompose(z: PointSet, n_target: int, *, _orders=None) -> CellDecomposition:
    """Rank-slab cell decomposition of z for a target size N <= sqrt(K).

    `_orders` is `discrepancy._grid(z.points)[2]` when the caller already
    has it."""
    k, d = z.n, z.dim
    if n_target < 1:
        raise ValueError("N must be >= 1")
    if n_target > math.isqrt(k):
        raise ValueError(
            f"N={n_target} violates the selection hypothesis N <= sqrt(K) (K={k})"
        )
    boundaries = np.tile(np.arange(n_target + 1, dtype=np.int64) * k // n_target, (d, 1))
    slab_sizes = np.diff(boundaries[0])
    assert np.all(np.abs(slab_sizes - k / n_target) < 1.0)

    if _orders is None:
        _orders = _grid(z.points)[2]
    # axis-0 position p has axis-0 rank p + 1; on axis s a sorted position's
    # slab goes to its point (scatter), then to its axis-0 position (gather)
    slab = _slab_of_rank(k, n_target)
    cell = slab.copy() if d > 1 else slab
    for order in _orders[1:]:
        scattered = np.empty_like(slab)
        scattered[order] = slab
        cell *= n_target
        cell += scattered[_orders[0]]

    shape = (n_target,) * d
    counts = np.bincount(cell, minlength=math.prod(shape)).reshape(shape)
    assert counts.sum() == k
    first = np.full(counts.size, k, dtype=np.int64)
    np.minimum.at(first, cell, _orders[0])

    beta = counts * (n_target / (k + n_target))
    if beta.max() > 1.0:
        raise ValueError(
            "cell occupancy exceeds (K+N)/N; rank slabs cannot absorb the input"
        )
    return CellDecomposition(z, n_target, boundaries, counts, beta, first.reshape(shape))


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


def select_subset(z: PointSet, n_target: int, *, _decomp=None) -> SelectionResult:
    """Select exactly N points of z tracking its anchored-box counts.

    Deterministic given (z order, N); the certificate is derived from the
    rounding that actually ran.  `_decomp` is `decompose(z, n_target)` when
    the caller already has it."""
    decomp = decompose(z, n_target) if _decomp is None else _decomp
    k, d = decomp.k, decomp.d

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
        unselected = np.setdiff1d(np.arange(k), reps, assume_unique=False)
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
