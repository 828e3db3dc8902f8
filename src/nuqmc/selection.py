"""Select N of K points so anchored-box counts track the full set.

Given z_1..z_K in [0,1]^d and N <= sqrt(K), the points are ranked per
coordinate (stable sort, ties broken by original index) and the ranks are cut
into N slabs per axis whose sizes differ from K/N by at most one.  The sort
is the one the exact scans use (`discrepancy._stable_orders`), so a
construction sorts each axis of z once for the decomposition and both
certificate scans.  The slab intersections partition the points into N^d
cells, and the scaled occupancy

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

from .discrepancy import _stable_orders
from .dyadic import reference_prefix_bound, round_array
from .measures import PointSet

__all__ = ["CellDecomposition", "SelectionResult", "decompose", "select_subset"]


@dataclass(frozen=True)
class CellDecomposition:
    """Per-axis rank slabs and the scaled cell-occupancy array."""

    z: PointSet
    n_target: int
    boundaries: np.ndarray    # (d, N+1) rank cut points floor(i*K/N)
    point_cells: np.ndarray   # (K, d) 0-based slab index per point per axis
    counts: np.ndarray        # (N,)*d cell occupancies
    beta: np.ndarray          # N/(K+N) * counts

    @property
    def k(self) -> int:
        return self.z.n

    @property
    def d(self) -> int:
        return self.z.dim

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


def decompose(z: PointSet, n_target: int, *, _orders=None) -> CellDecomposition:
    """Rank-slab cell decomposition of z for a target size N <= sqrt(K).

    `_orders` is `discrepancy._stable_orders(z.points)` when the caller
    already has it."""
    k, d = z.n, z.dim
    if n_target < 1:
        raise ValueError("N must be >= 1")
    if n_target > math.isqrt(k):
        raise ValueError(
            f"N={n_target} violates the selection hypothesis N <= sqrt(K) (K={k})"
        )
    boundaries = np.array(
        [[(i * k) // n_target for i in range(n_target + 1)] for _ in range(d)],
        dtype=np.int64,
    )
    slab_sizes = np.diff(boundaries[0])
    assert np.all(np.abs(slab_sizes - k / n_target) < 1.0)

    # rank r (1-based) lies in slab i iff boundaries[i] < r <= boundaries[i+1],
    # i.e. i = ceil(r*N/K) - 1 for boundaries[i] = floor(i*K/N)
    slab_of_rank = (np.arange(1, k + 1, dtype=np.int64) * n_target + k - 1) // k - 1
    if _orders is None:
        _orders = _stable_orders(z.points)
    point_cells = np.empty((k, d), dtype=np.int64)
    for s in range(d):
        point_cells[_orders[s], s] = slab_of_rank  # ties keep index order

    shape = (n_target,) * d
    flat = np.ravel_multi_index(tuple(point_cells[:, s] for s in range(d)), shape)
    counts = np.bincount(flat, minlength=math.prod(shape)).reshape(shape)
    assert counts.sum() == k

    beta = counts * (n_target / (k + n_target))
    if beta.max() > 1.0:
        raise ValueError(
            "cell occupancy exceeds (K+N)/N; rank slabs cannot absorb the input"
        )
    return CellDecomposition(z, n_target, boundaries, point_cells, counts, beta)


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


def select_subset(z: PointSet, n_target: int, *, _orders=None) -> SelectionResult:
    """Select exactly N points of z tracking its anchored-box counts.

    Deterministic given (z order, N); the certificate is derived from the
    rounding that actually ran.  `_orders` is passed on to
    `decompose`."""
    decomp = decompose(z, n_target, _orders=_orders)
    k, d = decomp.k, decomp.d
    beta = decomp.beta

    # representative = lowest original index among each 1-cell's members
    flat_cells = np.ravel_multi_index(
        tuple(decomp.point_cells[:, s] for s in range(d)), decomp.counts.shape
    )
    first_member = np.full(decomp.counts.size, k, dtype=np.int64)
    np.minimum.at(first_member, flat_cells, np.arange(k, dtype=np.int64))
    del decomp, flat_cells  # the rounding reads only beta; (K, d) slab indices go first
    b, round_cert = round_array(beta)
    chosen_cells = np.flatnonzero(b.ravel() == 1)
    reps = first_member[chosen_cells]
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
