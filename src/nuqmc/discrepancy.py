"""Star-discrepancy of a point set with respect to a box measure.

The supremum of |count/N - mu([0,a])| over anchored boxes is attained on the
critical grid: per coordinate, the distinct point coordinates plus 1.0.  At
every grid corner two variants are evaluated:

  closed  -- points counted with <=, mass of the closed box;
  open    -- points counted with <,  mass of the open box.

The open variant is the limit of closed boxes [0, a - eps] as eps -> 0, which
captures suprema that are approached but not attained.  For measures with
atomless marginals the open-box mass equals the closed-box mass, so the open
variant pairs the strict count with the closed mass; for discrete measures
the mass side honours the strict limit as well (otherwise e.g. the
discrepancy of a point set against its own empirical measure would not be 0).

One sort per axis gives both the grid and the ranks: a single np.unique over
the counted coordinates, 1.0 and the mass side's coordinates returns the axis
and the index on it of every point, so no point is searched for.  Counts over
the whole grid come from one bincount at those indices and d-dimensional
cumulative sums, so a scan of K points costs O(K log K + grid cells * d)
rather than O(grid cells * K * d).  The scan refuses to run when
grid_cells * d exceeds a configurable step budget (default 1e8, overridable
via the NUQMC_BUDGET environment variable); the budget is checked after the
sort, which needs O(K) memory, and before anything of the grid's size is
allocated.

All operations are pure; scans may be partitioned arbitrarily and max-reduced
without changing the result.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .measures import AnchoredBox, BoxMeasure, DimensionMismatchError, PointSet

__all__ = [
    "DiscrepancyReport",
    "BudgetExceededError",
    "exact_star_discrepancy",
    "estimate_star_discrepancy",
    "discrete_discrepancy",
    "local_star_discrepancy",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 10**8
_BLOCK_CELLS = 1 << 16  # grid cells per row block of the in-place difference


class BudgetExceededError(RuntimeError):
    """Exact scan would exceed the step budget; use estimate_star_discrepancy
    or raise the budget."""


def _resolve_budget(budget):
    if budget is not None:
        return int(budget)
    return int(os.environ.get("NUQMC_BUDGET", DEFAULT_BUDGET))


@dataclass(frozen=True)
class DiscrepancyReport:
    value: float
    witness: AnchoredBox
    mode: str  # "exact" | "estimate"
    boxes_scanned: int

    def to_dict(self):
        return {
            "value": self.value,
            "witness_corner": self.witness.corner.tolist(),
            "witness_closed": self.witness.closed,
            "mode": self.mode,
            "boxes_scanned": self.boxes_scanned,
        }


def _grid(counted: np.ndarray, extra=None):
    """Critical grid and grid ranks from one np.unique per axis.

    Axis s holds the distinct counted coordinates, 1.0 and `extra[s]` (the
    mass side's coordinates, if any).  Returns the axes and, per axis, the
    index on the axis of every counted coordinate and of every extra
    coordinate.  Each of them sits on its axis, so that index is its closed
    rank (the first corner whose closed box holds it) and the index plus one
    is its strict rank."""
    n = counted.shape[0]
    axes, ranks, extra_ranks = [], [], []
    for s in range(counted.shape[1]):
        tail = np.zeros(0) if extra is None else np.asarray(extra[s], dtype=float)
        ax, inv = np.unique(np.concatenate([counted[:, s], [1.0], tail]), return_inverse=True)
        axes.append(ax)
        ranks.append(inv[:n])
        extra_ranks.append(inv[n + 1:])
    return axes, ranks, extra_ranks


def _cumulative_counts(ranks, shape, strict: bool) -> np.ndarray:
    """Counts of points inside [0, corner] (or [0, corner) when strict) for
    every corner of the grid: a bincount at each point's first corner, then a
    cumsum along every axis."""
    first = ranks
    if strict:
        first = [r + 1 for r in ranks]
        ok = np.logical_and.reduce([f < size for f, size in zip(first, shape)])
        first = [f[ok] for f in first]
    flat = np.ravel_multi_index(first, shape)
    counts = np.bincount(flat, minlength=math.prod(shape)).reshape(shape)
    for axis in range(len(shape)):
        np.cumsum(counts, axis=axis, out=counts)
    return counts


def _contains(sub_ranks, full_ranks, shape) -> bool:
    """Whether every subset row occurs among the full rows at least as often
    (multisets), from the grid ranks of both on the same axes.  Rows are keyed
    axis by axis by their index among the subset's distinct prefixes, so only
    the subset is sorted; a full row whose prefix the subset lacks gets -1."""
    sub_key = np.zeros(len(sub_ranks[0]), dtype=np.int64)
    full_key = np.zeros(len(full_ranks[0]), dtype=np.int64)
    for rs, rf, size in zip(sub_ranks, full_ranks, shape):
        prefixes, sub_key = np.unique(sub_key * size + rs, return_inverse=True)
        full_key = full_key * size + rf
        pos = np.minimum(np.searchsorted(prefixes, full_key), len(prefixes) - 1)
        full_key = np.where(prefixes[pos] == full_key, pos, -1)
    need = np.bincount(sub_key)
    have = np.bincount(full_key[full_key >= 0], minlength=len(need))
    return bool(np.all(need <= have))


def _scan_grid(
    points, normalizer, mass_provider, budget, points_filter=None, extra_axes=None, contained=False
):
    """Core scan: max over grid corners and variants of
    |count/normalizer - mass|, plus the witnessing corner.

    The critical grid is built from the counted points (after
    `points_filter`, if any) plus any `extra_axes` (per-axis coordinates of
    the mass side, required for exactness against purely atomic set
    functions).  `mass_provider(axes, closed, extra_ranks)` returns the mass
    grid; `extra_ranks` are the grid ranks of `extra_axes`.  With `contained`,
    `extra_axes` holds the columns of a point multiset that must contain the
    counted points; a ValueError says it does not, before the budget check.

    The mass grid must be a fresh, writable array that nothing else holds:
    the scan forms |mass - count/normalizer| in it, one block of rows at a
    time, so no more than the mass grid and the count grid are alive at
    once.  |mass - c| is bitwise equal to |c - mass|.
    """
    counted = points if points_filter is None else points[points_filter]
    axes, ranks, extra_ranks = _grid(counted, extra_axes)
    shape = tuple(len(a) for a in axes)
    if contained and not _contains(ranks, extra_ranks, shape):
        raise ValueError("subset is not contained in full (as multisets)")
    d = points.shape[1]
    cells = math.prod(shape)
    if cells * d > _resolve_budget(budget):
        raise BudgetExceededError(
            f"critical grid needs {cells * d} steps > budget; "
            "use estimate_star_discrepancy or raise the budget"
        )

    best_val = -1.0
    best_corner = None
    best_closed = True
    rows = max(1, _BLOCK_CELLS * shape[0] // cells)
    for closed in (True, False):
        # in place, and freed before the other variant: dense grids are large
        vals = mass_provider(axes, closed, extra_ranks)
        counts = _cumulative_counts(ranks, shape, strict=not closed)
        for lo in range(0, shape[0], rows):
            vals[lo:lo + rows] -= counts[lo:lo + rows] / float(normalizer)
        del counts
        np.abs(vals, out=vals)
        flat = int(np.argmax(vals))
        v = float(vals.ravel()[flat])
        del vals
        if v > best_val:
            best_val = v
            idx = np.unravel_index(flat, shape)
            best_corner = np.array([axes[s][idx[s]] for s in range(d)])
            best_closed = closed
    return best_val, AnchoredBox(best_corner, closed=best_closed), 2 * cells


def local_star_discrepancy(ps: PointSet, mu: BoxMeasure, box: AnchoredBox) -> float:
    """|count/N - mu(box)| for a single anchored box (the quantity whose
    supremum the scans compute)."""
    if ps.dim != mu.dim or box.dim != mu.dim:
        raise DimensionMismatchError("point set, measure and box dimensions must agree")
    if box.closed:
        cnt = int(np.sum(np.all(ps.points <= box.corner, axis=1)))
    else:
        cnt = int(np.sum(np.all(ps.points < box.corner, axis=1)))
    return abs(cnt / ps.n - mu.mass(box))


def exact_star_discrepancy(ps: PointSet, mu: BoxMeasure, budget: int | None = None) -> DiscrepancyReport:
    """Exact sup over anchored boxes of |empirical - mu| via the critical-grid
    scan; raises BudgetExceededError when the grid is too large.

    For measures with atoms the grid also carries the atom coordinates, since
    the sup can sit at corners mixing point and atom positions."""
    if ps.dim != mu.dim:
        raise DimensionMismatchError(
            f"point set dimension {ps.dim} != measure dimension {mu.dim}"
        )
    val, witness, scanned = _scan_grid(
        ps.points,
        ps.n,
        lambda axes, closed, _: mu.mass_on_grid(axes, closed),
        budget,
        extra_axes=mu.jump_coordinates(),
    )
    return DiscrepancyReport(val, witness, "exact", scanned)


def estimate_star_discrepancy(
    ps: PointSet, mu: BoxMeasure, trials: int, seed: int, batch: int = 256
) -> DiscrepancyReport:
    """Randomized lower bound: max local discrepancy over `trials` corners,
    mixing uniform corners with corners snapped to point coordinates.

    When the full critical grid fits in the trial budget it is enumerated
    instead, so the estimate coincides with the exact value.  The estimate
    never exceeds the exact discrepancy, and with nested trial counts (same
    seed) it is monotone nondecreasing.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if ps.dim != mu.dim:
        raise DimensionMismatchError("dimension mismatch")
    axes, _, _ = _grid(ps.points, mu.jump_coordinates())
    cells = math.prod(len(a) for a in axes)
    if cells <= trials:
        exact = exact_star_discrepancy(ps, mu)
        return DiscrepancyReport(exact.value, exact.witness, "estimate", exact.boxes_scanned)

    rng = np.random.default_rng(seed)
    d = ps.dim
    best_val = -1.0
    best_corner, best_closed = np.ones(d), True
    done = 0
    while done < trials:
        t = min(batch, trials - done)
        corners = rng.random((t, d))
        snap = rng.random(t) < 0.5
        for s in range(d):
            pick = axes[s][rng.integers(0, len(axes[s]), size=t)]
            corners[:, s] = np.where(snap, pick, corners[:, s])
        for closed in (True, False):
            if closed:
                cnt = np.sum(np.all(ps.points[None, :, :] <= corners[:, None, :], axis=2), axis=1)
            else:
                cnt = np.sum(np.all(ps.points[None, :, :] < corners[:, None, :], axis=2), axis=1)
            masses = np.array(
                [mu.mass(AnchoredBox(c, closed=closed)) for c in corners]
            )
            vals = np.abs(cnt / ps.n - masses)
            j = int(np.argmax(vals))
            if vals[j] > best_val:
                best_val = float(vals[j])
                best_corner, best_closed = corners[j].copy(), closed
        done += t
    return DiscrepancyReport(best_val, AnchoredBox(best_corner, closed=best_closed), "estimate", 2 * trials)


def discrete_discrepancy(subset: PointSet, full: PointSet, budget: int | None = None) -> float:
    """max over anchored boxes of |#(subset in A) - (N/K) #(full in A)| on the
    unnormalized count scale; subset must be a sub-multiset of full.

    The critical grid is the union of both sets' coordinates: both counting
    functions are piecewise constant on it, so closed evaluations over the
    union grid realize the sup exactly."""
    if subset.dim != full.dim:
        raise DimensionMismatchError("subset and full point sets must share a dimension")
    ratio = subset.n / full.n

    def mass_provider(axes, closed, full_ranks):
        shape = tuple(len(a) for a in axes)
        return ratio * _cumulative_counts(full_ranks, shape, strict=not closed)

    val, _, _ = _scan_grid(
        subset.points, 1.0, mass_provider, budget, extra_axes=full.points.T, contained=True
    )
    return val
