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

One sort per axis gives both the grid and the ranks: `_stable_orders` argsorts
each coordinate of the counted points once, and `_grid` reads the axis and the
index on it of every point off that order, so no point is searched for.  A
construction sorts its K-point cloud once: the orders give the rank-slab
decomposition its slabs and both scans their ranks, and the selected points'
ranks are the cloud's ranks at their rows.  Coordinates of the mass side
(atoms) are merged into the axes by one small np.unique of axis and atoms.

The scan streams the grid in blocks of whole rows of axis 0, about
`_BLOCK_CELLS` cells each (one row when a row is larger), so no grid-sized
array is allocated.  Taken in axis-0 rank order, the points that start
counting in a block are one stretch: one bincount of it, cumulative sums along the other axes, and a
cumulative sum along axis 0 carried over from the block before give the
block's counts; the mass side is evaluated on the same rows.  A scan of K
points costs O(K log K + grid cells * d) rather than O(grid cells * K * d).
The scan refuses to run when grid_cells * d exceeds a configurable step
budget (default 1e8, overridable via the NUQMC_BUDGET environment variable).
The budget is checked on the grid's size once the atoms are merged in,
before any block is counted; without atoms, a refused scan on a shared sort
sorts nothing.

The discrete discrepancy of a subset against the set it was drawn from
(`discrete_discrepancy`) counts both on the subset's own grid instead: at
most 2N+1 slots per axis, whatever the size of the full set.

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
_BLOCK_CELLS = 1 << 16  # grid cells per row block of the streamed scans


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


def _run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """Flags of the positions where a sorted column takes a new value."""
    new = np.ones(sorted_values.size, dtype=bool)
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=new[1:])
    return new


def _stable_orders(points: np.ndarray):
    """Per-axis argsort of the columns of a point cloud, equal to
    kind="stable": the default argsort, then index order restored inside
    every run of equal values.  On 2**20 floats the default argsort is about
    five times faster than the stable one."""
    n = points.shape[0]
    orders = []
    for s in range(points.shape[1]):
        order = np.argsort(points[:, s])
        new = _run_starts(points[order, s])
        tied = ~new
        tied[:-1] |= tied[1:]
        pos = np.flatnonzero(tied)
        if pos.size:
            # sort the tied points by (run, index); exact while K**2 < 2**63
            run = (np.cumsum(new) - 1)[pos]
            key = run * n + order[pos]
            key.sort()
            order[pos] = key - run * n
        orders.append(order)
    return orders


def _grid(points: np.ndarray, orders=None):
    """Critical grid axes and the grid rank of every point, read off the
    per-axis orders (`_stable_orders(points)` unless given).

    Axis s holds the distinct coordinates of column s, then 1.0; a point's
    index on it is its closed rank (the first corner whose closed box holds
    it) and the index plus one its strict rank."""
    if orders is None:
        orders = _stable_orders(points)
    axes, ranks = [], []
    for s, order in enumerate(orders):
        sorted_values = points[order, s]
        new = _run_starts(sorted_values)
        rank = np.empty(order.size, dtype=np.intp)
        rank[order] = np.cumsum(new) - 1
        ax = sorted_values[new]
        if not ax.size or ax[-1] < 1.0:
            ax = np.append(ax, 1.0)
        axes.append(ax)
        ranks.append(rank)
    return axes, ranks


def _merge_axes(axes, ranks, extra=None):
    """Add the mass side's coordinates `extra[s]` to axis s.  One np.unique
    of the axis and its extras gives the merged axis, and one gather moves
    every rank from the old axis to it."""
    if extra is None:
        return axes, ranks
    merged_axes, merged_ranks = [], []
    for ax, rank, tail in zip(axes, ranks, extra):
        merged, inv = np.unique(
            np.concatenate([ax, np.asarray(tail, dtype=float)]), return_inverse=True
        )
        merged_axes.append(merged)
        merged_ranks.append(inv[: ax.size][rank])
    return merged_axes, merged_ranks


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


def _flat_ranks(ranks, order, shape):
    """C-order flat index of every point's first corner (its rank on every
    axis), listed by axis-0 rank: in `order` when given, else sorted."""
    stride = math.prod(shape[1:])
    flat = (ranks[0] if order is None else ranks[0][order]) * stride
    if len(shape) > 1:
        rest = [r if order is None else r[order] for r in ranks[1:]]
        flat += np.ravel_multi_index(rest, shape[1:])
    if order is None:
        flat.sort()
    return flat


def _count_blocks(flat, shape, rows):
    """Counts of the points inside [0, corner] and inside [0, corner) for
    every corner of the grid, yielded as (closed, strict) pairs of blocks of
    `rows` rows of axis 0.

    `flat` holds every point's first corner as a C-order flat index, in
    axis-0 row order (`_flat_ranks`).  The points whose first corner lies in
    a block are then one stretch: a block costs one bincount of that stretch
    and a cumsum along every other axis, and its running sum along axis 0
    starts from the last cumulative row of the block before.  A strict count
    is the closed count one corner lower on every axis (zero where there is
    none), so the strict block is the closed one, with that carried row on
    top, shifted by one."""
    d = len(shape)
    stride = math.prod(shape[1:])
    # flat rises with the row, so a search at a row start splits it exactly
    carry = np.zeros(shape[1:], dtype=np.intp)
    up = (slice(None),) + (slice(1, None),) * (d - 1)
    down = (slice(None),) + (slice(None, -1),) * (d - 1)
    for lo in range(0, shape[0], rows):
        hi = min(lo + rows, shape[0])
        a, b = np.searchsorted(flat, (lo * stride, hi * stride))
        block = np.bincount(flat[a:b] - lo * stride, minlength=(hi - lo) * stride)
        block = block.reshape((hi - lo,) + shape[1:])
        for axis in range(1, d):
            np.cumsum(block, axis=axis, out=block)
        block[0] += carry
        if stride >= 256:
            # int64 cumsum costs ~3 ns an element, a row add ~0.3 ns plus
            # ~1 us a call: rows win once they hold a few hundred cells
            for i in range(1, hi - lo):
                np.add(block[i], block[i - 1], out=block[i])
        else:
            np.cumsum(block, axis=0, out=block)
        strict = np.zeros_like(block)
        strict[up] = np.concatenate([carry[None], block[:-1]])[down]
        carry = block[-1]
        yield block, strict


def _check_budget(shape, budget):
    cells = math.prod(shape)
    if cells * len(shape) > _resolve_budget(budget):
        raise BudgetExceededError(
            f"critical grid needs {cells * len(shape)} steps > budget; "
            "use estimate_star_discrepancy or raise the budget"
        )
    return cells


def _scan_grid(axes, ranks, normalizer, mass_provider, budget, extra_axes=None, *, order=None):
    """Core scan: max over grid corners and variants of
    |mass - count/normalizer|, plus the witnessing corner; returns
    (value, witness, 2 * grid cells).

    `axes` and `ranks` are the critical grid of the counted points and their
    ranks on it, as `_grid` gives them; `order` lists the points by axis-0
    rank when the caller has it (`_stable_orders(points)[0]`).  `extra_axes`
    (per-axis coordinates of the mass side, required for exactness against
    purely atomic set functions) are merged into the grid first; the merge
    keeps the order of the ranks, so `order` still holds.  The budget is
    checked on the merged grid's size, before any block is counted.

    The grid is streamed in blocks of about `_BLOCK_CELLS` cells, whole rows
    of axis 0 each (`_count_blocks`), so nothing grid-sized is allocated.
    `mass_provider(block_axes, closed)` is called once per block and variant,
    closed first, with `axes[0]` cut to the block's rows; it returns the
    masses of that block as a fresh, writable array, which the scan
    overwrites with |mass - count/normalizer| (bitwise |count/normalizer -
    mass|).  Without `extra_axes` the measure has no atoms, so the open box
    has the closed box's mass, and the closed call serves both variants.
    The maximum is kept with a strict > in C order, closed variant first,
    so value and witness are those of an argmax over the whole grid.
    """
    axes, ranks = _merge_axes(axes, ranks, extra_axes)
    shape = tuple(len(a) for a in axes)
    d = len(axes)
    cells = _check_budget(shape, budget)

    rows = max(1, _BLOCK_CELLS * shape[0] // cells)
    stride = cells // shape[0]
    counts = _count_blocks(_flat_ranks(ranks, order, shape), shape, rows)
    best = {}  # closed -> (value, flat index of the corner)
    for lo in range(0, shape[0], rows):
        block_axes = [axes[0][lo:lo + rows], *axes[1:]]
        for closed, c in zip((True, False), next(counts)):
            if closed or extra_axes is not None:
                mass = mass_provider(block_axes, closed)
            if closed and extra_axes is None:
                # the open variant reuses the closed mass, so this variant
                # gets a new array
                vals = mass - c / float(normalizer)
            else:
                vals = mass
                vals -= c / float(normalizer)
            np.abs(vals, out=vals)
            j = int(np.argmax(vals))
            v = float(vals.ravel()[j])
            if closed not in best or v > best[closed][0]:
                best[closed] = (v, lo * stride + j)

    closed = not best[False][0] > best[True][0]
    v, flat = best[closed]
    idx = np.unravel_index(flat, shape)
    return v, AnchoredBox(np.array([axes[s][idx[s]] for s in range(d)]), closed=closed), 2 * cells


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


def exact_star_discrepancy(
    ps: PointSet, mu: BoxMeasure, budget: int | None = None, *, _sorted=None
) -> DiscrepancyReport:
    """Exact sup over anchored boxes of |empirical - mu| via the critical-grid
    scan; raises BudgetExceededError when the grid is too large.

    For measures with atoms the grid also carries the atom coordinates, since
    the sup can sit at corners mixing point and atom positions.  `_sorted`
    is `(*_grid(ps.points, orders), orders[0])` when the caller already has
    the orders; with None in place of `orders[0]` the scan puts the points
    in axis-0 order itself."""
    if ps.dim != mu.dim:
        raise DimensionMismatchError(
            f"point set dimension {ps.dim} != measure dimension {mu.dim}"
        )
    if _sorted is None:
        orders = _stable_orders(ps.points)
        _sorted = (*_grid(ps.points, orders), orders[0])
    axes, ranks, order = _sorted
    val, witness, scanned = _scan_grid(
        axes, ranks, ps.n, mu.mass_on_grid, budget, extra_axes=mu.jump_coordinates(), order=order
    )
    return DiscrepancyReport(val, witness, "exact", scanned)


def _counts_at(points, corners, closed: bool) -> np.ndarray:
    """Points inside [0, c] ([0, c) when not closed) for every corner c.
    The corners are taken a slice at a time, and the axes one at a time, so
    the (corners, points) comparison holds about `_BLOCK_CELLS` entries or
    one row of points, whichever is larger."""
    below = np.less_equal if closed else np.less
    step = max(1, _BLOCK_CELLS // max(1, len(points)))
    out = np.empty(len(corners), dtype=np.intp)
    for lo in range(0, len(corners), step):
        part = corners[lo:lo + step]
        inside = below(points[None, :, 0], part[:, None, 0])
        for s in range(1, points.shape[1]):
            inside &= below(points[None, :, s], part[:, None, s])
        out[lo:lo + step] = inside.sum(axis=1)
    return out


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
    grid = _grid(ps.points)
    axes = _merge_axes(*grid, mu.jump_coordinates())[0]
    cells = math.prod(len(a) for a in axes)
    if cells <= trials:
        exact = exact_star_discrepancy(ps, mu, _sorted=(*grid, None))
        return DiscrepancyReport(exact.value, exact.witness, "estimate", exact.boxes_scanned)
    del grid  # the corners below read only the axes, not the K ranks per axis

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
            cnt = _counts_at(ps.points, corners, closed)
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


def discrete_discrepancy(
    subset: PointSet,
    full: PointSet,
    budget: int | None = None,
    *,
    _sorted=None,
    _rows=None,
) -> float:
    """max over anchored boxes of |#(subset in A) - (N/K) #(full in A)| on the
    unnormalized count scale; subset must be a sub-multiset of full.

    The sup is attained on the subset's own coordinates.  A box can lower
    each coordinate to the subset's largest one at or below it, which keeps
    the subset's count and does not raise full's; or raise it to just below
    the subset's next one (to 1.0, closed, past the last), which keeps the
    subset's count and does not lower full's.  So each axis gets one slot
    per distinct subset coordinate and one per gap around them, at most
    (2N+1)^d cells whatever K is; full is binned onto the slots, both sets
    are counted on them (`_count_blocks`), and every corner is a box.  The
    budget is checked on this grid.

    `_sorted` is `(*_grid(full.points, orders), orders[0])` and `_rows` the
    rows of full that make up subset; then nothing is sorted.  Without them
    both sets are sorted together, and containment is checked (a ValueError)
    before the budget."""
    if subset.dim != full.dim:
        raise DimensionMismatchError("subset and full point sets must share a dimension")
    if _sorted is None:
        both = np.concatenate([full.points, subset.points])
        orders = _stable_orders(both)
        axes, ranks = _grid(both, orders)
        full_ranks = [r[: full.n] for r in ranks]
        sub_ranks = [r[full.n :] for r in ranks]
        if not _contains(sub_ranks, full_ranks, tuple(len(a) for a in axes)):
            raise ValueError("subset is not contained in full (as multisets)")
        order = orders[0][orders[0] < full.n]
    else:
        axes, full_ranks, order = _sorted
        sub_ranks = [r[_rows] for r in full_ranks]

    # slot 2j + 1 of an axis holds the subset's j-th distinct rank, slot 2j
    # the gap below it, and slot 2m the gap above the last
    distinct, sub_slots = zip(*(np.unique(r, return_inverse=True) for r in sub_ranks))
    shape = tuple(2 * q.size + 1 for q in distinct)
    cells = _check_budget(shape, budget)
    # in axis-0 rank order, the points of full in one axis-0 slot are one
    # stretch, cut where the subset's ranks start and end
    cuts = np.searchsorted(full_ranks[0][order], np.stack([distinct[0], distinct[0] + 1], 1))
    lengths = np.diff(cuts.ravel(), prepend=0, append=full.n)
    flat = np.repeat(np.arange(shape[0]) * (cells // shape[0]), lengths)
    for s in range(1, len(shape)):
        mark = np.zeros(len(axes[s]), dtype=np.intp)
        mark[distinct[s]] = 1
        slot = 2 * np.cumsum(mark) - mark  # the slot of every rank on axis s
        flat += slot[full_ranks[s][order]] * math.prod(shape[s + 1:])
    sub_flat = np.ravel_multi_index([2 * i + 1 for i in sub_slots], shape)
    sub_flat.sort()

    rows = max(1, _BLOCK_CELLS * shape[0] // cells)
    ratio = subset.n / full.n
    best = 0.0
    for (c, _), (c_sub, _) in zip(
        _count_blocks(flat, shape, rows), _count_blocks(sub_flat, shape, rows)
    ):
        vals = ratio * c
        vals -= c_sub
        best = max(best, float(np.abs(vals, out=vals).max()))
    return best
