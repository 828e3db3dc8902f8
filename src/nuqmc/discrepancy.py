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

Two in-place sorts per axis give the grid, the ranks and the orders
(`_grid`), so no point is searched for: one of 8-byte keys that pack each
coordinate's fixed-point fraction above the point's index gives the stable
order whatever numpy's sort kind, and one of the column gives the axis.
Coordinates must lie in [0, 1].  Ranks are listed in axis-0 sorted order,
which the points keep from the sort to the last scan: axis 0's ranks are the
sorted run indices, and every other axis costs one scatter and one gather.  A
construction sorts its K-point cloud once: the orders give the rank-slab
decomposition its slabs and representatives, the ranks serve both scans,
and the selected points' ranks are the cloud's at their axis-0 positions.
Coordinates of the mass side (atoms) are merged into the axes by one small
np.unique of axis and atoms.

The scan streams the grid in blocks of whole rows of axis 0, about
`_BLOCK_CELLS` cells each (one row when a row is larger), so no grid-sized
array is allocated.  In axis-0 order, the points that start counting in a
block are one stretch: one bincount of it, cumulative sums along the other
axes, and a cumulative sum along axis 0 carried over from the block before
give the block's closed counts; the mass side is evaluated on the same
rows.  A strict count is the closed count one corner lower on every axis:
the exact scan and the bracket subtract the block's quotient count/N
shifted that way (`_subtract_lower`), so no strict block is built.  A
scan of K points costs O(K log K + grid cells * d) rather than
O(grid cells * K * d).
The scan refuses to run when grid_cells * d exceeds a configurable step
budget (default 1e8, overridable via the NUQMC_BUDGET environment variable).
The budget is checked on the grid's size once the atoms are merged in,
before any block is counted; without atoms, a refused scan on a shared sort
sorts nothing.  Past the budget, `bracket_star_discrepancy` bounds the
discrepancy from both sides on G of every axis's corners, as many as fit.

The discrete discrepancy of a selection against the set it was drawn from
(`discrete_discrepancy`) takes the selection as distinct row indices of
that set, so its ranks are the set's, read off one mark of the rows; both
are counted on the selection's own grid: at most 2N+1 slots per axis,
whatever the size of the full set.  It reads closed counts only.  At d=1
the full set's points in one slot are one stretch of axis-0 positions, so
its counts are the cumulated stretch lengths, with no K-long index built.

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
    "bracket_star_discrepancy",
    "discrete_discrepancy",
    "local_star_discrepancy",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 10**8
_BLOCK_CELLS = 1 << 16  # grid cells per row block of the streamed scans


class BudgetExceededError(RuntimeError):
    """A scan's grid would exceed the step budget; past the exact scan's,
    bracket_star_discrepancy fits a coarser grid to it."""


def _resolve_budget(budget):
    if budget is not None:
        return int(budget)
    return int(os.environ.get("NUQMC_BUDGET", DEFAULT_BUDGET))


@dataclass(frozen=True)
class DiscrepancyReport:
    value: float  # the discrepancy, or the bracket's lower end, at `witness`
    witness: AnchoredBox
    mode: str  # "exact" | "bracket"
    boxes_scanned: int
    upper: float  # the bracket's upper end; `value` when exact
    grid: tuple | None = None  # the bracket's corners per axis

    def to_dict(self):
        return {
            "value": self.value,
            "upper": self.upper,
            "witness_corner": self.witness.corner.tolist(),
            "witness_closed": self.witness.closed,
            "mode": self.mode,
            "boxes_scanned": self.boxes_scanned,
            "grid": self.grid,
        }


def _grid(points: np.ndarray):
    """Critical grid axes, every point's rank on them and the per-axis
    orders, from two sorts per axis; returns (axes, ranks, orders).

    The coordinates must lie in [0, 1] (a PointSet's do); -0.0 counts as 0.
    `orders[s]` is the argsort of column s with kind="stable", read off one
    in-place sort of unique 8-byte keys: the coordinate as a fixed-point
    fraction x * 2**(63-b) in the high bits and the point's index in the
    low b = bit_length(K-1).  The power-of-two scale is exact and keeps 1.0
    within 64 bits.  Distinct coordinates whose fractions tie (closer than
    2**-(63-b)) come out in index order; each run of such keys is sorted
    again by (value, index).  That repair is exact, but slow when most of
    the cloud falls into such runs: 300k points spaced 2**-50 apart take
    0.10 s, nine times an argsort with its ties put in index order (one
    core of an x86-64 host with AVX-512).  Axis s holds the distinct
    coordinates of column s, read off a second sort of the column itself,
    then 1.0; a zero on it has the sign of the lowest-index zero.  A
    point's index on the axis is its closed rank (the first corner whose
    closed box holds it) and the index plus one its strict rank.  Ranks are
    listed in axis-0 order (`ranks[s][i]` is point `orders[0][i]`'s), so
    axis 0's are the sorted run indices."""
    k = points.shape[0]
    b = max(k - 1, 0).bit_length()
    low = np.uint64((1 << b) - 1)  # the index bits of a key
    axes, ranks, orders = [], [], []
    for s in range(points.shape[1]):
        col = points[:, s]
        key = np.empty(k, dtype=np.uint64)
        np.multiply(col, 2.0 ** (63 - b), out=key, casting="unsafe")  # truncated to an integer
        key <<= np.uint64(b)
        key |= np.arange(k, dtype=np.uint64)
        key.sort()
        # the sorted column, then 1.0: the axis itself when its values are
        # distinct and below 1.0
        values = np.empty(k + 1)
        values[:k] = col
        values[:k].sort()
        values[k] = 1.0
        keep = np.ones(k + 1, dtype=bool)  # where a new value starts
        np.not_equal(values[1:], values[:-1], out=keep[1:])
        # fraction and value order place each fraction's points at the same
        # positions, so a tie of fractions between distinct values shows
        # as neighbours with equal high bits where the sorted values differ
        same = np.bitwise_xor(key[1:], key[:-1]) <= low
        clash = same & keep[1:k]
        key &= low
        order = key.view(np.intp)
        if clash.any():
            pairs = np.flatnonzero(same)  # positions p and p + 1 share a fraction
            starts = np.flatnonzero(np.diff(pairs, prepend=-2) != 1)  # each run's first pair
            hit = np.logical_or.reduceat(clash[pairs], starts)
            pairs = pairs[np.repeat(hit, np.diff(starts, append=pairs.size))]
            mark = np.zeros(k, dtype=bool)
            mark[pairs] = mark[pairs + 1] = True
            pos = np.flatnonzero(mark)
            idx = order[pos]
            order[pos] = idx[np.lexsort((idx, col[idx]))]
        del same, clash  # freed before the ranks are allocated: a lower peak
        if k:
            values[0] = col[order[0]]  # the lowest-index zero's sign
        if keep.all():  # distinct values below 1.0: every point its own run
            run = np.arange(k, dtype=np.intp)
            ax = values
        else:
            run = keep[:k].astype(np.intp)
            np.cumsum(run, out=run)
            run -= 1
            ax = values[keep]
        if s:
            scattered = np.empty_like(run)
            scattered[order] = run
            np.take(scattered, orders[0], out=run, mode="clip")
        axes.append(ax)
        ranks.append(run)
        orders.append(order)
    return axes, ranks, orders


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


def _flat_ranks(ranks, shape):
    """C-order flat index of every point's first corner (its rank on every
    axis), from ranks listed in axis-0 order, so it rises with the row."""
    if len(shape) == 1:
        return ranks[0]
    flat = np.ravel_multi_index(ranks[1:], shape[1:])
    flat += ranks[0] * math.prod(shape[1:])
    return flat


def _count_blocks(flat, shape, rows):
    """Counts of the points inside [0, corner] for every corner of the grid,
    yielded in blocks of `rows` rows of axis 0.

    `flat` holds every point's first corner as a C-order flat index, in
    axis-0 row order (`_flat_ranks`).  The points whose first corner lies in
    a block are then one stretch: a block costs one bincount of that stretch
    and a cumsum along every other axis, and its running sum along axis 0
    starts from the last cumulative row of the block before.  A strict count
    (points inside [0, corner)) is the closed count one corner lower on
    every axis, zero where there is none; a caller that needs strict counts
    shifts the closed block, with the row before it on top, itself
    (`_subtract_lower`).  The last row of a yielded block carries into the
    next, so a caller must not write to the block."""
    d = len(shape)
    stride = math.prod(shape[1:])
    # flat rises with the row, so a search at a row start splits it exactly
    carry = np.zeros(shape[1:], dtype=np.intp)
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
        carry = block[-1]
        yield block


def _subtract_lower(out, block, carry):
    """Subtract from `out`, in place, `block` one corner lower on every axis;
    `carry` is the row before the block (zeros before the first row), and a
    corner with none below keeps its value.  Returns `out`."""
    up = (slice(1, None),) * (block.ndim - 1)
    down = (slice(None, -1),) * (block.ndim - 1)
    out[(slice(1, None), *up)] -= block[(slice(None, -1), *down)]
    out[(0, *up)] -= carry[down]
    return out


def _check_budget(shape, budget):
    cells = math.prod(shape)
    budget = _resolve_budget(budget)
    if cells * len(shape) > budget:
        raise BudgetExceededError(
            f"scan grid needs {cells * len(shape)} steps > budget {budget}; "
            "bracket_star_discrepancy fits a coarser grid, or raise the budget"
        )
    return cells


def _scan_grid(axes, ranks, normalizer, mass_provider, budget, extra_axes=None):
    """Core scan: max over grid corners and variants of
    |mass - count/normalizer|, plus the witnessing corner; returns
    (value, witness, 2 * grid cells).

    `axes` and `ranks` are the critical grid of the counted points and their
    ranks on it, listed in axis-0 order, as `_grid` gives them.  `extra_axes`
    (per-axis coordinates of the mass side, required for exactness against
    purely atomic set functions) are merged into the grid first; the merge
    keeps the order of the ranks.  The budget is checked on the merged
    grid's size, before any block is counted.

    The grid is streamed in blocks of about `_BLOCK_CELLS` cells, whole rows
    of axis 0 each (`_count_blocks`), so nothing grid-sized is allocated.
    Each block's closed counts are divided once, q = count/normalizer; the
    open variant's strict count/normalizer is q shifted one corner lower on
    every axis, with the row before the block on top, which is the same
    float as the strict count divided, so no strict block is built.
    `mass_provider(block_axes, closed)` is called once per block and variant,
    closed first, with `axes[0]` cut to the block's rows; it returns the
    masses of that block as a fresh, writable array, which the scan
    overwrites with |mass - q| (bitwise |q - mass|).  Without `extra_axes`
    the measure has no atoms, so the open box has the closed box's mass,
    and the closed call serves both variants.
    The maximum is kept with a strict > in C order, closed variant first,
    so value and witness are those of an argmax over the whole grid.
    """
    axes, ranks = _merge_axes(axes, ranks, extra_axes)
    shape = tuple(len(a) for a in axes)
    d = len(axes)
    cells = _check_budget(shape, budget)

    block_rows = max(1, _BLOCK_CELLS * shape[0] // cells)
    stride = cells // shape[0]
    counts = _count_blocks(_flat_ranks(ranks, shape), shape, block_rows)
    q_carry = np.zeros(shape[1:])  # the quotients of the row before the block
    best = {}  # closed -> (value, flat index of the corner)
    for lo, c in zip(range(0, shape[0], block_rows), counts):
        block_axes = [axes[0][lo:lo + block_rows], *axes[1:]]
        q = c / float(normalizer)
        for closed in (True, False):
            if closed:
                mass = mass_provider(block_axes, True)
                # without atoms the open variant reuses the closed mass, so
                # this variant gets a new array
                vals = mass - q if extra_axes is None else np.subtract(mass, q, out=mass)
            else:
                vals = mass if extra_axes is None else mass_provider(block_axes, False)
                # strict count/normalizer is q one corner lower on every
                # axis, the carried row on top, and 0 where there is none
                _subtract_lower(vals, q, q_carry)
            np.abs(vals, out=vals)
            j = int(np.argmax(vals))
            v = float(vals.ravel()[j])
            if closed not in best or v > best[closed][0]:
                best[closed] = (v, lo * stride + j)
        q_carry = q[-1]

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
    is `_grid(ps.points)` when the caller already has it."""
    if ps.dim != mu.dim:
        raise DimensionMismatchError(
            f"point set dimension {ps.dim} != measure dimension {mu.dim}"
        )
    axes, ranks, _ = _grid(ps.points) if _sorted is None else _sorted
    val, witness, scanned = _scan_grid(
        axes, ranks, ps.n, mu.mass_on_grid, budget, extra_axes=mu.jump_coordinates()
    )
    return DiscrepancyReport(val, witness, "exact", scanned, val)


def bracket_star_discrepancy(
    ps: PointSet, mu: BoxMeasure, g: int | None = None, budget: int | None = None, *, _sorted=None
) -> DiscrepancyReport:
    """Deterministic bracket lower <= D*(ps; mu) <= upper on a coarse grid
    (Thiemard, J. Complexity 17, 2001; Gnewuch, J. Complexity 24, 2008).

    Every axis keeps G evenly spaced corners of its critical grid, ending in
    1.0, with G the largest value that fits the budget, at most `g` and the
    axis's length; a `g` below 1 is refused before anything is sorted.  A box, closed or open, with c_{j-1} < corner <= c_j on
    every axis lies between the closed boxes at c_{j-1} (empty where j is 0)
    and c_j, so for any measure its count and mass lie between theirs,
    C- <= C+ and M- <= M+.  `upper` is the largest max(C+/K - M-, M+ - C-/K)
    and `value` the largest |C+/K - M+|, at the closed box `witness`.  C+ is
    `_count_blocks`' closed block on the points' coarse corners, and C- and
    M- are C+ and M+ one corner lower (`_subtract_lower`): mu is never
    evaluated at coordinate 0, where an atom would count.  The budget is
    checked before anything is counted.  `_sorted` starts with
    `_grid(ps.points)`'s axes and ranks."""
    if g is not None and g < 1:
        raise ValueError(f"g must be >= 1, got {g}")
    if ps.dim != mu.dim:
        raise DimensionMismatchError(f"point set dimension {ps.dim} != measure dimension {mu.dim}")
    axes, ranks = (_grid(ps.points) if _sorted is None else _sorted)[:2]
    d, budget = ps.dim, _resolve_budget(budget)
    side = max(1, int((max(budget, 0) / d) ** (1 / d)))
    side += (side + 1) ** d * d <= budget  # the float root may be one low
    side -= side > 1 and side**d * d > budget  # or one high
    shape = tuple(min(side, g or side, ax.size) for ax in axes)
    cells = _check_budget(shape, budget)

    picks = [(np.arange(1, size + 1) * ax.size) // size - 1 for ax, size in zip(axes, shape)]
    corners = [ax[pick] for ax, pick in zip(axes, picks)]
    # a point's coarse corner: corner i takes the ranks above corner i-1 up to its own
    coarse = (np.repeat(np.arange(p.size), np.diff(p, prepend=-1))[r] for p, r in zip(picks, ranks))
    flat = _flat_ranks(list(coarse), shape)

    block_rows = max(1, _BLOCK_CELLS * shape[0] // cells)
    upper, lower, at = 0.0, -1.0, 0
    carry = np.zeros(shape[1:])  # M+ of the row before the block
    c_carry = np.zeros(shape[1:])  # C+/K of the row before the block
    blocks = _count_blocks(flat, shape, block_rows)
    for lo, c_hi in zip(range(0, shape[0], block_rows), blocks):
        m_hi = mu.mass_on_grid([corners[0][lo:lo + block_rows], *corners[1:]], True)
        c_hi = c_hi / float(ps.n)
        # C+/K - M- and M+ - C-/K
        over = _subtract_lower(c_hi.copy(), m_hi, carry)
        under = _subtract_lower(m_hi.copy(), c_hi, c_carry)
        carry, c_carry = m_hi[-1], c_hi[-1]
        upper = max(upper, float(over.max()), float(under.max()))
        dev = np.abs(c_hi - m_hi).ravel()
        j = int(np.argmax(dev))
        if dev[j] > lower:
            lower, at = float(dev[j]), lo * (cells // shape[0]) + j
    witness = np.array([c[i] for c, i in zip(corners, np.unravel_index(at, shape))])
    return DiscrepancyReport(lower, AnchoredBox(witness, closed=True), "bracket", cells, upper, shape)


def discrete_discrepancy(full: PointSet, rows, budget: int | None = None, *, _sorted=None) -> float:
    """max over anchored boxes of |#(Q in A) - (N/K) #(full in A)| on the
    unnormalized count scale, for Q the rows `rows` of full: N distinct
    integer indices in [0, K).

    The sup is attained on Q's own coordinates.  A box can lower each
    coordinate to Q's largest one at or below it, which keeps Q's count and
    does not raise full's; or raise it to just below Q's next one (to 1.0,
    closed, past the last), which keeps Q's count and does not lower full's.
    So each axis gets one slot per distinct coordinate of Q and one per gap
    around them, at most (2N+1)^d cells whatever K is; full is binned onto
    the slots, both sets are counted on them (`_count_blocks`; at d=1 full's
    counts are the cumulated stretch lengths between Q's ranks), and every
    corner is a box.

    The rows are checked (a ValueError) before anything is sorted or
    counted, and the budget on Q's grid.  Q's ranks are full's, picked by a
    K-long mark of the rows read in axis-0 order.  `_sorted` is
    `_grid(full.points)[1:]`, the ranks and orders, when the caller already
    has it."""
    rows = np.asarray(rows)
    if rows.ndim != 1 or rows.size == 0 or not np.issubdtype(rows.dtype, np.integer):
        raise ValueError("rows must be a non-empty vector of integer row indices")
    if rows.min() < 0 or rows.max() >= full.n:
        raise ValueError(f"rows must lie in [0, {full.n})")
    chosen = np.zeros(full.n, dtype=bool)
    chosen[rows] = True
    if np.count_nonzero(chosen) != rows.size:
        raise ValueError("rows may not repeat an index")
    full_ranks, orders = _grid(full.points)[1:] if _sorted is None else _sorted
    chosen = chosen[orders[0]]
    sub_ranks = [r[chosen] for r in full_ranks]
    del chosen  # the counts below need the K-long arrays of full only

    # slot 2j + 1 of an axis holds Q's j-th distinct rank, slot 2j the gap
    # below it, and slot 2m the gap above the last
    distinct, sub_slots = zip(*(np.unique(r, return_inverse=True) for r in sub_ranks))
    shape = tuple(2 * q.size + 1 for q in distinct)
    cells = _check_budget(shape, budget)
    # in axis-0 order, the points of full in one axis-0 slot are one
    # stretch, cut where Q's ranks start and end
    cuts = np.searchsorted(full_ranks[0], np.stack([distinct[0], distinct[0] + 1], 1))
    lengths = np.diff(cuts.ravel(), prepend=0, append=full.n)
    block_rows = max(1, _BLOCK_CELLS * shape[0] // cells)
    if len(shape) == 1:
        # the stretch lengths are full's histogram on the slots
        closed = np.cumsum(lengths)
        blocks = (closed[lo:lo + block_rows] for lo in range(0, shape[0], block_rows))
    else:
        flat = np.repeat(np.arange(shape[0]) * (cells // shape[0]), lengths)
        for s in range(1, len(shape)):
            mark = np.zeros(full.n, dtype=np.intp)  # full has at most K distinct values
            mark[distinct[s]] = 1
            slot = 2 * np.cumsum(mark) - mark  # the slot of every rank on axis s
            flat += slot[full_ranks[s]] * math.prod(shape[s + 1:])
        blocks = _count_blocks(flat, shape, block_rows)
    sub_flat = np.ravel_multi_index([2 * i + 1 for i in sub_slots], shape)
    sub_flat.sort()

    ratio = rows.size / full.n
    best = 0.0
    for c, c_sub in zip(blocks, _count_blocks(sub_flat, shape, block_rows)):
        vals = ratio * c
        vals -= c_sub
        best = max(best, float(np.abs(vals, out=vals).max()))
    return best
