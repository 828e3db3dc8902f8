"""Star-discrepancy of a point set with respect to a box measure.

The supremum of |count/N - mu([0,a])| over anchored boxes is attained on the
critical grid: per coordinate, the distinct point coordinates plus 1.0.  At
every grid corner two variants are evaluated:

  closed  -- points counted with <=, mass of the closed box;
  open    -- points counted with <,  mass of the open box.

The open variant is the limit of closed boxes [0, a - eps] as eps -> 0, which
captures suprema that are approached but not attained.  The measure is
asked for the open-box mass of that variant, so the mass side honours the
strict limit too, whether or not the measure declares its atoms (otherwise
e.g. the discrepancy of a point set against its own empirical measure would
not be 0); a continuous measure gives the closed-box mass for both.

One in-place sort per axis gives the grid, the ranks and the orders
(`_grid`), so no point is searched for: a sort of 8-byte keys that pack each
coordinate's fixed-point fraction above the point's index gives the stable
order whatever numpy's sort kind.  Equal coordinates are found among the
neighbours that share a fraction, and the axis is read through the order
(`_Axis`): no sorted copy of a column is made, and a scan reads coordinates
only at the corners it visits (a d=1 scan of a construction's cloud, a few
hundredths of them).  Coordinates must lie in [0, 1].  The keys are built
and compared in stretches of `_BLOCK_CELLS` points, so sorting an axis of
distinct values makes one 8-byte K-long array, its keys, which become the
order, and a one-byte mask of the neighbours that share a fraction.  Ranks
are listed in axis-0 sorted order, which the points keep from the sort to
the last scan: axis 0's ranks are the sorted run indices, which for distinct
values are the positions 0..K-1, held as one number (`_Positions`), and
every other axis costs one scatter and one gather.  A point set keeps its sort
(`PointSet.critical_grid`), so a construction sorts its K-point cloud once:
the orders give the rank-slab decomposition its slabs and representatives,
the ranks serve both scans, and the selected points' ranks are the cloud's
at their axis-0 positions.
Coordinates of the mass side (atoms) are merged into the axes by one small
np.unique of axis and atoms.

The scans stream their grids in blocks of whole rows of axis 0, about
`_BLOCK_CELLS` cells each (one row when a row is larger), so no grid-sized
array is allocated.  Every count comes from one routine, `_corner_counts`,
which sizes the blocks and yields each with its first row: the closed
counts at chosen corners of each axis (a band's rows and kept columns, the
tile tops of the coarse pass, the bracket's picks, the selection's slots),
each point binned at the first chosen corner at or above its rank on every
axis.  A discrete measure's masses are its atoms' counts from the same
routine, on the atoms' own sort (`DiscreteMeasure.mass_on_grid`).  At d=1
the counts are one search of the sorted ranks.  Otherwise, in axis-0
order, the points that start counting in a block are one stretch: one
bincount of it, cumulative sums along the other axes, and a cumulative sum
along axis 0 carried over from the block before give the block's closed
counts; the mass side is evaluated on the same rows.  A strict count is
the closed count one corner lower on every axis: the exact scan and the
bracket subtract the block's quotient count/N shifted that way
(`_subtract_lower`), so no strict block is built.

The exact scan counts in two levels (`_scan_grid`).  The grid is cut into
tiles of a few corners per axis, or is one tile when it fits one block; the
counts and masses at the tile tops bound every tile from both sides, with the
bracket's arithmetic (`_bound_blocks`), and only the tiles whose bound
reaches the running maximum are counted corner by corner, in bands of axis
0 at their own columns.  Value, witness and variant are bitwise those of a
scan of every corner.  A scan of K points costs O(K log K + grid cells * d)
at most, rather than O(grid cells * K * d), and on the clouds of a
construction it evaluates the mass side on a few hundredths of the grid.
The scan refuses to run when grid_cells * d exceeds a configurable step
budget (default 1e8, overridable via the NUQMC_BUDGET environment variable).
The budget is checked on the grid's size once the atoms are merged in,
before any block is counted; a refused scan leaves the point set's sort to
the bracket.  Past the budget, `bracket_star_discrepancy` bounds the
discrepancy from both sides on G of every axis's corners, as many as fit.

The discrete discrepancy of a selection against the set it was drawn from
(`discrete_discrepancy`) takes the selection as distinct row indices of
that set, so its ranks are the set's, read at its axis-0 positions; both
are counted on the selection's own grid: at most 2N+1 slots per axis,
whatever the size of the full set.  The slots are the chosen corners of
`_corner_counts` for both sets, and only closed counts are read.

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


class _Axis:
    """One axis of a critical grid, read through its sort: corner j below
    `runs` is `col[order[starts[j]]]`, the coordinate of run j's first point
    in sorted order (`starts` is None when every point is its own run), and
    a last corner 1.0 follows unless the largest coordinate is 1.0.

    An int, a slice or an integer array gathers the corners it names, so a
    scan reads coordinates only at the corners it visits (a step-1 slice of
    runs with no index array); np.asarray gives the whole axis."""

    __slots__ = ("col", "order", "starts", "runs", "size")

    def __init__(self, col, order, starts, top):
        self.col, self.order, self.starts = col, order, starts
        self.runs = col.size if starts is None else starts.size
        self.size = self.runs + top

    def __len__(self):
        return self.size

    def __getitem__(self, j):
        if isinstance(j, slice):
            start, stop, step = j.indices(self.size)
            if step == 1 and stop <= self.runs:
                run = slice(start, stop)
                return self.col[self.order[run] if self.starts is None else self.order[self.starts[run]]]
            j = np.arange(start, stop, step)
        elif np.ndim(j) == 0:
            return self[np.array([j])][0]
        j = np.asarray(j)
        j = np.where(j < 0, j + self.size, j)
        if j.size and not (j.min() >= 0 and j.max() < self.size):
            raise IndexError(f"corner index out of range for an axis of {self.size} corners")
        inner = j < self.runs
        pos = j[inner] if self.starts is None else self.starts[j[inner]]
        out = np.ones(j.shape)
        out[inner] = self.col[self.order[pos]]
        return out

    def __array__(self, dtype=None, copy=None):
        return self[:].astype(dtype or float, copy=False)


class _Positions:
    """The intp ranks 0, 1, ..., size - 1, held as one number: the ranks of
    an axis 0 with no repeated value, listed in axis-0 order (`_grid`), are
    its positions 0..K-1.

    It answers what the scans ask of axis 0's ranks: `searchsorted` of
    integer ranks, an integer gather of positions in [0, size), len, size
    and dtype.  np.asarray gives the whole array, and any other index (a
    slice, a boolean mask, a negative position) reads through it.  Every
    answer is bitwise np.arange's."""

    __slots__ = ("size",)
    dtype = np.dtype(np.intp)

    def __init__(self, size):
        self.size = size

    @property
    def shape(self):
        return (self.size,)

    def __len__(self):
        return self.size

    def searchsorted(self, v, side="left"):
        """The insertion points of integer ranks `v`, as np.searchsorted's:
        the ranks below v (at or below v on the right side), v (+ 1),
        clipped to [0, size]."""
        return np.clip(np.asarray(v, dtype=np.intp) + int(side == "right"), 0, self.size)

    def __getitem__(self, j):
        if isinstance(j, np.ndarray) and j.dtype.kind in "iu":
            if not j.size or 0 <= j.min() <= j.max() < self.size:  # positions of its own range
                return np.positive(j, dtype=np.intp)  # a copy, as a gather of np.arange is
        return np.asarray(self)[j]

    def __array__(self, dtype=None, copy=None):
        return np.arange(self.size, dtype=dtype or np.intp)


def _grid(points: np.ndarray):
    """Critical grid axes, every point's rank on them and the per-axis
    orders, from one sort per axis; returns (axes, ranks, orders).

    The coordinates must lie in [0, 1] (a PointSet's do); -0.0 counts as 0.
    `orders[s]` is the argsort of column s with kind="stable", read off one
    in-place sort of unique 8-byte keys: the coordinate as a fixed-point
    fraction x * 2**(63-b) in the high bits and the point's index in the
    low b = bit_length(K-1).  The power-of-two scale is exact and keeps 1.0
    within 64 bits.  The fraction rises with the value, so only neighbours
    whose keys share their fraction can hold equal values: only those pairs
    are read through the order and compared, or, when they are most of the
    cloud, the whole column in order, which is then dropped.  The keys are
    built, and the neighbours compared, in stretches of `_BLOCK_CELLS`
    points, so the only other K-long array is a one-byte mask of the pairs
    that share a fraction, and the ties are kept at those pairs.  Distinct
    coordinates whose fractions tie (closer than 2**-(63-b)) come out in
    index order; each run of such keys is sorted again by (value, index).
    That repair is exact, but slow when most of the cloud falls into such
    runs: 300k points spaced 2**-50 apart take 0.10 s, nine times an argsort
    with its ties put in index order (one core of an x86-64 host with
    AVX-512).  Axis s (`_Axis`) is read through the order: a run of equal
    coordinates is one corner, the first point of the run gives it (so a
    zero on it has the sign of the lowest-index zero), and 1.0 follows
    unless the largest coordinate is 1.0.  Only an axis with a repeated
    value keeps its runs' start positions.  A point's index on the axis is
    its closed rank (the first corner whose closed box holds it) and the
    index plus one its strict rank.  Ranks are listed in axis-0 order
    (`ranks[s][i]` is point `orders[0][i]`'s), so axis 0's are the sorted
    run indices: with no repeated value, its positions 0..K-1, which a
    `_Positions` gives without an array."""
    k = points.shape[0]
    b = max(k - 1, 0).bit_length()
    low = np.uint64((1 << b) - 1)  # the index bits of a key
    axes, ranks, orders = [], [], []
    for s in range(points.shape[1]):
        col = points[:, s]
        key = np.empty(k, dtype=np.uint64)
        for lo in range(0, k, _BLOCK_CELLS):  # in stretches, so no temporary is K long
            part = key[lo:lo + _BLOCK_CELLS]
            np.multiply(col[lo:lo + part.size], 2.0 ** (63 - b), out=part, casting="unsafe")  # truncated
            part <<= np.uint64(b)
            part |= np.arange(lo, lo + part.size, dtype=np.uint64)
        key.sort()
        same = np.empty(max(k - 1, 0), dtype=bool)  # p and p + 1 share a fraction
        for lo in range(0, k - 1, _BLOCK_CELLS):
            hi = min(lo + _BLOCK_CELLS, k - 1)
            np.less_equal(np.bitwise_xor(key[lo + 1:hi + 1], key[lo:hi]), low, out=same[lo:hi])
        pairs = np.flatnonzero(same)
        del same
        key &= low
        order = key.view(np.intp)
        # tie[i]: pair i's points hold equal values, which only a shared
        # fraction allows; its points are read, or the whole column in order
        # when the pairs are most of it (two gathers a pair against one a point)
        if 4 * pairs.size < k:
            tie = col[order[pairs]] == col[order[pairs + 1]]
        else:
            tie = col[order]
            tie = (tie[1:] == tie[:-1])[pairs]
        if not tie.all():  # a fraction shared by distinct values
            first = np.flatnonzero(np.diff(pairs, prepend=-2) != 1)  # each run's first pair
            hit = np.logical_or.reduceat(~tie, first)
            hit = np.repeat(hit, np.diff(first, append=pairs.size))  # the pairs of a run to repair
            fix = pairs[hit]
            mark = np.zeros(k, dtype=bool)
            mark[fix] = mark[fix + 1] = True
            pos = np.flatnonzero(mark)
            idx = order[pos]
            order[pos] = idx[np.lexsort((idx, col[idx]))]
            tie[hit] = col[order[fix]] == col[order[fix + 1]]
        later = pairs[tie]  # the second point of each pair of equal values
        later += 1
        del pairs, tie  # freed before the ranks are allocated: a lower peak
        if later.size:
            new = np.ones(k, dtype=bool)  # where a new value starts
            new[later] = False
            del later
            starts = np.flatnonzero(new)
            run = new.astype(np.intp)
            np.cumsum(run, out=run)
            run -= 1
        elif s:  # distinct values: every point its own run
            starts, run = None, np.arange(k, dtype=np.intp)
        else:  # axis 0's ranks are its positions
            starts, run = None, _Positions(k)
        axes.append(_Axis(col, order, starts, not (k and col[order[-1]] == 1.0)))
        if s:
            scattered = np.empty_like(run)
            scattered[order] = run
            np.take(scattered, orders[0], out=run, mode="clip")
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
            np.concatenate([np.asarray(ax), np.asarray(tail, dtype=float)]), return_inverse=True
        )
        merged_axes.append(merged)
        merged_ranks.append(inv[: len(ax)][rank])
    return merged_axes, merged_ranks


def _flat_ranks(ranks, shape):
    """C-order flat index of every point's first corner (its rank on every
    axis), from ranks listed in axis-0 order, so it rises with the row.  The
    ranks must lie on the grid: they are not checked.  The index is written
    over `ranks[0]`, an intp array of the caller's own, and returned."""
    flat = ranks[0]
    for r, n in zip(ranks[1:], shape[1:]):
        flat *= n
        flat += r
    return flat


def _count_blocks(flat, shape, rows):
    """Counts of the points inside [0, corner] for every corner of the grid,
    yielded as (first row, block) in blocks of `rows` rows of axis 0.

    `flat` holds every point's first corner as a C-order flat index, in
    axis-0 row order (`_flat_ranks`).  The points whose first corner lies in
    a block are then one stretch: a block costs one bincount of that stretch
    and a cumsum along every other axis, and its running sum along axis 0
    starts from the last cumulative row of the block before.  The last row
    of a yielded block carries into the next, so a caller must not write to
    the block.  Only `_corner_counts` calls it."""
    stride = math.prod(shape[1:])
    carry = np.zeros(shape[1:], dtype=np.intp)
    # flat rises with the row, so a search at a row start splits it exactly
    for lo in range(0, shape[0], rows):
        hi = min(lo + rows, shape[0])
        a, b = np.searchsorted(flat, (lo * stride, hi * stride))
        block = np.bincount(flat[a:b] - lo * stride, minlength=(hi - lo) * stride)
        block = block.reshape((hi - lo,) + shape[1:])
        for axis in range(1, len(shape)):
            np.cumsum(block, axis=axis, out=block)
        block[0] += carry
        np.cumsum(block, axis=0, out=block)
        carry = block[-1]
        yield lo, block


def _corner_counts(ranks, tops):
    """Closed counts of the points at the corners `tops[0] x ... x
    tops[d-1]` of their critical grid, yielded as (first row, block) in
    blocks of whole rows of axis 0, about `_BLOCK_CELLS` cells each (one row
    when a row is larger); nothing when an axis has no corner.

    `ranks` are the points' ranks, listed in axis-0 order (`_grid`), and
    `tops[s]` non-decreasing corner indices of axis s, -1 for a corner below
    every point.  The count at (j_0, ..., j_{d-1}) is the number of points
    whose rank on every axis s is at most tops[s][j_s]: each point is binned
    at the first top at or above its rank on every axis, and dropped when a
    rank lies past an axis's last top.  At d=1 the counts are one search of
    the sorted ranks.  Otherwise axis 0's bins are stretches of the listing,
    cut by one such search; a point's bin on another axis is read off a
    table indexed by rank, or searched when the points are few (fewer than
    512 plus a sixteenth of the table), and the points past a last top are
    looked for only on the axes whose ranks reach past it.  The bins go
    through `_flat_ranks` and `_count_blocks`, whose blocks a caller must
    not write to."""
    shape = tuple(top.size for top in tops)
    if not all(shape):
        return
    rows = max(1, _BLOCK_CELLS // math.prod(shape[1:]))
    if len(shape) == 1:
        for lo in range(0, shape[0], rows):
            yield lo, ranks[0].searchsorted(tops[0][lo:lo + rows], "right")
        return
    cuts = ranks[0].searchsorted(tops[0], "right")
    bins, past = [], []  # past: per axis whose ranks reach past its last top, the points past it
    for r, top in zip(ranks[1:], tops[1:]):
        r = r[:cuts[-1]]
        hi = int(r.max(initial=top[-1]))  # the table's last rank
        if 16 * r.size < hi + 8192:  # a search costs ~16 table entries a point
            b = top.searchsorted(r)
        else:  # bin j holds the ranks above top j-1 up to top j; the last, those past every top
            b = np.take(np.repeat(np.arange(top.size + 1), np.diff(np.concatenate(([-1], top, [hi])))), r)
        if hi > top[-1]:
            past.append(b == top.size)
        bins.append(b)
    # axis 0's bins come last, when no table is held
    bins.insert(0, np.repeat(np.arange(shape[0]), np.diff(np.concatenate(([0], cuts)))))
    if past:
        keep = ~np.logical_or.reduce(past)
        bins = [b[keep] for b in bins]
    flat = _flat_ranks(bins, shape)
    del bins, b, past  # only the flat index stays alive while the blocks are counted
    yield from _count_blocks(flat, shape, rows)


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


def _bound_blocks(axes, tops, ranks, normalizer, mass_provider):
    """Both ends of the deviation on every cell of a coarse grid, in the row
    blocks of `_corner_counts`; yields (first row, bound, dev) per block.

    The coarse grid's corners are `axes[s][tops[s]]`, for increasing corner
    indices `tops[s]` of the fine grid, and the closed counts C+ at them are
    `_corner_counts(ranks, tops)`.  A box, closed or open, whose
    corner lies above coarse corner j-1 and at or below corner j on every
    axis sits between the closed boxes at j-1 (empty where j is 0) and j, so
    for any measure its count and mass lie between theirs, C- <= C+ and
    M- <= M+: the returned `bound` is max(C+/K - M-, M+ - C-/K), where C-
    and M- are C+ and M+ one corner lower (`_subtract_lower`), so mu is
    never evaluated at coordinate 0, where an atom would count.  `dev` is
    |C+/K - M+|, the closed box's own deviation at the cell's top corner;
    the next block may overwrite it.  Masses come from one
    `mass_provider(block_axes, True)` call per block."""
    corners = [ax[top] for ax, top in zip(axes, tops)]
    m_carry = np.zeros(tuple(c.size for c in corners[1:]))  # M+ of the row before the block
    q_carry = m_carry  # C+/K of the row before the block
    for lo, c in _corner_counts(ranks, tops):
        m = mass_provider([corners[0][lo:lo + len(c)], *corners[1:]], True)
        q = c / float(normalizer)
        bound = _subtract_lower(q.copy(), m, m_carry)  # C+/K - M-
        dev = _subtract_lower(m.copy(), q, q_carry)  # M+ - C-/K
        np.maximum(bound, dev, out=bound)
        m_carry, q_carry = m[-1], q[-1]
        np.subtract(q, m, out=dev)
        yield lo, bound, np.abs(dev, out=dev)


def _tile_side(d):
    """Fine corners per axis of a tile of the exact scan: a tile holds about
    a 1024th of a row block's cells, and at least 2 corners per axis (64,
    8 and 4 at d = 1, 2 and 3 for the default block)."""
    return max(2, round((_BLOCK_CELLS >> 10) ** (1 / d)))


class _Scan:
    """The running maximum of an exact scan over bands of its grid.

    `band(r0, r1, keep)` scans rows [r0, r1) of axis 0 at the corners of
    every other axis s that `keep[s-1]` marks, and folds their values into
    the maximum; the masses come from `mass_provider(block_axes, closed)`
    on those rows and columns, plus, per marked corner, the one below it,
    which gives the open variant its strict counts.  Each variant keeps its
    first maximum in global C order, whatever the order of the bands."""

    def __init__(self, axes, ranks, normalizer, mass_provider):
        self.axes, self.ranks = axes, ranks
        self.normalizer, self.mass_provider = float(normalizer), mass_provider
        self.shape = tuple(len(a) for a in axes)
        self.best = {}  # closed -> (value, flat index of the corner)

    def running(self):
        """The largest value found so far in either variant, -1.0 before any."""
        return max((v for v, _ in self.best.values()), default=-1.0)

    def band(self, r0, r1, keep):
        axes, shape = self.axes, self.shape
        # every marked corner and the one below it: the open variant reads a
        # marked corner's strict count in the column before it
        cols = [np.flatnonzero(k | np.append(k[1:], False)) for k in keep]
        # the open values of an added column are not scanned: the column
        # below it is not there
        added = [~k[c] for k, c in zip(keep, cols)]
        others = [ax[c] for ax, c in zip(axes[1:], cols)]
        # the row before the band comes first (top r0 - 1): the open
        # variant's carry, the quotients of the row before a block
        q_carry = None
        for first, count in _corner_counts(self.ranks, [np.arange(r0 - 1, r1), *cols]):
            q, lo = count / self.normalizer, r0 - 1 + first  # lo: the block's first row
            if q_carry is None:
                q_carry, q, lo = q[0], q[1:], r0
                if not len(q):
                    continue
            block_axes = [axes[0][lo:lo + len(q)], *others]
            for closed in (True, False):
                vals = self.mass_provider(block_axes, closed)
                if closed:
                    np.subtract(vals, q, out=vals)
                else:
                    # strict count/normalizer is q one corner lower on every
                    # axis, the carried row on top, and 0 where there is none
                    _subtract_lower(vals, q, q_carry)
                np.abs(vals, out=vals)
                if not closed:
                    for s, drop in enumerate(added, 1):
                        vals[(slice(None),) * s + (drop,)] = -np.inf
                j = int(np.argmax(vals))
                v = float(vals.ravel()[j])
                i = np.unravel_index(j, vals.shape)
                at = int(np.ravel_multi_index((lo + i[0], *(c[x] for c, x in zip(cols, i[1:]))), shape))
                if closed not in self.best or (v, -at) > (self.best[closed][0], -self.best[closed][1]):
                    self.best[closed] = (v, at)
            q_carry = q[-1]

    def result(self):
        """(value, witness) of the whole grid: closed wins a tie."""
        closed = not self.best[False][0] > self.best[True][0]
        v, flat = self.best[closed]
        idx = np.unravel_index(flat, self.shape)
        return v, AnchoredBox(np.array([ax[i] for ax, i in zip(self.axes, idx)]), closed=closed)


def _scan_grid(axes, ranks, normalizer, mass_provider, budget, extra_axes=None):
    """Core scan: max over grid corners and variants of
    |mass - count/normalizer|, plus the witnessing corner; returns
    (value, witness, 2 * grid cells).

    `axes` and `ranks` are the critical grid of the counted points and their
    ranks on it, listed in axis-0 order, as `_grid` gives them.  `extra_axes`
    (per-axis coordinates of the mass side, required for exactness against
    purely atomic set functions) are merged into the grid first; the merge
    keeps the order of the ranks.  The budget is checked on the merged
    grid's size, before any block is counted.  The normalizer must be
    positive.

    The grid is cut into tiles of t corners per axis (`_tile_side`; one
    tile when the grid fits one block of `_BLOCK_CELLS` cells), and scanned
    in two levels:

      coarse  every tile gets the bound of `_bound_blocks` from the closed
              counts and masses at the tops of its own and of the tile one
              lower on every axis, streamed in row blocks; the largest
              closed deviation at a tile top is a real corner's value;
      fine    the tile with the largest bound is counted exactly first,
              then the rows of tiles in ascending order; a row counts only
              the tiles whose bound is at least the running maximum over
              both variants (at d=1, runs of such tiles as one band).

    Counts, quotients and masses grow with the corner and float rounding is
    monotone, so a tile whose bound is below the running maximum holds no
    value that reaches it, in either variant: value, witness and variant
    are those of the full scan, bitwise.

    A band's closed counts are `_corner_counts` at its rows and kept
    columns, with the row before the band in front: that row is the open
    variant's carry, and no mass is asked for it.  Each block is divided once,
    q = count/normalizer; the open variant's strict count/normalizer is q
    shifted one corner lower on every axis, with the row before the block
    on top, which is the same float as the strict count divided, so no
    strict block is built.  `mass_provider(block_axes, closed)` is called
    once per block and variant, closed first, on the block's rows and
    columns, and once per coarse row block, closed; it returns the masses
    as a fresh, writable array, which the scan overwrites with |mass - q|
    (bitwise |q - mass|).  Each variant keeps its first maximum in C
    order, and the closed variant wins a tie, as an argmax over the whole
    grid would.
    """
    axes, ranks = _merge_axes(axes, ranks, extra_axes)
    shape = tuple(len(a) for a in axes)
    d = len(axes)
    cells = _check_budget(shape, budget)
    scan = _Scan(axes, ranks, normalizer, mass_provider)
    t = _tile_side(d) if cells > _BLOCK_CELLS else max(shape)
    tiles = tuple(-(-n // t) for n in shape)
    tops = [np.minimum(np.arange(1, g + 1) * t, n) - 1 for g, n in zip(tiles, shape)]
    bounds = np.empty(tiles)
    lower = 0.0  # a closed value at a real corner
    for lo, bound, dev in _bound_blocks(axes, tops, ranks, normalizer, mass_provider):
        bounds[lo:lo + len(bound)] = bound
        lower = max(lower, float(dev.max()))

    def tile_rows(first, last):
        """Fine rows [r0, r1) of tile rows first..last."""
        return first * t, min(last * t + t, shape[0])

    def keep(hit):
        """The fine corners of every other axis in a hit tile of the row."""
        every = tuple(range(d - 1))
        return [np.repeat(hit.any(axis=every[:s] + every[s + 1:]), t)[:n] for s, n in enumerate(shape[1:])]

    top = np.unravel_index(int(np.argmax(bounds)), tiles)
    hit = np.zeros(tiles[1:], dtype=bool)
    hit[top[1:]] = True
    scan.band(*tile_rows(top[0], top[0]), keep(hit))
    bounds[top] = -np.inf
    if d == 1:
        # runs of consecutive tiles whose bound reaches the running maximum
        hit = np.flatnonzero(bounds >= max(lower, scan.running()))
        for run in np.split(hit, np.flatnonzero(np.diff(hit) > 1) + 1):
            if run.size and bounds[run].max() >= max(lower, scan.running()):
                scan.band(*tile_rows(run[0], run[-1]), [])
    else:
        for i, row in enumerate(bounds):
            reach = max(lower, scan.running())
            if row.max() >= reach:
                scan.band(*tile_rows(i, i), keep(row >= reach))
    return (*scan.result(), 2 * cells)


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
    axes, ranks, _ = ps.critical_grid
    val, witness, scanned = _scan_grid(
        axes, ranks, ps.n, mu.mass_on_grid, budget, extra_axes=mu.jump_coordinates()
    )
    return DiscrepancyReport(val, witness, "exact", scanned, val)


def bracket_star_discrepancy(
    ps: PointSet, mu: BoxMeasure, g: int | None = None, budget: int | None = None
) -> DiscrepancyReport:
    """Deterministic bracket lower <= D*(ps; mu) <= upper on a coarse grid
    (Thiemard, J. Complexity 17, 2001; Gnewuch, J. Complexity 24, 2008).

    Every axis keeps G evenly spaced corners of its critical grid, ending in
    1.0, with G the largest value that fits the budget, at most `g` and the
    axis's length; a `g` below 1, a bool or a non-integer is refused before
    anything is sorted.
    `upper` is the largest bound of `_bound_blocks` over the coarse cells,
    max(C+/K - M-, M+ - C-/K), and `value` the largest |C+/K - M+|, at the
    closed box `witness`.  C+ is `_corner_counts` at the picks.  The
    budget is checked before anything is counted."""
    if g is not None and (isinstance(g, bool) or not isinstance(g, (int, np.integer)) or g < 1):
        raise ValueError(f"g must be >= 1 and an integer, got g={g!r}")
    if ps.dim != mu.dim:
        raise DimensionMismatchError(f"point set dimension {ps.dim} != measure dimension {mu.dim}")
    axes, ranks, _ = ps.critical_grid
    d, budget = ps.dim, _resolve_budget(budget)
    side = max(1, int((max(budget, 0) / d) ** (1 / d)))
    side += (side + 1) ** d * d <= budget  # the float root may be one low
    side -= side > 1 and side**d * d > budget  # or one high
    shape = tuple(min(side, g or side, ax.size) for ax in axes)
    cells = _check_budget(shape, budget)

    picks = [(np.arange(1, size + 1) * ax.size) // size - 1 for ax, size in zip(axes, shape)]
    upper, lower, at = 0.0, -1.0, 0
    for lo, bound, dev in _bound_blocks(axes, picks, ranks, ps.n, mu.mass_on_grid):
        upper = max(upper, float(bound.max()))
        dev = dev.ravel()
        j = int(np.argmax(dev))
        if dev[j] > lower:
            lower, at = float(dev[j]), lo * (cells // shape[0]) + j
    witness = np.array([ax[p[i]] for ax, p, i in zip(axes, picks, np.unravel_index(at, shape))])
    return DiscrepancyReport(lower, AnchoredBox(witness, closed=True), "bracket", cells, upper, shape)


def discrete_discrepancy(full: PointSet, rows, budget: int | None = None) -> float:
    """max over anchored boxes of |#(Q in A) - (N/K) #(full in A)| on the
    unnormalized count scale, for Q the rows `rows` of full: N distinct
    integer indices in [0, K).

    The sup is attained on Q's own coordinates.  A box can lower each
    coordinate to Q's largest one at or below it, which keeps Q's count and
    does not raise full's; or raise it to just below Q's next one (to 1.0,
    closed, past the last), which keeps Q's count and does not lower full's.
    So each axis gets one slot per distinct coordinate of Q and one per gap
    around them, at most (2N+1)^d cells whatever K is.  Slot 2j + 1 tops
    at Q's j-th distinct rank q_j, slot 2j at q_j - 1 (-1 below Q's lowest
    rank, a repeated top between adjacent ranks) and the last slot at K,
    past every rank; both sets are counted at those tops (`_corner_counts`),
    and every corner is a box.

    The rows are checked (a ValueError) before anything is sorted or
    counted, and the budget on Q's grid.  Q's ranks are full's at Q's
    axis-0 positions, which a K-long mark of the rows, read through the
    axis-0 order in stretches of `_BLOCK_CELLS` points, gives."""
    rows = np.asarray(rows)
    if rows.ndim != 1 or rows.size == 0 or not np.issubdtype(rows.dtype, np.integer):
        raise ValueError("rows must be a non-empty vector of integer row indices")
    if rows.min() < 0 or rows.max() >= full.n:
        raise ValueError(f"rows must lie in [0, {full.n})")
    chosen = np.zeros(full.n, dtype=bool)
    chosen[rows] = True
    if np.count_nonzero(chosen) != rows.size:
        raise ValueError("rows may not repeat an index")
    _, full_ranks, orders = full.critical_grid
    at = np.concatenate([  # in stretches, so no other mask is K long
        np.flatnonzero(chosen[orders[0][lo:lo + _BLOCK_CELLS]]) + lo for lo in range(0, full.n, _BLOCK_CELLS)
    ])
    del chosen  # the counts below need the K-long arrays of full only
    sub_ranks = [r[at] for r in full_ranks]

    tops = [np.append(np.column_stack([q - 1, q]).ravel(), full.n) for q in map(np.unique, sub_ranks)]
    _check_budget(tuple(top.size for top in tops), budget)

    ratio = rows.size / full.n
    best = 0.0
    for (_, c), (_, c_sub) in zip(_corner_counts(full_ranks, tops), _corner_counts(sub_ranks, tops)):
        vals = ratio * c
        vals -= c_sub
        best = max(best, float(np.abs(vals, out=vals).max()))
    return best
