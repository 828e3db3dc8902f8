"""Dyadic-cell hypergraph over {1..N^}^d and anchored-prefix rounding.

N^ is N rounded up to a power of two, m = log2(N^).  For every level vector
(m_1..m_d) in {0..m}^d the cells

    prod_s { j_s 2^{m_s} + 1, ..., (j_s + 1) 2^{m_s} }

partition the lattice, so each lattice point lies in exactly (m+1)^d edges
and the hypergraph has maximum degree (m+1)^d.  build_scheme stores no
member: DyadicHypergraph holds one (first edge, block shape, cell shape)
entry per level vector and answers what beck_fiala_round asks from the
lattice.  A level's cell sums are the pairwise sums of the level one step
finer along its first axis with a nonzero level, a cell's members are a
block of the row-major lattice, and those same two children are the
cell's halves, so a Beck-Fiala step's system leaves a cell's row out
when both halves' rows are in.  Every anchored lattice prefix
{1..J_1} x ... x {1..J_d} is a disjoint union of at most one cell per
level vector (read off the binary representations of the J_s), which turns a
per-edge rounding error e into an anchored-prefix error of at most
e * (m+1)^d.

round_array pads a fractional array with zeros to the power-of-two lattice,
rounds it with beck_fiala_round, and returns the 0/1 array together with a
certificate chaining the engine's per-edge error through the decomposition;
the exact maximum prefix error is recomputed by cumulative sums and asserted
against the chain on every run.  The certificate's engine_trace carries the
engine's step counters.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .balancing import beck_fiala_round
from .discrepancy import BudgetExceededError

__all__ = [
    "DyadicHypergraph",
    "DyadicScheme",
    "build_scheme",
    "check_lattice",
    "round_array",
    "max_prefix_error",
    "prefix_cells",
    "reference_prefix_bound",
    "LATTICE_BUDGET",
]

LATTICE_BUDGET = 2**24


@dataclass(frozen=True)
class DyadicScheme:
    """Lattice geometry and edge indexing for one (N, d)."""

    n_side: int       # requested side length N
    n_hat: int        # smallest power of two >= N
    m: int            # log2(n_hat)
    d: int
    level_offsets: dict  # level vector -> first edge id
    n_edges: int

    @property
    def degree(self) -> int:
        return (self.m + 1) ** self.d

    @property
    def n_vertices(self) -> int:
        return self.n_hat**self.d

    def edge_id(self, level, j) -> int:
        """Edge id of the cell at `level` = (m_1..m_d) with block index
        `j` = (j_1..j_d), 0 <= j_s < 2^(m - m_s)."""
        level = tuple(int(v) for v in level)
        blocks = tuple(self.n_hat >> ms for ms in level)
        return self.level_offsets[level] + int(
            np.ravel_multi_index(tuple(int(v) for v in j), blocks)
        )


def check_lattice(n_side: int, d: int) -> int:
    """Side N^ of the lattice for (N, d); raises BudgetExceededError above
    LATTICE_BUDGET points.  It allocates nothing, so a construction checks
    it before it samples."""
    if n_side < 1 or d < 1:
        raise ValueError("need N >= 1 and d >= 1")
    n_hat = 1 << max(0, (n_side - 1).bit_length())
    if n_hat**d > LATTICE_BUDGET:
        raise BudgetExceededError(
            f"lattice {n_hat}^{d} exceeds the budget of {LATTICE_BUDGET} points"
        )
    return n_hat


class DyadicHypergraph:
    """The cells of a DyadicScheme as a hypergraph for beck_fiala_round,
    computed from the lattice: vertices are the lattice points in row-major
    order and edge ids run as in DyadicScheme.edge_id.  It answers the
    engine's three questions (see balancing.Hypergraph) without storing a
    member or a half; each pass over the level vectors is in edge order, so
    a level's children, one step finer along its first nonzero axis, come
    before it."""

    def __init__(self, scheme: DyadicScheme):
        self.n = scheme.n_vertices
        self.m = scheme.n_edges
        self.max_degree = scheme.degree
        self._shape = (scheme.n_hat,) * scheme.d
        # per level vector: first edge, block shape, cell shape, and for a
        # non-unit cell the axis it halves along and its children's first edge
        self._levels = []
        for level, first in scheme.level_offsets.items():
            axis = next((s for s, ms in enumerate(level) if ms), None)
            child = None
            if axis is not None:
                child = scheme.level_offsets[level[:axis] + (level[axis] - 1,) + level[axis + 1:]]
            blocks = tuple(scheme.n_hat >> ms for ms in level)
            self._levels.append((first, blocks, tuple(1 << ms for ms in level), axis, child))
        self._level_starts = np.array([lv[0] for lv in self._levels] + [self.m])
        self._cell_sizes = np.array([math.prod(lv[2]) for lv in self._levels])

    @staticmethod
    def _children(per_edge, child, blocks, axis):
        """The values in `per_edge` of the two children along `axis` of
        every cell of a level with `blocks`, as two views shaped `blocks`;
        the children's level starts at edge `child`."""
        pairs = per_edge[child:child + 2 * math.prod(blocks)]
        pairs = pairs.reshape(blocks[:axis + 1] + (2,) + blocks[axis + 1:])
        lead = (slice(None),) * (axis + 1)
        return pairs[lead + (0,)], pairs[lead + (1,)]

    def edge_sums(self, vals) -> np.ndarray:
        """Per-edge sums of the vertex vector `vals`, in its dtype: the unit
        cells are `vals` itself and every other level the sum of its two
        children, about 2^d * n adds in all."""
        vals = np.asarray(vals)
        sums = np.empty(self.m, dtype=vals.dtype)
        for first, blocks, _, axis, child in self._levels:
            level = sums[first:first + math.prod(blocks)].reshape(blocks)
            if axis is None:
                level[...] = vals.reshape(blocks)
            else:
                np.add(*self._children(sums, child, blocks, axis), out=level)
        return sums

    def members_of(self, edges):
        """(row, vertex) of every member of the cells marked in the bool
        mask `edges`, cell after cell and each cell's members ascending: row
        r is the r-th marked cell.  A cell's members are its lowest vertex
        plus the lattice's first cell of its shape, both raveled from
        per-axis indices: apart from the result, no array is longer than
        the largest marked cell."""
        picked = np.flatnonzero(edges)
        # the marked cells of level k are picked[cuts[k]:cuts[k + 1]]
        cuts = np.searchsorted(picked, self._level_starts)
        rows = np.repeat(np.arange(picked.size), np.repeat(self._cell_sizes, np.diff(cuts)))
        members = np.empty(rows.size, dtype=np.int64)
        start = 0
        for (first, blocks, cell, _, _), a, b in zip(self._levels, cuts, cuts[1:]):
            if a == b:
                continue
            block = np.unravel_index(picked[a:b] - first, blocks)
            corners = np.ravel_multi_index(tuple(j * c for j, c in zip(block, cell)), self._shape)
            inner = np.ravel_multi_index(np.indices(cell, sparse=True), self._shape).ravel()
            stop = start + corners.size * inner.size
            np.add(corners[:, None], inner, out=members[start:stop].reshape(-1, inner.size))
            start = stop
        return rows, members

    def implied(self, active) -> np.ndarray:
        """The active cells whose two halves are both active."""
        both = np.zeros_like(active)
        for first, blocks, _, axis, child in self._levels:
            if axis is not None:
                level = both[first:first + math.prod(blocks)].reshape(blocks)
                np.logical_and(*self._children(active, child, blocks, axis), out=level)
        return active & both


def build_scheme(n_side: int, d: int):
    """Build the scheme and its implicit hypergraph; vertices are the
    lattice points of {1..N^}^d in row-major order.  Nothing of the
    lattice's size is allocated.

    Refuses lattices above LATTICE_BUDGET points (`check_lattice`)."""
    n_hat = check_lattice(n_side, d)
    m = n_hat.bit_length() - 1
    # edge ids run level by level, the cells of a level in row-major block order
    offsets = {}
    n_edges = 0
    for level in itertools.product(range(m + 1), repeat=d):
        offsets[level] = n_edges
        n_edges += n_hat**d >> sum(level)
    scheme = DyadicScheme(n_side, n_hat, m, d, offsets, n_edges)
    assert scheme.n_edges == (2 ** (m + 1) - 1) ** d
    return scheme, DyadicHypergraph(scheme)


def _axis_runs(j_end: int, m: int):
    """Dyadic runs covering {1..j_end}: list of (level, block), one level at
    most once, read from the binary representation of j_end."""
    runs = []
    start = 0
    for level in range(m, -1, -1):
        if j_end - start >= 1 << level:
            runs.append((level, start >> level))
            start += 1 << level
    return runs


def prefix_cells(scheme: DyadicScheme, prefix):
    """Disjoint dyadic cells whose union is the anchored lattice prefix
    {1..J_1} x ... x {1..J_d}; at most one cell per level vector."""
    prefix = tuple(int(v) for v in prefix)
    if len(prefix) != scheme.d or any(not 1 <= j <= scheme.n_hat for j in prefix):
        raise ValueError("prefix must lie in {1..n_hat}^d")
    per_axis = [_axis_runs(j, scheme.m) for j in prefix]
    return [
        (tuple(lv for lv, _ in combo), tuple(bl for _, bl in combo))
        for combo in itertools.product(*per_axis)
    ]


def max_prefix_error(beta: np.ndarray, b: np.ndarray):
    """Exact max over anchored lattice prefixes of |sum_prefix (b - beta)|,
    via d-dimensional cumulative sums; returns (value, witness J) with J
    1-based."""
    beta = np.asarray(beta, dtype=float)
    b = np.asarray(b, dtype=float)
    if beta.shape != b.shape:
        raise ValueError("beta and b must have the same shape")
    acc = b - beta
    for axis in range(acc.ndim):
        acc = np.cumsum(acc, axis=axis)
    flat = int(np.argmax(np.abs(acc)))
    idx = np.unravel_index(flat, acc.shape)
    return float(abs(acc.ravel()[flat])), tuple(int(i) + 1 for i in idx)


def reference_prefix_bound(n_side: int, d: int) -> float:
    """Reference prefix-error constant 10*sqrt(d)*(2+log2 N)^((3d+1)/2),
    recorded for comparison only (its derivation is non-constructive)."""
    return 10.0 * math.sqrt(d) * (2.0 + math.log2(max(n_side, 1))) ** ((3 * d + 1) / 2)


def round_array(beta: np.ndarray):
    """Round a fractional array over {1..N}^d to 0/1 via the dyadic
    hypergraph; returns (b, certificate).

    The array is zero-padded to {1..N^}^d, rounded by beck_fiala_round, and
    unpadded; cells with beta = 0 round to 0.  The certificate carries the
    engine's recomputed per-edge error, the derived anchored-prefix bound
    per_edge_error * (m+1)^d, the guaranteed chain (2*Delta - 1) * (m+1)^d,
    and the exact measured prefix error (asserted <= the derived bound).

    Parameters
    ----------
    beta : array with values in [0,1], up to N points per axis
    """
    beta = np.asarray(beta, dtype=float)
    if beta.ndim < 1:
        raise ValueError("beta must have at least one axis")
    d = beta.ndim
    n_side = max(beta.shape)
    scheme, h = build_scheme(n_side, d)
    padded = np.zeros((scheme.n_hat,) * d)
    padded[tuple(slice(0, s) for s in beta.shape)] = beta
    res = beck_fiala_round(h, padded.ravel())

    b_full = res.b.reshape((scheme.n_hat,) * d)
    assert np.all(b_full[padded == 0.0] == 0.0)
    b = b_full[tuple(slice(0, s) for s in beta.shape)].copy()

    degree = scheme.degree
    prefix_bound = res.achieved_error * degree
    measured, witness = max_prefix_error(beta, b)
    if measured > prefix_bound + 1e-9:
        raise RuntimeError(
            f"prefix decomposition bound violated: {measured} > {prefix_bound}"
        )
    certificate = {
        "engine": res.engine,
        "fallback": res.fallback,
        "per_edge_error": res.achieved_error,
        "degree": degree,
        "prefix_bound": prefix_bound,
        "engine_guarantee": res.guaranteed_bound,
        "guaranteed_prefix_bound": res.guaranteed_bound * degree,
        "measured_prefix_error": measured,
        "engine_trace": dict(res.details),
        "witness_prefix": witness,
        "reference_prefix_bound": reference_prefix_bound(n_side, d),
        "n_side": n_side,
        "n_hat": scheme.n_hat,
        "d": d,
    }
    # chain: measured <= achieved*(m+1)^d <= (2*Delta-1)*(m+1)^d
    assert res.achieved_error <= res.guaranteed_bound + 1e-9
    return b, certificate
