"""Constructive linear-discrepancy rounding for hypergraphs.

Given a hypergraph H on n vertices with maximum degree Delta and a fractional
vector beta in [0,1]^n, beck_fiala_round produces b in {0,1}^n with per-edge
error |sum_E (beta - b)| <= 2*Delta - 1 (Beck and Fiala, "Integer-making
theorems", 1981).  It is the constructive stand-in for the paper's
non-constructive balancing step.

beck_fiala_round is deterministic floating-colors iterated rounding.  While
an edge has more than Delta floating (fractional) variables its sum is held
exactly constant; moves happen in the null space of the active system until
variables freeze at {0,1}.  Once an edge has at most Delta floating
variables each can still move by less than one unit, so every edge ends
with error < Delta <= 2*Delta - 1.  The hard guarantee is 2*Delta - 1.

Each step of the walk builds one system: the rows of the kept edges over
the floating variables.  An active edge that the hypergraph names as the
disjoint union of two other active edges (`implied`) has the sum of their
rows as its row, and recursively of kept rows, so the kept rows -- the
active ones not so implied -- span the whole active system.  The step then
moves in that system's null space in one of two ways:
(a) a batched jump to a vertex of {x : A_kept x = A_kept x_cur,
    0 <= x <= 1} via an LP solver -- a vertex is reached by a sequence of
    null-space moves, and at a vertex the floating count is at most the
    number of kept edges, so the floating set shrinks geometrically.
    Leaving the implied rows out leaves the polytope unchanged, and HiGHS
    runs without presolve;
(b) a single explicit null-space step as a progress guard, when a jump
    freezes nothing: a probe vector minus its least-squares projection
    onto the kept rows' span (sparse lsqr), so no dense matrix of the
    system is ever formed.

The engine preserves zeros (beta_i = 0 implies b_i = 0), rounds integral
vectors to themselves, and is a pure function of its input.

The engine reads a hypergraph through `n`, `max_degree` and three methods,
none of which loops over edges in Python: `edge_sums` (per-edge sums of a
vertex vector, for the active mask and the error), `members_of` (the
members of a set of edges, for the nonzeros of the kept system) and
`implied` (the active rows left out of it).  Hypergraph below serves them
from CSR arrays, (ptr, members), built from an edge list, as segmented
reductions and one gather over the selected edges; its validation is
vectorised the same way.  dyadic.DyadicHypergraph serves them from the
lattice without storing any member.
beck_fiala_round counts its steps and the variables each froze in
RoundingResult.details.

scipy is imported by the system build and the two moves, not by this
module, so `import nuqmc` loads numpy only, and so do the measures, the
scans and the integration layer.  Every rounding with an active edge, d=1
constructions included, reaches an LP jump and pays scipy's import, about
0.6 s, once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = ["Hypergraph", "RoundingResult", "beck_fiala_round", "edge_error"]

_BOUND_SNAP = 1e-9
# Beck-Fiala step counters: how often each step ran and how many variables
# it froze.  "lp_rows" sums the kept rows of every step's system (each step
# makes one LP jump), and "lp_implied_rows" the active rows left out of it
# as sums of two other active ones.
# "final_snapped" counts the variables of the unconstrained last step, so
# the three frozen counts add up to the variables left floating by the
# initial snap.
TRACE_KEYS = (
    "lp_jumps",
    "lp_frozen",
    "lp_rows",
    "lp_implied_rows",
    "null_steps",
    "null_frozen",
    "final_snapped",
)


class Hypergraph:
    """n vertices {0..n-1} and m edges in CSR form: edge e is
    members[ptr[e]:ptr[e+1]], sorted ascending.

    Built from a sequence of edges, Hypergraph(n, edges), by one vectorised
    validation: vertex ids are integers (a float id is refused, not
    truncated) in [0, n), each edge is sorted (one segmented sort when it
    is not) and repeats no vertex, and max_degree is counted by bincount.
    Serialization is the JSON object {"n": n, "edges": [[...], ...]}.
    """

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("n must be nonnegative")
        edges = [np.asarray(e) for e in edges]
        if any(e.size and e.dtype.kind not in "iu" for e in edges):
            raise ValueError("vertex ids must be integers")
        ptr = np.concatenate([[0], np.cumsum([e.size for e in edges], dtype=np.int64)])
        # only empty edges can still be float here (numpy reads `[]` as
        # float), so no id is truncated
        members = np.concatenate(
            [np.zeros(0, dtype=np.int64), *edges], dtype=np.int64, casting="unsafe"
        )
        if members.size and (members.min() < 0 or members.max() >= n):
            bad = int(np.flatnonzero((members < 0) | (members >= n))[0])
            e = int(np.searchsorted(ptr, bad, side="right")) - 1
            raise ValueError(f"edge {members[ptr[e]:ptr[e + 1]]} has vertices outside [0, {n})")
        # steps between neighbours within one edge must be positive: a step
        # <= 0 means an unsorted edge (sort it) or a repeated vertex (refuse)
        inner = np.ones(max(members.size - 1, 0), dtype=bool)
        inner[ptr[1:-1][(ptr[1:-1] > 0) & (ptr[1:-1] < members.size)] - 1] = False
        if np.any(inner & (np.diff(members) <= 0)):
            edge_of = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))
            members = members[np.lexsort((members, edge_of))]
            if np.any(inner & (np.diff(members) == 0)):
                raise ValueError("edges may not repeat a vertex")
        self.n = n
        self.ptr = ptr
        self.members = members
        self.max_degree = int(np.bincount(members, minlength=n).max()) if n else 0

    @property
    def m(self) -> int:
        return len(self.ptr) - 1

    @cached_property
    def edges(self) -> tuple:
        """Per-edge member arrays (views of `members`), for inspection and
        serialization; the engine works on the CSR arrays."""
        return tuple(np.split(self.members, self.ptr[1:-1])) if self.m else ()

    def edge_sums(self, vals) -> np.ndarray:
        """Per-edge sums of the vertex vector `vals`, in its dtype; an empty
        edge sums to 0."""
        vals = np.asarray(vals)[self.members]
        sums = np.zeros(self.m, dtype=vals.dtype)
        nonempty = self.ptr[1:] > self.ptr[:-1]
        if nonempty.any():
            sums[nonempty] = np.add.reduceat(vals, self.ptr[:-1][nonempty])
        return sums

    def members_of(self, edges):
        """(row, vertex) of every member of the edges marked in the bool
        mask `edges`, edge after edge and each edge's members ascending:
        row r is the r-th marked edge.  Only their member ranges are
        expanded."""
        picked = np.flatnonzero(edges)
        sizes = np.diff(self.ptr)[picked]
        rows = np.repeat(np.arange(picked.size), sizes)
        # a member's position: its edge's start plus its place in the edge
        pos = np.arange(rows.size) + (self.ptr[picked] - np.cumsum(sizes) + sizes)[rows]
        return rows, self.members[pos]

    def implied(self, active) -> np.ndarray:
        """The active edges that are the disjoint union of two other active
        edges; the CSR form names no such pair, so none."""
        return np.zeros_like(active)

    def to_dict(self):
        return {"n": self.n, "edges": [e.tolist() for e in self.edges]}

    @classmethod
    def from_dict(cls, d):
        return cls(int(d["n"]), tuple(d["edges"]))


@dataclass(frozen=True)
class RoundingResult:
    """A rounding and its error.  `engine` is always "beck_fiala" and
    `fallback` always False; both stay in the serialized form, which
    certificates and `nuqmc round` output carry."""

    b: np.ndarray
    achieved_error: float
    guaranteed_bound: float
    engine: str
    fallback: bool = False
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "b": self.b.astype(int).tolist(),
            "achieved_error": self.achieved_error,
            "guaranteed_bound": self.guaranteed_bound,
            "engine": self.engine,
            "fallback": self.fallback,
            **{k: v for k, v in self.details.items()},
        }


def edge_error(h: Hypergraph, beta: np.ndarray, b: np.ndarray) -> float:
    """max over edges of |sum_E beta - sum_E b| (0 for an empty edge list)."""
    beta = np.asarray(beta, dtype=float)
    b = np.asarray(b, dtype=float)
    if beta.shape != (h.n,) or b.shape != (h.n,):
        raise ValueError("beta and b must be vectors of length n")
    return float(np.abs(h.edge_sums(beta - b)).max(initial=0.0))


def _check_beta(h: Hypergraph, beta) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (h.n,):
        raise ValueError(f"beta must have length n={h.n}")
    if not np.all(np.isfinite(beta)) or beta.min(initial=0.0) < 0.0 or beta.max(initial=0.0) > 1.0:
        raise ValueError("beta values must lie in [0,1]; refusing to clamp")
    return beta


def _snap(x, floating):
    """Snap near-bound floating entries to exact {0,1} and unfloat them."""
    lo = floating & (x <= _BOUND_SNAP)
    hi = floating & (x >= 1.0 - _BOUND_SNAP)
    x[lo] = 0.0
    x[hi] = 1.0
    floating &= ~(lo | hi)


class _EngineState:
    """Shared bookkeeping for the floating-colors walk, plus the counters of
    the steps it took (`trace`, reported as RoundingResult.details)."""

    def __init__(self, h: Hypergraph, beta: np.ndarray):
        self.h = h
        self.x = beta.astype(float).copy()
        self.floating = np.ones(h.n, dtype=bool)
        _snap(self.x, self.floating)
        self.trace = dict.fromkeys(TRACE_KEYS, 0)

    def active_mask(self):
        return self.h.edge_sums(self.floating.astype(np.int64)) > self.h.max_degree

    def system(self, edges):
        """The CSR 0/1 matrix of the edges marked in the bool mask `edges`
        over the floating variables: row r is the r-th marked edge and
        column c the c-th floating variable."""
        from scipy.sparse import coo_matrix

        rows, members = self.h.members_of(edges)
        keep = self.floating[members]
        cols = (np.cumsum(self.floating) - 1)[members[keep]]
        shape = (int(np.count_nonzero(edges)), int(np.count_nonzero(self.floating)))
        return coo_matrix((np.ones(cols.size), (rows[keep], cols)), shape=shape).tocsr()


def _step(st: _EngineState, active) -> None:
    """One walk step on the active edges: an LP jump on the kept rows'
    system, and a null step on the same matrix when the jump freezes
    nothing.  The matrix dies with the step, before the next active mask."""
    kept = active & ~st.h.implied(active)
    matrix = st.system(kept)
    st.trace["lp_rows"] += matrix.shape[0]
    st.trace["lp_implied_rows"] += int(np.count_nonzero(active)) - matrix.shape[0]
    if not _lp_round(st, matrix):
        _null_step(st, matrix)


def _lp_round(st: _EngineState, a_eq) -> bool:
    """Jump to a vertex of the polytope of the system `a_eq`; returns True
    on progress."""
    from scipy.optimize import linprog

    float_idx = np.flatnonzero(st.floating)
    xf = st.x[float_idx]
    b_eq = a_eq @ xf
    # movement-minimizing-ish objective with a deterministic tiebreak wiggle
    c = (0.5 - xf) + 1e-3 * np.cos(0.7 * float_idx + 0.3)
    method = "highs-ds" if float_idx.size <= 20000 else "highs-ipm"
    res = linprog(
        c, A_eq=a_eq, b_eq=b_eq, bounds=(0.0, 1.0), method=method, options={"presolve": False}
    )
    st.trace["lp_jumps"] += 1
    if res.status != 0:
        return False
    st.x[float_idx] = res.x
    before = int(st.floating.sum())
    _snap(st.x, st.floating)
    frozen = before - int(st.floating.sum())
    st.trace["lp_frozen"] += frozen
    return frozen > 0


def _null_step(st: _EngineState, mat) -> None:
    """One explicit null-space move of the system `mat`; freezes at least
    one variable.

    The direction is a probe vector minus its least-squares fit by the
    rows of `mat` (lsqr on the sparse system), the first probe that leaves
    a nonzero residual.  No dense matrix is formed: a dense null-space
    basis of a 65536-variable dyadic system would need a 65536^2 matrix."""
    from scipy.sparse.linalg import lsqr

    st.trace["null_steps"] += 1
    float_idx = np.flatnonzero(st.floating)
    f = float_idx.size
    v = None
    for probe in range(min(f, 32)):
        g = np.cos(0.31 * np.arange(f) + probe)
        w = lsqr(mat.T, g, atol=1e-14, btol=1e-14)[0]
        cand = g - mat.T @ w
        if np.abs(mat @ cand).max() <= 1e-9 and np.abs(cand).max() > 1e-9:
            v = cand
            break
    if v is None:
        raise RuntimeError("failed to find a sparse null direction")
    v = v / np.abs(v).max()
    xf = st.x[float_idx]
    with np.errstate(divide="ignore", invalid="ignore"):
        up = np.where(v > 1e-14, (1.0 - xf) / v, np.inf)
        dn = np.where(v < -1e-14, xf / (-v), np.inf)
    t = min(up.min(), dn.min())
    if not np.isfinite(t):
        raise RuntimeError("degenerate null direction")
    st.x[float_idx] = np.clip(xf + t * v, 0.0, 1.0)
    _snap(st.x, st.floating)
    if int(st.floating.sum()) >= f:
        # force the closest-to-bound variable out (guards fp stalemates)
        j = float_idx[int(np.argmin(np.minimum(st.x[float_idx], 1.0 - st.x[float_idx])))]
        st.x[j] = 1.0 if st.x[j] >= 0.5 else 0.0
        st.floating[j] = False
    st.trace["null_frozen"] += f - int(st.floating.sum())


def beck_fiala_round(h: Hypergraph, beta) -> RoundingResult:
    """Deterministic floating-colors rounding with the 2*Delta - 1 guarantee.

    Zeros are preserved, integral vectors are fixpoints, and the result is
    bit-reproducible (no randomness)."""
    beta = _check_beta(h, beta)
    st = _EngineState(h, beta)
    guard = 0
    while st.floating.any():
        guard += 1
        if guard > 4 * h.n + 16:
            raise RuntimeError("floating-colors walk failed to terminate")
        active = st.active_mask()
        if not active.any():
            idx = np.flatnonzero(st.floating)
            st.x[idx] = np.where(st.x[idx] >= 0.5, 1.0, 0.0)
            st.floating[idx] = False
            st.trace["final_snapped"] = int(idx.size)
            break
        _step(st, active)
    b = st.x
    if not np.all((b == 0.0) | (b == 1.0)):
        raise RuntimeError("rounding left non-integral values")
    achieved = edge_error(h, beta, b)
    bound = float(max(2 * h.max_degree - 1, 0))
    if achieved > bound + 1e-9:
        raise RuntimeError(
            f"floating-colors invariant violated: error {achieved} > bound {bound}"
        )
    return RoundingResult(b, achieved, bound, "beck_fiala", details=dict(st.trace))
