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

The implementation takes null-space steps in three ways, cheapest first:
(a) "signature pairs": two floating variables lying in exactly the same
    active edges can be moved oppositely, which is a null direction
    computable by hashing (for hierarchical edge systems this realizes a
    full pairing cascade and finishes in near-linear time);
(b) a batched jump to a vertex of {x : A_active x = A_active x_cur,
    0 <= x <= 1} via an LP solver -- a vertex is reached by a sequence of
    null-space moves, and at a vertex the floating count is at most the
    number of active edges, so the floating set shrinks geometrically.
    An active edge whose two halves (Hypergraph.halves) are both active
    is their disjoint union, so its row is the sum of theirs: the LP
    holds only the active rows not implied by their halves, which
    leaves the polytope unchanged, and HiGHS runs without presolve;
(c) a single explicit null-space step as a progress guard: a probe vector
    minus its least-squares projection onto the active rows' span (sparse
    lsqr), so no dense matrix of the active system is ever formed.

The engine preserves zeros (beta_i = 0 implies b_i = 0), rounds integral
vectors to themselves, and is a pure function of its input.

A Hypergraph is stored in CSR form, (ptr, members), and that is the only
form the engine reads: per-edge sums are segmented reductions,
the active system's nonzeros come from one gather over the members, and
the signature hash is one weighted bincount, so no step loops over edges
in Python.  Validation is vectorised the same way, whether the input is an
edge list or CSR arrays.  beck_fiala_round counts its steps and the
variables each froze in RoundingResult.details.

scipy is imported by the two steps that use it, (b) and (c), not by this
module, so `import nuqmc` loads numpy only and a construction that never
leaves the pairing pass (every d=1 build: the dyadic edges are nested)
never loads scipy.  The cost is moved, not saved: a process that reaches
an LP jump or a null step pays scipy's import, about 0.6 s, once, there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = ["Hypergraph", "RoundingResult", "beck_fiala_round", "edge_error"]

_BOUND_SNAP = 1e-9
_HASH_RNG_SEED = 0x5EED_BA1A  # fixed: signature hashing must be seed-free deterministic
# Beck-Fiala step counters: how often each step ran and how many variables
# it froze.  "lp_rows" sums the rows passed to the LP solver over the jumps, and
# "lp_implied_rows" the active rows left out as sums of two kept ones.
# "final_snapped" counts the variables of the unconstrained last step, so
# the four frozen counts add up to the variables left floating by the
# initial snap.
TRACE_KEYS = (
    "pairing_passes",
    "pairing_frozen",
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

    Build it from a sequence of edges, Hypergraph(n, edges), or from the CSR
    arrays themselves, Hypergraph(n, csr=(ptr, members)).  Both inputs go
    through one vectorised validation: members lie in [0, n), each edge is
    sorted (one segmented sort when it is not) and repeats no vertex, and
    max_degree is recomputed by bincount and checked against the cached
    value when one is given.  Serialization is the JSON object
    {"n": n, "edges": [[...], ...]}.

    `halves`, an (m, 2) int array, optionally names for every edge two other
    edges that partition it (-1, -1 where there are none); the dyadic
    scheme gives each cell its two children.  The same pass checks that
    they lie in [0, m), differ from their edge, and that their sizes add up
    to its size; that they partition it is the caller's promise.  Without
    them every row is (-1, -1).  Beck-Fiala leaves an edge's row out of its
    LP when both halves are active.  Serialization does not carry them.
    """

    def __init__(self, n: int, edges=(), max_degree: int = -1, *, csr=None, halves=None):
        if n < 0:
            raise ValueError("n must be nonnegative")
        if csr is None:
            sizes = np.fromiter(map(len, edges), dtype=np.int64, count=len(edges))
            ptr = np.concatenate([[0], np.cumsum(sizes)])
            members = np.concatenate(
                [np.zeros(0, dtype=np.int64), *edges], dtype=np.int64, casting="unsafe"
            )
        else:
            ptr, members = (np.asarray(a, dtype=np.int64) for a in csr)
            if (
                ptr.ndim != 1 or members.ndim != 1 or ptr.size == 0 or ptr[0] != 0
                or ptr[-1] != members.size or np.any(np.diff(ptr) < 0)
            ):
                raise ValueError("csr must be (ptr, members), ptr rising from 0 to len(members)")
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
        recomputed = int(np.bincount(members, minlength=n).max()) if n else 0
        if max_degree >= 0 and max_degree != recomputed:
            raise ValueError(f"cached max_degree {max_degree} != recomputed {recomputed}")
        m = len(ptr) - 1
        if halves is None:
            halves = np.full((m, 2), -1, dtype=np.int64)
        else:
            halves = np.asarray(halves, dtype=np.int64)
            if halves.shape != (m, 2):
                raise ValueError(f"halves must have shape ({m}, 2)")
            h0, h1 = halves[:, 0], halves[:, 1]
            split = (np.minimum(h0, h1) >= 0) & (np.maximum(h0, h1) < m)
            if np.any(~split & ((h0 != -1) | (h1 != -1))):
                raise ValueError(f"halves must be edge ids in [0, {m}), or -1, -1")
            own = np.arange(m)
            if np.any((h0 == own) | (h1 == own)):
                raise ValueError("an edge may not be its own half")
            sizes = np.diff(ptr)
            if np.any(split & (sizes[h0] + sizes[h1] != sizes)):
                raise ValueError("the sizes of an edge's halves must add up to its size")
        self.n = n
        self.ptr = ptr
        self.members = members
        self.max_degree = recomputed
        self.halves = halves

    @property
    def m(self) -> int:
        return len(self.ptr) - 1

    @cached_property
    def edges(self) -> tuple:
        """Per-edge member arrays (views of `members`), for inspection and
        serialization; the engine works on the CSR arrays."""
        return tuple(np.split(self.members, self.ptr[1:-1])) if self.m else ()

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
    sums = _edge_sums(h.ptr, (beta - b)[h.members])
    return float(np.abs(sums).max(initial=0.0))


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


def _edge_sums(ptr, vals):
    """Per-edge sums of `vals`, laid out like the members of the CSR `ptr`;
    an empty edge sums to 0."""
    sums = np.zeros(len(ptr) - 1, dtype=vals.dtype)
    nonempty = ptr[1:] > ptr[:-1]
    if nonempty.any():
        sums[nonempty] = np.add.reduceat(vals, ptr[:-1][nonempty])
    return sums


class _EngineState:
    """Shared bookkeeping for the floating-colors walk, plus the counters of
    the steps it took (`trace`, reported as RoundingResult.details)."""

    def __init__(self, h: Hypergraph, beta: np.ndarray):
        self.h = h
        self.x = beta.astype(float).copy()
        self.floating = np.ones(h.n, dtype=bool)
        _snap(self.x, self.floating)
        self.ptr, self.members = h.ptr, h.members
        self.edge_of = np.repeat(np.arange(h.m), np.diff(self.ptr))
        rng = np.random.default_rng(_HASH_RNG_SEED)
        self.edge_hash = rng.random(max(h.m, 1))
        # vertex -> edge ids (CSR) for exact pair verification
        order = np.argsort(self.members, kind="stable")
        self.v_edges = self.edge_of[order]
        self.v_ptr = np.searchsorted(self.members[order], np.arange(h.n + 1))
        self.trace = dict.fromkeys(TRACE_KEYS, 0)

    def active_mask(self):
        counts = _edge_sums(self.ptr, self.floating[self.members].astype(np.int64))
        return counts > self.h.max_degree

    def active_floating(self, active):
        """(row, column) of every floating member of every active edge, in
        edge order: row r is the r-th active edge and column c the c-th
        floating variable, i.e. the nonzeros of the active system."""
        keep = active[self.edge_of] & self.floating[self.members]
        rows = (np.cumsum(active) - 1)[self.edge_of[keep]]
        cols = (np.cumsum(self.floating) - 1)[self.members[keep]]
        return rows, cols


def _pairing_pass(st: _EngineState, active) -> int:
    """Freeze variables by walking i->up / j->down for pairs (i, j) of
    floating variables with identical active-edge membership.  Returns the
    number of variables frozen.

    The floating variables are sorted by a hash of their active-edge sets;
    a neighbour in that order is a partner when the hashes and the exact
    edge lists agree (hashing alone never certifies a pair).  Inside every
    run of such neighbours, positions s, s+2, s+4, ... from its start s are
    paired with the next one, as a greedy left-to-right walk pairs them.
    The pairs are disjoint, so all of them move at once."""
    st.trace["pairing_passes"] += 1
    float_idx = np.flatnonzero(st.floating)
    if float_idx.size < 2:
        return 0
    # hash of the active-edge set per variable, accumulated in one pass
    in_active = active[st.edge_of]
    sig_full = np.bincount(
        st.members[in_active], weights=st.edge_hash[st.edge_of[in_active]], minlength=st.h.n
    )
    sig = sig_full[float_idx]
    order = np.argsort(sig, kind="stable")
    var = float_idx[order]
    sig = sig[order]
    # every vertex's active edges, ascending, as a stretch of `act_edges`
    act = active[st.v_edges]
    act_edges = st.v_edges[act]
    act_ptr = np.concatenate([[0], np.cumsum(act)])[st.v_ptr]
    start = act_ptr[var]
    count = act_ptr[var + 1] - start
    eq = (sig[1:] == sig[:-1]) & (count[1:] == count[:-1])
    cand = np.flatnonzero(eq)
    lens = count[cand]
    seg = np.repeat(np.arange(cand.size), lens)
    within = np.arange(seg.size) - np.repeat(np.cumsum(lens) - lens, lens)
    differ = act_edges[start[cand][seg] + within] != act_edges[start[cand + 1][seg] + within]
    eq[cand[np.bincount(seg[differ], minlength=cand.size) > 0]] = False
    pos = np.arange(eq.size)
    run_start = np.maximum.accumulate(np.where(eq & ~np.r_[False, eq[:-1]], pos, 0))
    pairs = np.flatnonzero(eq & ((pos - run_start) % 2 == 0))
    if not pairs.size:
        return 0
    a, b = var[pairs], var[pairs + 1]
    xa, xb = st.x[a], st.x[b]
    # the larger value walks up (the lower index on a tie), the other down
    up = np.where(xa == xb, np.minimum(a, b), np.where(xa < xb, b, a))
    down = np.where(up == a, b, a)
    t = np.minimum(1.0 - st.x[up], st.x[down])
    st.x[up] += t
    st.x[down] -= t
    # every other floating variable lies strictly inside the snap band
    before = int(st.floating.sum())
    _snap(st.x, st.floating)
    frozen = before - int(st.floating.sum())
    st.trace["pairing_frozen"] += frozen
    return frozen


def _lp_round(st: _EngineState, active) -> bool:
    """Jump to a vertex of the active polytope; returns True on progress."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    if not active.any():
        return False
    # an active edge with both halves active is their disjoint union: its
    # row is the sum of theirs (recursively), so it is left out
    h0, h1 = st.h.halves.T
    kept = active & ~((h0 >= 0) & active[h0] & active[h1])
    n_kept = int(np.count_nonzero(kept))
    float_idx = np.flatnonzero(st.floating)
    f = float_idx.size
    rows, cols = st.active_floating(kept)
    a_eq = coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n_kept, f)).tocsr()
    del rows, cols  # not alive while HiGHS holds its own copy of the matrix
    xf = st.x[float_idx]
    b_eq = a_eq @ xf
    # movement-minimizing-ish objective with a deterministic tiebreak wiggle
    c = (0.5 - xf) + 1e-3 * np.cos(0.7 * float_idx + 0.3)
    method = "highs-ds" if f <= 20000 else "highs-ipm"
    res = linprog(
        c, A_eq=a_eq, b_eq=b_eq, bounds=(0.0, 1.0), method=method, options={"presolve": False}
    )
    st.trace["lp_jumps"] += 1
    st.trace["lp_rows"] += n_kept
    st.trace["lp_implied_rows"] += int(np.count_nonzero(active)) - n_kept
    if res.status != 0:
        return False
    st.x[float_idx] = res.x
    before = int(st.floating.sum())
    _snap(st.x, st.floating)
    frozen = before - int(st.floating.sum())
    st.trace["lp_frozen"] += frozen
    return frozen > 0


def _null_step(st: _EngineState, active) -> None:
    """One explicit null-space move; freezes at least one variable.

    The direction is a probe vector minus its least-squares fit by the
    active rows (lsqr on the sparse system), the first probe that leaves a
    nonzero residual.  No dense matrix is formed: a dense null-space basis
    of a 65536-variable dyadic system would need a 65536^2 matrix."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.linalg import lsqr

    st.trace["null_steps"] += 1
    float_idx = np.flatnonzero(st.floating)
    f = float_idx.size
    n_active = int(np.count_nonzero(active))  # >= 1: beck_fiala_round snaps otherwise
    rows, cols = st.active_floating(active)
    mat = coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n_active, f)).tocsr()
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
        if _pairing_pass(st, active):
            continue
        if _lp_round(st, active):
            continue
        _null_step(st, active)
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
