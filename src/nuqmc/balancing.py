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
jumps, via an LP solver, to a vertex of {x : A_kept x = A_kept x_cur,
0 <= x <= 1}: a vertex is reached by a sequence of null-space moves, and at
a vertex the floating count is at most the number of kept edges.  Every
floating variable lies in at most Delta edges and every active edge holds
more than Delta of them, so there are fewer active edges, and fewer kept
rows, than floating variables, and every vertex freezes at least one.
Leaving the implied rows out leaves the polytope unchanged.  The
objective is (0.5 - x_f) + 1e-3 cos(0.7 i + 0.3) over the floating
variables x_f (with i their vertex ids): move little, with a deterministic
tiebreak.  Where one edge holds every floating variable the 0.5 is
dropped, and that is exact: the edge has f > Delta floating variables, so
it is active, and its row is a kept row or a sum of kept rows; sum(x_f) is
then the same at every point of the polytope, and the 0.5 adds one
constant to every objective value.  The minimisers stay the same, and
HiGHS's dual simplex takes about a third fewer iterations.  The dyadic
root cell always spans; a general Hypergraph keeps the 0.5 unless one of
its edges does.  HiGHS takes the system as its CSC arrays and runs without
presolve, with linprog's model, options and result check (`_lp_vertex`)
but without its Python front end: the dual simplex, or the interior point
method above 20000 floating variables.  A result that the check refuses,
or a vertex that freezes nothing, is solved once more from the current x
with the other method, and a second failure raises RuntimeError.

The engine preserves zeros (beta_i = 0 implies b_i = 0), rounds integral
vectors to themselves, and is a pure function of its input.

The engine reads a hypergraph through `n`, `max_degree` and three methods,
none of which loops over edges in Python: `edge_sums` (per-edge sums of a
vertex vector, for the floating counts and the error), `members_of` (the
members of a set of edges, for the nonzeros of the kept system) and
`implied` (the active rows left out of it).  Hypergraph below serves them
from CSR arrays, (ptr, members), built from an edge list, as segmented
reductions and one gather over the selected edges; its validation is
vectorised the same way.  dyadic.DyadicHypergraph serves them from the
lattice without storing any member.
beck_fiala_round counts its steps and the variables each froze in
RoundingResult.details.

scipy is imported by the system build (scipy.sparse) and the LP jump (its
HiGHS bindings, scipy.optimize._highspy._core, which first ship with scipy
1.15), not by this module, so `import nuqmc` loads numpy only, and so do
the measures, the scans and the integration layer.
Every rounding with an active edge, d=1 constructions included, reaches an
LP jump and pays scipy's import, about 0.6 s, once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = ["Hypergraph", "RoundingResult", "beck_fiala_round", "edge_error"]

_BOUND_SNAP = 1e-9
# scipy's feasibility tolerance on a linprog result: 10 * sqrt(tol), tol = 1e-9
_CHECK_TOL = 10 * np.sqrt(1e-9)
# Beck-Fiala step counters: how many LP jumps ran, a retry on the other
# HiGHS method included, and how many variables they froze.  "lp_rows" sums
# the kept rows of every step's system, and "lp_implied_rows" the active
# rows left out of it as sums of two other active ones.  "lp_iterations"
# sums HiGHS's simplex and interior point iterations over the jumps.
# "final_snapped" counts the variables of the unconstrained last step, so
# the two frozen counts add up to the variables left floating by the
# initial snap.
TRACE_KEYS = (
    "lp_jumps",
    "lp_frozen",
    "lp_rows",
    "lp_implied_rows",
    "lp_iterations",
    "final_snapped",
)


class Hypergraph:
    """n vertices {0..n-1} and m edges in CSR form: edge e is
    members[ptr[e]:ptr[e+1]], sorted ascending.

    Built from a sequence of edges, Hypergraph(n, edges), by one vectorised
    validation: vertex ids are integers (a float id is refused, not
    truncated) in [0, n), each edge is sorted (one segmented sort when it
    is not) and repeats no vertex, and max_degree is the largest count of
    one vertex among the members.
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
        # counted over the members, so no array is n or the largest id long
        self.max_degree = int(np.unique(members, return_counts=True)[1].max(initial=0))

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

    def floating_counts(self):
        """The number of floating members of every edge."""
        return self.h.edge_sums(self.floating.astype(np.int64))

    def system(self, edges):
        """The 0/1 matrix of the edges marked in the bool mask `edges` over
        the floating variables, in CSC form with int32 indices and each
        column's rows ascending: row r is the r-th marked edge and column c
        the c-th floating variable."""
        from scipy.sparse import coo_matrix

        rows, members = self.h.members_of(edges)
        keep = self.floating[members]
        cols = (np.cumsum(self.floating) - 1)[members[keep]]
        shape = (int(np.count_nonzero(edges)), int(np.count_nonzero(self.floating)))
        return coo_matrix((np.ones(cols.size), (rows[keep], cols)), shape=shape).tocsc()


def _step(st: _EngineState, counts) -> None:
    """One walk step on the active edges, those whose floating counts
    `counts` (`floating_counts`) exceed Delta: an LP jump on the kept rows'
    system, solved once more from the current x with HiGHS's other method
    when its result is refused or freezes nothing.  Raises RuntimeError
    when the second run fails too.  The matrix dies with the step, before
    the next counts."""
    active = counts > st.h.max_degree
    a_eq = st.system(active & ~st.h.implied(active))
    st.trace["lp_rows"] += a_eq.shape[0]
    st.trace["lp_implied_rows"] += int(np.count_nonzero(active)) - a_eq.shape[0]
    float_idx = np.flatnonzero(st.floating)
    f = float_idx.size
    # An edge that holds every floating variable is active, so the kept rows
    # fix sum(x_f) and the 0.5 common to every column adds only a constant
    # (module docstring); it is dropped there, because HiGHS's dual simplex
    # spends about a third of its iterations on it.
    half = 0.0 if np.any(counts == f) else 0.5
    wiggle = 1e-3 * np.cos(0.7 * float_idx + 0.3)
    methods = ("simplex", "ipm") if f <= 20000 else ("ipm", "simplex")
    for method in methods:
        xf = st.x[float_idx]
        x, iterations = _lp_vertex((half - xf) + wiggle, a_eq, a_eq @ xf, method)
        st.trace["lp_jumps"] += 1
        st.trace["lp_iterations"] += iterations
        if x is None:
            continue
        st.x[float_idx] = x
        _snap(st.x, st.floating)
        frozen = f - int(np.count_nonzero(st.floating))
        st.trace["lp_frozen"] += frozen
        if frozen:
            return
    raise RuntimeError(
        f"LP jump froze no variable on either HiGHS method: {a_eq.shape[0]} kept rows "
        f"over {f} floating variables"
    )


def _lp_vertex(c, a_eq, b_eq, method):
    """(x, iterations): the solution x of min c.x subject to a_eq x = b_eq,
    0 <= x <= 1, by HiGHS's `method` ("simplex" or "ipm"), or None where
    linprog would report a failure (status != 0), and the iterations HiGHS
    reports for an optimal run (else 0).

    It is linprog(method="highs-ds" or "highs-ipm", options={"presolve":
    False})'s model and result check without its front end: x is taken only
    from an optimal run, and refused for a NaN, an entry outside [-t, 1+t]
    or a row residual above t, with scipy's t = 10 * sqrt(1e-9)."""
    run = _run_highs(c, a_eq, b_eq, method)
    if run is None:
        return None, 0
    x, ax, objective, iterations = run
    residual = b_eq - ax
    if np.isnan(objective) or np.isnan(x).any() or np.isnan(residual).any():
        return None, iterations
    if np.any((x < -_CHECK_TOL) | (x > 1.0 + _CHECK_TOL)) or np.any(np.abs(residual) > _CHECK_TOL):
        return None, iterations
    return x, iterations


def _run_highs(c, a_eq, b_eq, method):
    """One HiGHS run on min c.x subject to a_eq x = b_eq, 0 <= x <= 1, for
    the CSC matrix `a_eq`: (x, a_eq x, objective, simplex plus interior
    point iterations) as HiGHS reports them, or None unless the run ends
    optimal.

    The model goes in as numpy arrays, and the options are linprog's for
    highs-ds (`method` "simplex") or highs-ipm ("ipm") without presolve;
    its other setting, highs_debug_level 0, is the HiGHS default."""
    try:
        from scipy.optimize._highspy import _core as highs
    except ImportError as exc:
        raise ImportError(
            "nuqmc's LP jump needs scipy >= 1.15, whose scipy.optimize._highspy._core "
            "binds HiGHS"
        ) from exc

    n, m = c.size, b_eq.size
    solver = highs._Highs()
    solver.setOptionValue("output_flag", False)
    solver.setOptionValue("log_to_console", False)
    solver.setOptionValue("presolve", "off")
    solver.setOptionValue("solver", method)
    solver.setOptionValue("simplex_strategy", 1)  # dual
    loaded = solver.passModel(
        n, m, a_eq.nnz, 1, 1, 0.0,  # column-wise, minimise, no offset
        c, np.zeros(n), np.ones(n), b_eq, b_eq,
        a_eq.indptr, a_eq.indices, a_eq.data,
        np.zeros(n, dtype=np.int32),  # all continuous; an empty array is refused
    )
    failed = highs.HighsStatus.kError
    if loaded == failed or solver.run() == failed:
        return None
    if solver.getModelStatus() != highs.HighsModelStatus.kOptimal:
        return None
    solution = solver.getSolution()
    info = solver.getInfo()
    return (
        np.array(solution.col_value),
        np.array(solution.row_value),
        solver.getObjectiveValue(),
        int(info.simplex_iteration_count) + int(info.ipm_iteration_count),
    )


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
        counts = st.floating_counts()
        if not np.any(counts > h.max_degree):
            idx = np.flatnonzero(st.floating)
            st.x[idx] = np.where(st.x[idx] >= 0.5, 1.0, 0.0)
            st.floating[idx] = False
            st.trace["final_snapped"] = int(idx.size)
            break
        _step(st, counts)
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
