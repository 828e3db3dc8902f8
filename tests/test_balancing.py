"""Beck-Fiala rounding: hard 2*Delta - 1 guarantee, zero preservation,
determinism, and the engine's steps."""

import functools
import itertools
import sys

import numpy as np
import pytest

from nuqmc import balancing
from nuqmc.balancing import (
    TRACE_KEYS,
    Hypergraph,
    _EngineState,
    _step,
    beck_fiala_round,
    edge_error,
)
from nuqmc.dyadic import build_scheme
from nuqmc.measures import OmegaRegion, PowerCdf, ProductMeasure, RestrictionMeasure
from nuqmc.pipeline import ConstructionConfig, construct_point_set


def random_hypergraph(rng, n_max=200, m_max=400, delta_max=10, min_n=4):
    n = int(rng.integers(min_n, n_max + 1))
    cap = int(rng.integers(1, delta_max + 1))
    deg = np.zeros(n, dtype=int)
    edges = []
    for _ in range(int(rng.integers(1, m_max + 1))):
        pool = np.flatnonzero(deg < cap)
        if pool.size == 0:
            break
        k = int(rng.integers(1, min(pool.size, 3 * cap + 2) + 1))
        e = rng.choice(pool, size=k, replace=False)
        deg[e] += 1
        edges.append(e)
    return Hypergraph(n, tuple(edges))


# --- hypergraph type ---------------------------------------------------------


def test_hypergraph_degree_cached_and_checked():
    h = Hypergraph(3, ([0, 1], [1, 2], [1]))
    assert h.max_degree == 3
    with pytest.raises(ValueError):
        Hypergraph(2, ([0, 3],))
    with pytest.raises(ValueError):
        Hypergraph(2, ([0, 0],))


def test_hypergraph_csr_validation():
    # unsorted edges are sorted and empty edges kept in the CSR arrays
    h = Hypergraph(5, ([3, 1], [], [4, 0, 2], [2]))
    assert h.ptr.tolist() == [0, 2, 2, 5, 6]
    assert h.members.tolist() == [1, 3, 0, 2, 4, 2]
    assert h.to_dict() == {"n": 5, "edges": [[1, 3], [], [0, 2, 4], [2]]}
    assert h.max_degree == 2
    # a vertex shared by neighbouring edges is not a repeat
    assert Hypergraph(3, ([0, 2], [2], [2, 1])).max_degree == 3
    with pytest.raises(ValueError, match="repeat"):
        Hypergraph(5, ([1], [0, 2, 0]))
    with pytest.raises(ValueError, match="outside"):
        Hypergraph(5, ([1, 5],))
    with pytest.raises(ValueError, match="outside"):
        Hypergraph(5, ([], [2, -1]))


def test_hypergraph_refuses_non_integer_ids():
    # a float id is refused, not truncated: ([0.7, 1.9],) would build [0, 1]
    for bad in (([0.7, 1.9],), ([0, 2.5], [1]), ([1.0],)):
        with pytest.raises(ValueError, match="integers"):
            Hypergraph(3, bad)
    # empty edges read as float arrays and stay empty
    assert Hypergraph(3, ([], [2, 0])).to_dict() == {"n": 3, "edges": [[], [0, 2]]}


def test_hypergraph_json_roundtrip():
    h = Hypergraph(4, ([0, 2], [1, 2, 3]))
    h2 = Hypergraph.from_dict(h.to_dict())
    assert h2.n == h.n and all(np.array_equal(a, b) for a, b in zip(h.edges, h2.edges))


# --- edge_error --------------------------------------------------------------


def test_edge_error_examples():
    assert edge_error(Hypergraph(2, ()), [0.5, 0.5], [1, 1]) == 0.0
    assert edge_error(Hypergraph(2, ([0, 1],)), [0.5, 0.5], [1, 1]) == pytest.approx(1.0)
    h = Hypergraph(3, ([0, 1, 2],))
    assert edge_error(h, [0.3, 0.3, 0.3], [1, 0, 0]) == pytest.approx(0.1)


def test_edge_error_matches_loop_oracle():
    # segmented sums against a per-edge loop, on empty and unsorted edges
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 40))
        edges = [
            rng.permutation(n)[: int(rng.integers(0, n + 1))]
            for _ in range(int(rng.integers(0, 30)))
        ]
        h = Hypergraph(n, tuple(edges))
        beta, b = rng.random(n), (rng.random(n) < 0.5).astype(float)
        oracle = max((abs(float(np.sum(beta[e] - b[e]))) for e in edges), default=0.0)
        assert edge_error(h, beta, b) == pytest.approx(oracle, abs=1e-12)


# --- beck_fiala --------------------------------------------------------------


def test_single_edge_half_weights():
    h = Hypergraph(4, ([0, 1, 2, 3],))
    res = beck_fiala_round(h, [0.5] * 4)
    # brute force: error 0 achievable; engine must stay within 2*Delta-1 = 1
    assert res.achieved_error <= 1.0
    assert res.guaranteed_bound == 1.0


def test_zero_preservation():
    h = Hypergraph(3, ([0, 1], [1, 2]))
    res = beck_fiala_round(h, [0.0, 0.0, 0.0])
    assert np.array_equal(res.b, [0, 0, 0])
    assert res.achieved_error == 0.0


def test_integral_fixpoint():
    h = Hypergraph(3, ([0, 1], [1, 2]))
    res = beck_fiala_round(h, [1.0, 0.0, 1.0])
    assert np.array_equal(res.b, [1, 0, 1])
    assert res.achieved_error == 0.0


def test_beta_outside_unit_interval_rejected():
    h = Hypergraph(2, ([0, 1],))
    with pytest.raises(ValueError):
        beck_fiala_round(h, [1.2, 0.5])
    with pytest.raises(ValueError):
        beck_fiala_round(h, [-0.1, 0.5])


def test_hard_guarantee_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        h = random_hypergraph(rng, n_max=80, m_max=120)
        beta = rng.random(h.n)
        beta[rng.random(h.n) < 0.25] = 0.0
        res = beck_fiala_round(h, beta)
        assert res.achieved_error <= max(2 * h.max_degree - 1, 0)
        assert np.all(res.b[np.asarray(beta) == 0.0] == 0)
        assert res.achieved_error == edge_error(h, beta, res.b)


def test_beck_fiala_trace_accounts_for_every_variable():
    rng = np.random.default_rng(31)
    for _ in range(20):
        h = random_hypergraph(rng, n_max=80, m_max=120)
        beta = rng.random(h.n)
        beta[rng.random(h.n) < 0.25] = 0.0
        trace = beck_fiala_round(h, beta).details
        assert tuple(trace) == TRACE_KEYS
        frozen = trace["lp_frozen"] + trace["final_snapped"]
        assert frozen == np.count_nonzero((beta > 1e-9) & (beta < 1.0 - 1e-9))


def brute_force_optimum(h, beta):
    beta = np.asarray(beta, dtype=float)
    free = np.flatnonzero(beta > 0)
    best = np.inf
    for bits in itertools.product((0, 1), repeat=len(free)):
        b = np.zeros(h.n)
        b[free] = bits
        best = min(best, edge_error(h, beta, b))
    return best


def test_never_better_than_brute_force_optimum():
    rng = np.random.default_rng(77)
    for _ in range(10):
        h = random_hypergraph(rng, n_max=10, m_max=12, delta_max=4, min_n=3)
        beta = rng.random(h.n)
        beta[rng.random(h.n) < 0.3] = 0.0
        res = beck_fiala_round(h, beta)
        assert res.achieved_error >= brute_force_optimum(h, beta) - 1e-12


def test_beck_fiala_bit_deterministic():
    rng = np.random.default_rng(13)
    h = random_hypergraph(rng, n_max=60, m_max=90)
    beta = rng.random(h.n)
    a = beck_fiala_round(h, beta)
    b = beck_fiala_round(h, beta)
    assert np.array_equal(a.b, b.b)
    assert a.achieved_error == b.achieved_error


def test_edgeless_bound_clamped():
    h = Hypergraph(1, ())
    res = beck_fiala_round(h, [0.7])
    assert res.b[0] in (0.0, 1.0)
    assert res.achieved_error == 0.0
    assert res.guaranteed_bound == 0.0


def test_empty_edges_degenerate():
    h = Hypergraph(3, ([], [0, 1, 2]))
    res = beck_fiala_round(h, [0.4, 0.5, 0.6])
    assert set(np.unique(res.b)) <= {0.0, 1.0}


# --- LP rows ------------------------------------------------------------------


def test_lp_jump_keeps_every_active_sum():
    # d=2 N=16 dyadic hypergraph: the step's system holds only the rows not
    # implied by their halves, yet its LP jump keeps every active edge's
    # floating sum, the implied rows included
    from conftest import ExplicitDyadic
    from nuqmc.balancing import _EngineState, _step
    from nuqmc.dyadic import build_scheme

    scheme, h = build_scheme(16, 2)
    ref = ExplicitDyadic(scheme)
    beta = np.random.default_rng(3).random(h.n)
    beta[np.random.default_rng(4).random(h.n) < 0.3] = 0.0
    st = _EngineState(h, beta)
    active = st.floating_counts() > h.max_degree
    h0, h1 = ref.halves.T
    split = active & (h0 >= 0)
    # the zeros leave some active edges with one active half: those keep their row
    assert np.any(split & (active[h0] != active[h1]))
    assert np.array_equal(h.implied(active), split & active[h0] & active[h1])
    sums = np.add.reduceat(st.x[ref.members], ref.ptr[:-1])
    _step(st, st.floating_counts())
    # the jump made progress, so it was not retried
    assert st.trace["lp_jumps"] == 1 and st.trace["lp_frozen"] > 0
    after = np.add.reduceat(st.x[ref.members], ref.ptr[:-1])
    assert np.abs(after - sums)[active].max() <= 1e-9
    assert st.trace["lp_implied_rows"] == np.count_nonzero(split & active[h0] & active[h1]) > 0
    assert st.trace["lp_rows"] + st.trace["lp_implied_rows"] == np.count_nonzero(active)


def walk_steps(h, beta):
    """Walks beck_fiala_round's loop on (h, beta) one step at a time and
    returns the number of steps.  Before every jump the kept rows are fewer
    than the floating variables, so the jump's vertex freezes at least one:
    every step is one jump, freezes a variable and holds every active
    edge's sum, the implied ones included."""
    st = _EngineState(h, beta)
    steps = 0
    while True:
        counts = st.floating_counts()
        active = counts > h.max_degree
        if not active.any():
            return steps
        f = int(st.floating.sum())
        assert np.count_nonzero(active & ~h.implied(active)) < f
        before, jumps = h.edge_sums(st.x)[active], st.trace["lp_jumps"]
        _step(st, counts)
        assert st.trace["lp_jumps"] == jumps + 1 and int(st.floating.sum()) < f
        assert np.abs(h.edge_sums(st.x)[active] - before).max() <= 1e-9
        steps += 1


def test_every_jump_freezes_a_variable_on_random_hypergraphs():
    # empty edges, and edges repeated: a repeat counts twice in Delta and in
    # the rows, so the kept rows still stay below the floating count
    rng = np.random.default_rng(26)
    steps = 0
    for _ in range(40):
        h = random_hypergraph(rng, n_max=80, m_max=120)
        repeats = h.edges[: int(rng.integers(1, h.m + 1))]
        h = Hypergraph(h.n, h.edges + (np.zeros(0, dtype=np.int64),) + repeats)
        beta = rng.random(h.n)
        beta[rng.random(h.n) < 0.25] = 0.0
        steps += walk_steps(h, beta)
    assert steps >= 20


@pytest.mark.parametrize(("d", "n_side"), [(1, 256), (2, 64), (3, 16)])
def test_every_jump_freezes_a_variable_on_dyadic_systems(d, n_side):
    _, h = build_scheme(n_side, d)
    for seed in range(3):
        rng = np.random.default_rng((d, seed))
        assert walk_steps(h, rng.random(h.n) * (rng.random(h.n) >= 0.3)) >= 1


def test_active_floating_matches_loop_oracle():
    # the nonzeros of the system of the marked edges over the floating
    # variables, in edge order, then member order, whatever edges are
    # marked or empty and variables are floating; the system is stored
    # column-wise with int32 indices and each column's rows ascending, the
    # arrays HiGHS takes
    from nuqmc.balancing import _EngineState

    rng = np.random.default_rng(12)
    for _ in range(30):
        h = random_hypergraph(rng, n_max=40, m_max=60)
        h = Hypergraph(h.n, h.edges + (np.zeros(0, dtype=np.int64),))
        st = _EngineState(h, rng.random(h.n))
        st.floating &= rng.random(h.n) < 0.7
        active = rng.random(h.m) < 0.5
        col = np.cumsum(st.floating) - 1
        pairs = [
            (r, col[v])
            for r, e in enumerate(np.flatnonzero(active))
            for v in h.edges[e]
            if st.floating[v]
        ]
        csc = st.system(active)
        assert csc.format == "csc" and csc.indptr.dtype == csc.indices.dtype == np.int32
        assert all(np.all(np.diff(csc.indices[a:b]) > 0) for a, b in itertools.pairwise(csc.indptr))
        mat = csc.tocsr().tocoo()
        assert mat.shape == (int(active.sum()), int(st.floating.sum()))
        assert np.all(mat.data == 1.0)
        assert list(zip(mat.row.tolist(), mat.col.tolist())) == [(int(r), int(c)) for r, c in pairs]


@pytest.mark.parametrize(("d", "n_side"), [(1, 16), (2, 8), (3, 4)])
def test_ones_over_the_floating_set_lie_in_the_kept_rows_span(d, n_side):
    # whenever an edge is active, the root cell holds every floating
    # variable and sum(x_f) is fixed by the kept rows: the all-ones vector
    # over the floating set is a combination of them, whatever cells are
    # zero and whatever variables are frozen
    _, h = build_scheme(n_side, d)
    rng = np.random.default_rng(40 + d)
    checked = 0
    for _ in range(40):
        beta = rng.random(h.n) * (rng.random(h.n) >= rng.uniform(0.0, 0.5))
        st = _EngineState(h, beta)
        st.floating &= rng.random(h.n) >= rng.uniform(0.0, 0.6)
        active = st.floating_counts() > h.max_degree
        if not active.any():
            continue
        f = int(st.floating.sum())
        assert np.any(h.edge_sums(st.floating.astype(np.int64)) == f)
        rows = st.system(active & ~h.implied(active)).toarray()
        w = np.linalg.lstsq(rows.T, np.ones(f), rcond=None)[0]
        assert np.abs(rows.T @ w - 1.0).max() <= 1e-9
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("spanning", [False, True])
def test_lp_objective_drops_the_half_only_under_a_spanning_edge(spanning, monkeypatch):
    # a general hypergraph with no edge over every floating variable hands
    # HiGHS the objective (0.5 - x_f) + wiggle bit for bit; one more edge
    # over all vertices makes the 0.5 a constant, and it is dropped.  The
    # jump reads the step's floating counts: edge sums are taken once per
    # step, once more where the walk ends by snapping, and once for the
    # error
    edges = [range(0, 6), range(6, 12), range(0, 12, 2), range(1, 12, 2), [0, 1, 6, 7]]
    if spanning:
        edges.append(range(12))
    h = Hypergraph(12, [list(e) for e in edges])
    beta = np.random.default_rng(8).uniform(0.1, 0.9, 12)
    seen, solve, sums, edge_sums = [], balancing._lp_vertex, [], h.edge_sums

    def spy(c, a_eq, b_eq, method):
        seen.append(c)
        return solve(c, a_eq, b_eq, method)

    def counted(vals):
        sums.append(vals)
        return edge_sums(vals)

    monkeypatch.setattr(balancing, "_lp_vertex", spy)
    monkeypatch.setattr(h, "edge_sums", counted)
    trace = beck_fiala_round(h, beta).details
    wiggle = 1e-3 * np.cos(0.7 * np.arange(12) + 0.3)
    assert seen and np.array_equal(seen[0], ((0.0 if spanning else 0.5) - beta) + wiggle)
    assert len(sums) == trace["lp_jumps"] + (trace["final_snapped"] > 0) + 1


# --- LP solve -----------------------------------------------------------------

L_REGION = OmegaRegion([([0.0, 0.0], [0.5, 1.0]), ([0.5, 0.0], [1.0, 0.5])])


LP_CONSTRUCTIONS = {
    "power-d1-N64": (ProductMeasure([PowerCdf(2.0)]), 64),
    "power-d2-N64": (ProductMeasure([PowerCdf(2.0)] * 2), 64),
    "L-N64": (RestrictionMeasure(L_REGION), 64),
    "power-d3-N16": (ProductMeasure([PowerCdf(2.0)] * 3), 16),
}


@functools.cache
def first_jumps(case):
    """(c, a_eq, b_eq, method, (x, iterations)) of the first two LP jumps
    of the seed-0 construction `case` of LP_CONSTRUCTIONS."""
    jumps, solve = [], balancing._lp_vertex

    def record(c, a_eq, b_eq, method):
        jumps.append((c, a_eq, b_eq, method, solve(c, a_eq, b_eq, method)))
        return jumps[-1][-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(balancing, "_lp_vertex", record)
        construct_point_set(*LP_CONSTRUCTIONS[case], ConstructionConfig(seed=0))
    assert jumps
    return jumps[:2]


@pytest.mark.parametrize("case", LP_CONSTRUCTIONS)
def test_lp_jump_solves_like_linprog_bitwise(case):
    # the direct HiGHS call keeps linprog's model, options and result
    # check: on the first two LP jumps of a construction it accepts exactly
    # when linprog reports success, and then with bitwise linprog's x.  A
    # scipy release that changes either front end fails here.
    from scipy.optimize import linprog

    jumps = first_jumps(case)
    for c, a_eq, b_eq, method, (x, iterations) in jumps:
        assert method == "simplex"
        ref = linprog(
            c, A_eq=a_eq.tocsr(), b_eq=b_eq, bounds=(0.0, 1.0), method="highs-ds",
            options={"presolve": False},
        )
        assert (x is not None) == (ref.status == 0)
        assert x is None or (np.array_equal(x, ref.x) and iterations == ref.nit)


@pytest.mark.parametrize("case", LP_CONSTRUCTIONS)
def test_lp_jump_without_the_half_reaches_the_same_vertex(case):
    # every construction jump has an edge over all floating variables (the
    # dyadic root cell), so its objective drops the 0.5 common to every
    # column; putting it back changes every objective value by one
    # constant, and the solve freezes the same variables at the same x
    jumps = first_jumps(case)
    for c, a_eq, b_eq, method, (x, _) in jumps:
        x_half, _ = balancing._lp_vertex(c + 0.5, a_eq, b_eq, method)
        assert x is not None and x_half is not None
        frozen = (x <= 1e-9) | (x >= 1.0 - 1e-9)
        assert np.array_equal(frozen, (x_half <= 1e-9) | (x_half >= 1.0 - 1e-9))
        assert np.abs(x - x_half).max() <= 1e-9


@pytest.mark.parametrize("fault", ["not optimal", "nan", "above one", "residual", "no progress"])
def test_refused_lp_jump_is_retried_once_on_the_other_method(fault, monkeypatch):
    # a run that linprog would report as failed, or a vertex that freezes
    # nothing, is solved once more from the current x by HiGHS's other
    # method, and the jump counts both runs; when that run fails too, the
    # step raises and names the system's size
    t, run = balancing._CHECK_TOL, balancing._run_highs
    methods = []

    def faulty(c, a_eq, b_eq, method):
        methods.append(method)
        if len(methods) > faults:
            return run(c, a_eq, b_eq, method)
        if fault == "not optimal":
            return None
        x, ax, objective, iterations = run(c, a_eq, b_eq, method)
        if fault == "nan":
            x[3] = np.nan
        elif fault == "above one":
            x[3] = 1.0 + 2 * t
        elif fault == "residual":
            ax[3] = b_eq[3] + 2 * t
        else:  # the start point: accepted, and nothing freezes
            x = st.x[st.floating]
            ax = a_eq @ x
        return x, ax, objective, iterations

    monkeypatch.setattr(balancing, "_run_highs", faulty)
    _, h = build_scheme(16, 2)
    beta = np.random.default_rng(3).uniform(0.1, 0.9, h.n)
    for faults in (1, 2):
        methods.clear()
        st = _EngineState(h, beta)
        active = st.floating_counts() > h.max_degree
        kept = int(np.count_nonzero(active & ~h.implied(active)))
        x0 = st.x.copy()
        if faults == 1:
            _step(st, st.floating_counts())
            assert 0 < st.trace["lp_frozen"] == h.n - int(st.floating.sum())
            assert np.abs(h.edge_sums(st.x - x0)[active]).max() <= 1e-9
        else:
            with pytest.raises(RuntimeError, match=f"{kept} kept rows over {h.n} floating"):
                _step(st, st.floating_counts())
            assert np.array_equal(st.x, x0) and st.trace["lp_frozen"] == 0
        assert methods == ["simplex", "ipm"] and st.trace["lp_jumps"] == 2


def test_lp_result_check_is_as_strict_as_linprogs():
    # scipy refuses only beyond t: an entry at 1 + t or -t and a residual
    # of t pass, the next float past each is refused
    t = balancing._CHECK_TOL
    a_eq = _EngineState(Hypergraph(3, ([0, 1, 2],)), np.full(3, 0.5)).system(np.array([True]))
    b_eq = np.zeros(1)  # so that the residual is -ax, exactly
    x = np.array([0.5, 0.5, 0.5])
    cases = [
        (np.array([1.0 + t, -t, 0.5]), b_eq, True),
        (np.array([np.nextafter(1.0 + t, 2.0), 0.0, 0.5]), b_eq, False),
        (np.array([0.5, np.nextafter(-t, -1.0), 1.0]), b_eq, False),
        (x, np.array([-t]), True),
        (x, np.array([np.nextafter(t, 1.0)]), False),
        (x, np.array([np.nan]), False),
    ]
    for got, ax, accepted in cases:
        run = lambda c, a, b, method, got=got, ax=ax: (got, ax, 0.0, 1)  # noqa: E731
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(balancing, "_run_highs", run)
            x, iterations = balancing._lp_vertex(np.zeros(3), a_eq, b_eq, "simplex")
            assert (x is not None) == accepted and iterations == 1


def test_lp_jump_without_the_highs_bindings_names_the_scipy_floor(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy", None)
    with pytest.raises(ImportError, match=r"scipy >= 1\.15"):
        beck_fiala_round(Hypergraph(4, ([0, 1, 2, 3],)), [0.5] * 4)
