"""Beck-Fiala rounding: hard 2*Delta - 1 guarantee, zero preservation,
determinism, and the engine's steps."""

import itertools

import numpy as np
import pytest

from nuqmc.balancing import (
    TRACE_KEYS,
    Hypergraph,
    beck_fiala_round,
    edge_error,
)


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
    # unsorted edges are sorted and empty edges kept; CSR input runs the
    # same validation as an edge list
    h = Hypergraph(5, ([3, 1], [], [4, 0, 2], [2]))
    assert h.ptr.tolist() == [0, 2, 2, 5, 6]
    assert h.members.tolist() == [1, 3, 0, 2, 4, 2]
    assert h.to_dict() == {"n": 5, "edges": [[1, 3], [], [0, 2, 4], [2]]}
    assert h.max_degree == 2
    c = Hypergraph(5, csr=([0, 2, 2, 5, 6], [3, 1, 4, 0, 2, 2]))
    assert np.array_equal(c.ptr, h.ptr) and np.array_equal(c.members, h.members)
    # a vertex shared by neighbouring edges is not a repeat
    assert Hypergraph(3, ([0, 2], [2], [2, 1])).max_degree == 3
    with pytest.raises(ValueError, match="repeat"):
        Hypergraph(5, ([1], [0, 2, 0]))
    with pytest.raises(ValueError, match="repeat"):
        Hypergraph(5, csr=([0, 2], [1, 1]))
    with pytest.raises(ValueError, match="outside"):
        Hypergraph(5, ([1, 5],))
    with pytest.raises(ValueError, match="outside"):
        Hypergraph(5, ([], [2, -1]))
    with pytest.raises(ValueError, match="csr"):
        Hypergraph(5, csr=([0, 3], [1, 2]))


def test_hypergraph_refuses_non_integer_ids():
    # a float id is refused, not truncated: ([0.7, 1.9],) would build [0, 1]
    for bad in (
        dict(edges=([0.7, 1.9],)),
        dict(edges=([0, 2.5], [1])),
        dict(edges=([1.0],)),
        dict(csr=([0, 2], [0.5, 1.7])),
        dict(csr=([0.0, 2.0], [0, 1])),
    ):
        with pytest.raises(ValueError, match="integers"):
            Hypergraph(3, **bad)
    # empty edges read as float arrays and stay empty
    assert Hypergraph(3, ([], [2, 0])).to_dict() == {"n": 3, "edges": [[], [0, 2]]}
    assert Hypergraph(3, csr=([0, 0], [])).m == 1


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
        frozen = trace["lp_frozen"] + trace["null_frozen"] + trace["final_snapped"]
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


def test_null_step_preserves_active_sums():
    # white-box check of the progress-guard path: one explicit null move
    from nuqmc.balancing import _EngineState, _null_step

    h = Hypergraph(5, ([0, 1, 2, 3, 4], [0, 1, 2], [2, 3, 4]))
    beta = np.array([0.5, 0.4, 0.6, 0.3, 0.7])
    st = _EngineState(h, beta)
    active = st.active_mask()
    assert active.tolist() == [True, False, False]  # only the 5-edge exceeds Delta=3
    before = st.x[h.edges[0]].sum()
    n_floating = int(st.floating.sum())
    _null_step(st, active)
    assert st.x[h.edges[0]].sum() == pytest.approx(before, abs=1e-9)
    assert int(st.floating.sum()) < n_floating
    assert st.trace["null_steps"] == 1
    assert st.trace["null_frozen"] == n_floating - int(st.floating.sum())


def test_null_step_on_a_dyadic_system():
    # the sparse null step at scale: the initial state of the d=2 N=64
    # dyadic system has 4096 floating variables and 769 active rows
    from nuqmc.balancing import _EngineState, _null_step
    from nuqmc.dyadic import build_scheme

    _, h = build_scheme(64, 2)
    st = _EngineState(h, np.random.default_rng(5).uniform(0.1, 0.9, h.n))
    active = st.active_mask()
    assert (int(st.floating.sum()), int(active.sum())) == (4096, 769)
    before = h.edge_sums(st.x)[active]
    _null_step(st, active)
    after = h.edge_sums(st.x)[active]
    assert np.abs(after - before).max() <= 1e-9
    assert int(st.floating.sum()) < 4096
    assert st.trace["null_frozen"] == 4096 - int(st.floating.sum())


def test_empty_edges_degenerate():
    h = Hypergraph(3, ([], [0, 1, 2]))
    res = beck_fiala_round(h, [0.4, 0.5, 0.6])
    assert set(np.unique(res.b)) <= {0.0, 1.0}


# --- LP rows ------------------------------------------------------------------


def test_lp_jump_keeps_every_active_sum():
    # d=2 N=16 dyadic hypergraph: the LP holds only the rows not implied by
    # their halves, yet every active edge keeps its floating sum, the
    # implied rows included
    from conftest import ExplicitDyadic
    from nuqmc.balancing import _EngineState, _lp_round
    from nuqmc.dyadic import build_scheme

    scheme, h = build_scheme(16, 2)
    ref = ExplicitDyadic(scheme)
    beta = np.random.default_rng(3).random(h.n)
    beta[np.random.default_rng(4).random(h.n) < 0.3] = 0.0
    st = _EngineState(h, beta)
    active = st.active_mask()
    h0, h1 = ref.halves.T
    split = active & (h0 >= 0)
    # the zeros leave some active edges with one active half: those keep their row
    assert np.any(split & (active[h0] != active[h1]))
    assert np.array_equal(h.implied(active), split & active[h0] & active[h1])
    sums = np.add.reduceat(st.x[ref.members], ref.ptr[:-1])
    assert _lp_round(st, active)
    after = np.add.reduceat(st.x[ref.members], ref.ptr[:-1])
    assert np.abs(after - sums)[active].max() <= 1e-9
    assert st.trace["lp_implied_rows"] == np.count_nonzero(split & active[h0] & active[h1]) > 0
    assert st.trace["lp_rows"] + st.trace["lp_implied_rows"] == np.count_nonzero(active)


def test_active_floating_matches_loop_oracle():
    # the nonzeros of the active system in edge order, then member order,
    # whatever edges are active or empty and variables are floating
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
        rows, cols = st.active_floating(active)
        assert list(zip(rows.tolist(), cols.tolist())) == [(int(r), int(c)) for r, c in pairs]
