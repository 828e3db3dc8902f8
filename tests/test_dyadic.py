"""Dyadic scheme geometry, prefix decomposition, and the rounding chain."""

import functools
import hashlib
import itertools

import numpy as np
import pytest

from conftest import (
    ExplicitDyadic,
    cell_halves,
    cell_members,
    dyadic_cells,
    edges_of,
    pin_message,
    tracemalloc_peak,
)
from nuqmc.balancing import beck_fiala_round
from nuqmc.discrepancy import BudgetExceededError
from nuqmc.dyadic import (
    build_scheme,
    reference_prefix_bound,
    max_prefix_error,
    prefix_cells,
    round_array,
)


def test_trivial_scheme():
    scheme, h = build_scheme(1, 1)
    assert scheme.n_hat == 1 and scheme.m == 0
    assert h.n == 1 and h.m == 1
    assert np.array_equal(edges_of(h)[0], [0])
    assert h.max_degree == 1


def test_scheme_n4_d1_by_hand():
    scheme, h = build_scheme(4, 1)
    assert scheme.n_hat == 4 and scheme.m == 2
    assert h.m == 7  # 4 singletons + 2 pairs + 1 quad = 2^(m+1) - 1
    edges = edges_of(h)
    sizes = sorted(len(e) for e in edges)
    assert sizes == [1, 1, 1, 1, 2, 2, 4]
    assert h.max_degree == 3
    edge_sets = {tuple(e.tolist()) for e in edges}
    assert {(0,), (1,), (2,), (3,), (0, 1), (2, 3), (0, 1, 2, 3)} == edge_sets


def test_scheme_n3_d2_product_structure():
    scheme, h = build_scheme(3, 2)
    assert scheme.n_hat == 4
    assert h.m == 49  # 7^2
    assert h.max_degree == 9  # (m+1)^2


def test_partition_property_every_level():
    scheme, h = build_scheme(8, 2)
    edges = edges_of(h)
    for level in itertools.product(range(scheme.m + 1), repeat=2):
        seen = np.zeros(h.n, dtype=int)
        blocks = [scheme.n_hat >> ms for ms in level]
        for j in itertools.product(*(range(b) for b in blocks)):
            e = edges[scheme.edge_id(level, j)]
            seen[e] += 1
        assert np.all(seen == 1), f"level {level} is not a partition"


@pytest.mark.parametrize("n_side, d", [(1, 1), (5, 1), (8, 2), (4, 3)])
def test_scheme_csr_matches_cell_oracle(n_side, d):
    # members_of lays the cells out like CSR: rows in edge order, each
    # cell's members ascending; every cell is the oracle's block
    scheme, h = build_scheme(n_side, d)
    rows, members = h.members_of(np.ones(h.m, dtype=bool))
    edges = edges_of(h)
    ids = []
    for level, j in dyadic_cells(scheme):
        e = scheme.edge_id(level, j)
        ids.append(e)
        assert np.array_equal(edges[e], cell_members(scheme, level, j))
    # edge ids run level by level, the blocks of a level in row-major order
    assert ids == list(range(h.m))
    assert np.all(np.diff(rows) >= 0)
    assert rows.size == members.size == h.n * scheme.degree


@pytest.mark.parametrize("n_side, d", [(1, 1), (5, 1), (8, 2), (4, 3)])
def test_scheme_halves_partition_every_cell(n_side, d):
    # a cell's halves are its children along the first axis with a nonzero
    # level; their members, merged, are the cell's, and `implied` marks an
    # active cell exactly when both of them are active
    scheme, h = build_scheme(n_side, d)
    edges = edges_of(h)
    halves = np.full((h.m, 2), -1)
    for level, j in dyadic_cells(scheme):
        e = scheme.edge_id(level, j)
        kids = [scheme.edge_id(*k) for k in cell_halves(level, j)]
        if not kids:  # a unit cell has none; `implied` never marks it
            continue
        halves[e] = kids
        merged = np.sort(np.concatenate([edges[k] for k in kids]))
        assert np.array_equal(merged, edges[e])
    h0, h1 = halves.T
    assert np.array_equal(h.implied(np.ones(h.m, dtype=bool)), h0 >= 0)
    rng = np.random.default_rng(n_side + d)
    for _ in range(20):
        active = rng.random(h.m) < 0.7
        assert np.array_equal(h.implied(active), active & (h0 >= 0) & active[h0] & active[h1])


def test_degree_property_exact():
    for n_side, d in ((4, 1), (8, 1), (4, 2), (2, 3)):
        scheme, h = build_scheme(n_side, d)
        deg = np.zeros(h.n, dtype=int)
        for e in edges_of(h):
            deg[e] += 1
        assert np.all(deg == scheme.degree)


def test_prefix_decomposition_property():
    scheme, h = build_scheme(16, 2)
    edges = edges_of(h)
    rng = np.random.default_rng(0)
    lattice_shape = (scheme.n_hat,) * 2
    for _ in range(100):
        prefix = tuple(int(v) for v in rng.integers(1, scheme.n_hat + 1, size=2))
        cells = prefix_cells(scheme, prefix)
        levels = [lv for lv, _ in cells]
        assert len(set(levels)) == len(levels)  # at most one cell per level vector
        covered = np.zeros(lattice_shape, dtype=int)
        for lv, j in cells:
            e = edges[scheme.edge_id(lv, j)]
            covered.ravel()[e] += 1
        expected = np.zeros(lattice_shape, dtype=int)
        expected[: prefix[0], : prefix[1]] = 1
        assert np.array_equal(covered, expected)  # disjoint and unions to the prefix


IMPLICIT_CASES = [(1, 1), (5, 1), (8, 2), (100, 2), (4, 3), (16, 3)]


@functools.cache
def _explicit(n_side, d):
    return ExplicitDyadic(build_scheme(n_side, d)[0])


def _implicit_case(n_side, d):
    """The implicit graph, its explicit reference, and beta with about 20 %
    zeros."""
    _, h = build_scheme(n_side, d)
    rng = np.random.default_rng(100 * n_side + d)
    beta = rng.random(h.n)
    beta[rng.random(h.n) < 0.2] = 0.0
    return h, _explicit(n_side, d), beta, rng


@pytest.mark.parametrize("n_side, d", IMPLICIT_CASES)
def test_implicit_graph_matches_explicit(n_side, d):
    # the three answers the engine reads, against the oracle-built CSR form
    h, ref, beta, rng = _implicit_case(n_side, d)
    assert (h.n, h.m, h.max_degree) == (ref.n, ref.m, ref.max_degree)
    counts = (beta > 0).astype(np.int64)
    assert np.array_equal(h.edge_sums(counts), ref.edge_sums(counts))
    assert np.allclose(h.edge_sums(beta), ref.edge_sums(beta), rtol=0, atol=1e-9 * h.n)
    for density in (0.0, 0.3, 1.0):
        active = rng.random(h.m) < density
        for got, want in zip(h.members_of(active), ref.members_of(active)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(h.implied(active), ref.implied(active))


@pytest.mark.parametrize("n_side, d", IMPLICIT_CASES)
def test_implicit_graph_rounds_like_explicit(n_side, d):
    # the LP gets the same rows and columns in the same order, so the walk
    # is the same; only the float error sum may differ in its last bits
    h, ref, beta, _ = _implicit_case(n_side, d)
    got, want = beck_fiala_round(h, beta), beck_fiala_round(ref, beta)
    assert np.array_equal(got.b, want.b)
    assert got.details == want.details
    assert got.guaranteed_bound == want.guaranteed_bound
    assert got.achieved_error == pytest.approx(want.achieved_error, rel=0, abs=1e-9)


@pytest.mark.parametrize("n_side, d", [(256, 2), (32, 3), (64, 3)])
def test_build_scheme_stores_no_member(n_side, d):
    # stored, the (m+1)^d * N^d member ids alone would take 42 MB at
    # (256, 2) and 719 MB at (64, 3); the implicit graph holds a few
    # entries per level vector
    assert tracemalloc_peak(build_scheme, n_side, d) < 2 * 2**20


def test_budget_refusal():
    with pytest.raises(BudgetExceededError):
        build_scheme(5000, 3)


def test_round_array_all_zero_and_all_one():
    b, cert = round_array(np.zeros((4, 4)))
    assert np.all(b == 0) and cert["measured_prefix_error"] == 0.0
    b, cert = round_array(np.ones((4, 4)))
    assert np.all(b == 1) and cert["measured_prefix_error"] == 0.0


def test_round_array_half_weights_d1():
    beta = np.full(8, 0.5)
    b, cert = round_array(beta)
    # guaranteed chain: (2*Delta-1)*(m+1) with Delta = m+1 = 4
    assert cert["guaranteed_prefix_bound"] == pytest.approx((2 * 4 - 1) * 4)
    assert cert["measured_prefix_error"] <= cert["prefix_bound"] + 1e-9
    assert cert["measured_prefix_error"] <= 4.0  # typical quality, well below chain
    # brute-force prefix oracle
    brute = max(abs(np.sum(b[:j] - beta[:j])) for j in range(1, 9))
    assert cert["measured_prefix_error"] == pytest.approx(brute, abs=1e-12)


def test_round_array_padding_and_zero_cells():
    beta = np.zeros((3, 5))
    beta[0, 0] = 0.4
    beta[2, 4] = 0.7
    b, cert = round_array(beta)
    assert b.shape == beta.shape
    assert np.all(b[beta == 0.0] == 0)


def test_round_array_bound_chain_random():
    rng = np.random.default_rng(8)
    for d, n_side in ((1, 16), (1, 64), (2, 8), (2, 16)):
        beta = rng.random((n_side,) * d)
        b, cert = round_array(beta)
        degree = cert["degree"]
        assert cert["prefix_bound"] == pytest.approx(cert["per_edge_error"] * degree)
        assert cert["measured_prefix_error"] <= cert["prefix_bound"] + 1e-9
        assert cert["prefix_bound"] <= cert["guaranteed_prefix_bound"] + 1e-9
        measured, witness = max_prefix_error(beta, b)
        assert measured == cert["measured_prefix_error"]
        assert len(witness) == d


def test_max_prefix_error_examples():
    v, w = max_prefix_error(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    assert v == pytest.approx(0.5) and w == (1,)
    beta = np.full((2, 2), 0.5)
    b = np.eye(2)
    v, w = max_prefix_error(beta, b)
    assert v == pytest.approx(0.5) and w == (1, 1)
    v, _ = max_prefix_error(b, b)
    assert v == 0.0
    with pytest.raises(ValueError):
        max_prefix_error(np.zeros(3), np.zeros(4))


def test_reference_constant_recorded():
    _, cert = round_array(np.random.default_rng(1).random(8))
    assert cert["reference_prefix_bound"] == pytest.approx(reference_prefix_bound(8, 1))


@pytest.mark.parametrize(
    "d, n_side, seed, digest",
    [
        (2, 64, 0, "dc47f3de0356ca2cdb8edee02f8829d931a21dbc5093085f40cb6ac185862633"),
        (2, 64, 1, "9a6a980b616d5b5fa01558c03401bd9445b0307d5f95719a03462f867d60ef7e"),
        (2, 64, 2, "2ac7aad2254ac149b2d228f813fbd0f8aaa75a6fb85fb6a9d65b2728d50afd15"),
        (3, 16, 0, "ea877fd14bd89da20ada69c637bfc661e2fbd7eb9283531f39de21697082cd64"),
    ],
    ids=["2-64-0", "2-64-1", "2-64-2", "3-16-0"],
)
def test_round_array_output_pinned(d, n_side, seed, digest):
    # rounded arrays pinned to the output of the LP-jump walk: two jumps,
    # then the last few variables snap
    beta = np.random.default_rng(seed).random((n_side,) * d)
    b, cert = round_array(beta)
    assert hashlib.sha256(b.tobytes()).hexdigest() == digest, pin_message("rounded array")
    trace = cert["engine_trace"]
    assert trace["lp_jumps"] == 2
    assert trace["lp_frozen"] + trace["final_snapped"] == beta.size


@pytest.mark.parametrize("shape, value", [((32, 32), 1 / 32), ((8, 8, 8), 1 / 64)])
def test_round_array_uniform_beta_prefix_error(shape, value):
    # keeping every active edge sum does not keep the prefix error small:
    # the small inactive edges can still pile it up, and uniform beta is
    # where that showed (31 on 32 x 32; every 8^3 cell rounded to 0, error 8)
    _, cert = round_array(np.full(shape, value))
    assert cert["measured_prefix_error"] <= 4
