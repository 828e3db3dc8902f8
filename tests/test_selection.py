"""Rank-slab decomposition and certified subset selection."""

import numpy as np
import pytest

from conftest import prefix_count
from nuqmc.discrepancy import discrete_discrepancy
from nuqmc.measures import PointSet, PowerCdf, ProductMeasure, uniform_measure
from nuqmc import selection
from nuqmc.selection import _slab_of_rank, decompose, select_subset


def stable_cells(pts, n):
    """(K, d) 0-based slab of every point on every axis, from a stable
    argsort per axis: rank r falls in slab ceil(r*N/K) - 1."""
    k, d = pts.shape
    cells = np.empty((k, d), dtype=np.int64)
    for s in range(d):
        cells[np.argsort(pts[:, s], kind="stable"), s] = (np.arange(1, k + 1) * n + k - 1) // k - 1
    return cells


def test_decompose_two_slabs_d1():
    z = PointSet([[0.1], [0.3], [0.6], [0.9]])
    dc = decompose(z, 2)
    assert np.array_equal(np.cumsum(dc.counts), [2, 4])  # slabs cut at 0, 2, 4
    assert np.allclose(dc.beta, [2 / 3, 2 / 3])
    assert dc.counts.sum() == 4


def test_decompose_identical_points_spread_by_rank():
    z = PointSet([[0.5, 0.5]] * 4)
    dc = decompose(z, 2)
    assert dc.beta[0, 0] == pytest.approx(2 / 3)
    assert dc.beta[1, 1] == pytest.approx(2 / 3)
    assert dc.beta[0, 1] == 0.0 and dc.beta[1, 0] == 0.0
    assert dc.beta.max() <= 1.0


def test_decompose_slabs_match_boundary_search():
    # the closed-form slab index equals the search over boundaries
    # floor(i*K/N), also when N does not divide K
    rng = np.random.default_rng(7)
    for k, n, d in [(4, 2, 1), (10, 3, 1), (17, 4, 2), (50, 7, 2), (1000, 31, 1), (343, 6, 3)]:
        z = PointSet(rng.integers(0, 5, size=(k, d)) / 4.0)  # many ties
        dc = decompose(z, n)
        boundaries = np.arange(n + 1) * k // n
        cells = np.empty((k, d), dtype=np.int64)
        closed_form = np.empty((k, d), dtype=np.int64)
        for s in range(d):
            order = np.argsort(z.points[:, s], kind="stable")
            ranks = np.empty(k, dtype=np.int64)
            ranks[order] = np.arange(1, k + 1)
            cells[:, s] = np.searchsorted(boundaries[1:], ranks, side="left")
            closed_form[order, s] = _slab_of_rank(k, n)
        counts = np.zeros((n,) * d, dtype=np.int64)
        np.add.at(counts, tuple(cells.T), 1)
        assert np.array_equal(closed_form, cells)
        assert np.array_equal(dc.counts, counts)
        assert np.array_equal(dc.beta, counts * (n / (k + n)))


def test_decompose_byte_equal_to_stable_argsort():
    # slabs from the shared sort equal slabs from kind="stable" on tie-heavy
    # clouds (a k/8 grid with 0.0 and 1.0, duplicate rows), whether
    # decompose sorts z or reads the sort z kept from the call before: every
    # point lands in its stable-argsort cell, which fixes the counts and
    # representatives
    # At d=1 the slabs are read off stretches of axis-0 positions: K not a
    # multiple of N, K = N^2, N = 1 and tied coordinates
    rng = np.random.default_rng(8)
    rows = rng.random((30, 2))
    for pts, n in [
        (rng.integers(0, 9, size=(4096, 2)) / 8.0, 16),
        (rows[rng.integers(0, 30, size=2500)], 12),
        (rng.integers(0, 9, size=(3000, 1)) / 8.0, 40),
        (rng.random((1003, 1)), 17),
        (rng.random((144, 1)), 12),
        (rng.integers(0, 3, size=(50, 1)) / 2.0, 7),
        (rng.random((5, 1)), 1),
        (np.full((1, 1), 0.5), 1),
    ]:
        z = PointSet(pts)
        k, d = pts.shape
        cells = stable_cells(pts, n)
        first = np.full((n,) * d, k, dtype=np.int64)
        np.minimum.at(first, tuple(cells.T), np.arange(k))
        for dc in (decompose(z, n), decompose(z, n)):
            assert dc.first.tobytes() == first.tobytes()
            counts = np.bincount(
                np.ravel_multi_index(tuple(cells.T), (n,) * d), minlength=n**d
            ).reshape((n,) * d)
            assert dc.counts.tobytes() == counts.tobytes()
            assert dc.beta.tobytes() == (counts * (n / (k + n))).tobytes()
            assert (dc.first.dtype, dc.counts.dtype) == (first.dtype, counts.dtype)
            assert dc.first.shape == dc.counts.shape == (n,) * d


def test_decompose_first_is_lowest_index_per_cell():
    # the representatives, found in axis-0 order, are every cell's lowest
    # input index (K for an empty cell), also among ties
    rng = np.random.default_rng(9)
    for pts, n in [
        (rng.integers(0, 9, size=(2000, 2)) / 8.0, 12),
        (rng.random((1500, 3)), 6),
        (rng.integers(0, 5, size=(900, 1)) / 4.0, 30),
    ]:
        dc = decompose(PointSet(pts), n)
        first = np.full((n,) * pts.shape[1], len(pts), dtype=np.int64)
        np.minimum.at(first, tuple(stable_cells(pts, n).T), np.arange(len(pts)))
        assert np.array_equal(dc.first, first)


def test_decompose_single_target():
    z = uniform_measure(2).sample(0, 9)
    dc = decompose(z, 1)
    assert dc.beta.shape == (1, 1)
    assert dc.beta[0, 0] == pytest.approx(9 / 10)


def test_decompose_hypothesis_enforced():
    z = uniform_measure(1).sample(0, 10)
    with pytest.raises(ValueError, match="sqrt"):
        decompose(z, 4)  # 4 > sqrt(10)
    decompose(z, 3)  # 3 <= sqrt(10)


def test_selection_takes_n_as_the_construction_does():
    # N is refused, not truncated or cast, unless it is an integer >= 1; a
    # numpy integer selects the rows an int does
    z = uniform_measure(2).sample(3, 4096)
    for n in (16.0, True, False, 0, -4, "16"):
        for call in (select_subset, decompose):
            with pytest.raises(ValueError, match="N="):
                call(z, n)
    a, b = select_subset(z, np.int64(16)), select_subset(z, 16)
    assert np.array_equal(a.indices, b.indices)
    assert a.certificate == b.certificate and type(a.certificate["n"]) is int


def test_scaled_occupancy_in_unit_interval():
    rng = np.random.default_rng(5)
    for _ in range(10):
        k = int(rng.integers(16, 400))
        d = int(rng.integers(1, 3))
        n = int(rng.integers(1, int(np.sqrt(k)) + 1))
        z = PointSet(rng.random((k, d)))
        dc = decompose(z, n)
        assert 0.0 <= dc.beta.min() and dc.beta.max() <= 1.0
        for axis in range(d):  # slab sizes: the counts summed over the other axes
            sizes = dc.counts.sum(axis=tuple(a for a in range(d) if a != axis))
            assert np.all(np.abs(sizes - k / n) < 1.0)


def test_select_single_point_identity():
    z = PointSet([[0.37]])
    res = select_subset(z, 1)
    assert res.selected.n == 1
    assert np.array_equal(res.selected.points, z.points)
    assert discrete_discrepancy(z, res.indices) == 0.0


def test_select_equispaced_64_to_8():
    z = PointSet(((np.arange(64) + 0.5) / 64).reshape(-1, 1))
    res = select_subset(z, 8)
    assert res.selected.n == 8
    dd = discrete_discrepancy(z, res.indices)
    assert dd <= res.certificate["box_bound"] + 1e-9


def test_select_d2_certificate_and_cardinality():
    z = uniform_measure(2).sample(3, 1024)
    res = select_subset(z, 32)
    assert res.selected.n == 32
    assert abs(res.raw_selected_count - 32) <= res.certificate["g_bound"] + 1e-9
    dd = discrete_discrepancy(z, res.indices)
    assert dd <= res.certificate["box_bound"] + 1e-9


def test_selected_is_submultiset():
    # duplicated source points: selection must respect multiplicity
    base = uniform_measure(1).sample(1, 50).points
    z = PointSet(np.vstack([base, base[:14]]))
    res = select_subset(z, 8)
    assert res.selected.n == 8
    # indices are distinct positions into z
    assert len(np.unique(res.indices)) == 8
    dd = discrete_discrepancy(z, res.indices)  # also checks the rows are distinct
    assert dd <= res.certificate["box_bound"] + 1e-9


def test_slab_boundary_bound():
    rng = np.random.default_rng(11)
    mu = ProductMeasure([PowerCdf(2.0), PowerCdf(0.5)])
    z = mu.sample(7, 900)
    n = 30
    dc = decompose(z, n)
    bound = 2 * z.dim * z.n / n
    for _ in range(50):
        j = rng.integers(1, n, size=z.dim)
        grow = prefix_count(dc.counts, j + 1) - prefix_count(dc.counts, j)
        assert grow <= bound + 1e-9


def test_selection_deterministic():
    z = uniform_measure(2).sample(9, 400)
    a = select_subset(z, 20)
    b = select_subset(z, 20)
    assert np.array_equal(a.indices, b.indices)


def test_certificate_chain_fields():
    z = uniform_measure(1).sample(2, 256)
    res = select_subset(z, 16)
    c = res.certificate
    assert c["g_bound"] == pytest.approx(c["prefix_error"] + 1.0)
    assert c["q_bound"] == pytest.approx(2 * c["g_bound"])
    assert c["box_bound"] == pytest.approx(6 * c["prefix_error"] + 4 * c["d"] + 6)
    assert c["reference_box_bound"] > 0
    assert c["slab_boundary_bound"] == pytest.approx(2 * 1 * 256 / 16)


@pytest.mark.parametrize("drop", [1, 3])
def test_cardinality_fix_adds_lowest_unselected_indices(drop, monkeypatch):
    # a rounding with fewer than N ones: the selection adds the lowest
    # unselected indices, which lie in [0, N)
    real = selection.round_array

    def fewer_ones(beta):
        b, cert = real(beta)
        b = b.copy()
        b.ravel()[np.flatnonzero(b.ravel() == 1)[:drop]] = 0
        return b, {**cert, "measured_prefix_error": max(cert["measured_prefix_error"], drop)}

    monkeypatch.setattr(selection, "round_array", fewer_ones)
    for z, n in [(uniform_measure(1).sample(3, 1024), 32), (uniform_measure(2).sample(4, 900), 9)]:
        res = select_subset(z, n)
        reps = np.sort(decompose(z, n).first[fewer_ones(decompose(z, n).beta)[0] == 1])
        assert res.raw_selected_count == reps.size < n
        lowest = np.setdiff1d(np.arange(z.n), reps)[: n - reps.size]
        assert np.array_equal(res.indices, np.sort(np.concatenate([reps, lowest])))
