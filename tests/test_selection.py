"""Rank-slab decomposition and certified subset selection."""

import numpy as np
import pytest

from nuqmc.discrepancy import _grid, discrete_discrepancy
from nuqmc.measures import PointSet, PowerCdf, ProductMeasure, uniform_measure
from nuqmc.selection import decompose, select_subset


def test_decompose_two_slabs_d1():
    z = PointSet([[0.1], [0.3], [0.6], [0.9]])
    dc = decompose(z, 2)
    assert np.array_equal(dc.boundaries[0], [0, 2, 4])
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
        cells = np.empty((k, d), dtype=np.int64)
        for s in range(d):
            ranks = np.empty(k, dtype=np.int64)
            ranks[np.argsort(z.points[:, s], kind="stable")] = np.arange(1, k + 1)
            cells[:, s] = np.searchsorted(dc.boundaries[s, 1:], ranks, side="left")
        counts = np.zeros((n,) * d, dtype=np.int64)
        np.add.at(counts, tuple(cells.T), 1)
        assert np.array_equal(dc.point_cells, cells)
        assert np.array_equal(dc.counts, counts)
        assert np.array_equal(dc.beta, counts * (n / (k + n)))


def test_decompose_byte_equal_to_stable_argsort():
    # slabs from the shared sort equal slabs from kind="stable" on tie-heavy
    # clouds (a k/8 grid with 0.0 and 1.0, duplicate rows), whether the
    # orders are passed in or computed by decompose itself
    rng = np.random.default_rng(8)
    rows = rng.random((30, 2))
    for pts, n in [
        (rng.integers(0, 9, size=(4096, 2)) / 8.0, 16),
        (rows[rng.integers(0, 30, size=2500)], 12),
        (rng.integers(0, 9, size=(3000, 1)) / 8.0, 40),
    ]:
        z = PointSet(pts)
        k, d = pts.shape
        cells = np.empty((k, d), dtype=np.int64)
        for s in range(d):
            cells[np.argsort(pts[:, s], kind="stable"), s] = (
                np.arange(1, k + 1) * n + k - 1
            ) // k - 1
        for dc in (decompose(z, n), decompose(z, n, _orders=_grid(pts)[2])):
            assert dc.point_cells.tobytes() == cells.tobytes()
            counts = np.bincount(
                np.ravel_multi_index(tuple(cells.T), (n,) * d), minlength=n**d
            ).reshape((n,) * d)
            assert dc.counts.tobytes() == counts.tobytes()
            assert dc.beta.tobytes() == (counts * (n / (k + n))).tobytes()


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
        np.minimum.at(first, tuple(dc.point_cells.T), np.arange(len(pts)))
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


def test_scaled_occupancy_in_unit_interval():
    rng = np.random.default_rng(5)
    for _ in range(10):
        k = int(rng.integers(16, 400))
        d = int(rng.integers(1, 3))
        n = int(rng.integers(1, int(np.sqrt(k)) + 1))
        z = PointSet(rng.random((k, d)))
        dc = decompose(z, n)
        assert 0.0 <= dc.beta.min() and dc.beta.max() <= 1.0
        sizes = np.diff(dc.boundaries, axis=1)
        assert np.all(np.abs(sizes - k / n) < 1.0)


def test_select_single_point_identity():
    z = PointSet([[0.37]])
    res = select_subset(z, 1)
    assert res.selected.n == 1
    assert np.array_equal(res.selected.points, z.points)
    assert discrete_discrepancy(res.selected, z) == 0.0


def test_select_equispaced_64_to_8():
    z = PointSet(((np.arange(64) + 0.5) / 64).reshape(-1, 1))
    res = select_subset(z, 8)
    assert res.selected.n == 8
    dd = discrete_discrepancy(res.selected, z)
    assert dd <= res.certificate["box_bound"] + 1e-9


def test_select_d2_certificate_and_cardinality():
    z = uniform_measure(2).sample(3, 1024)
    res = select_subset(z, 32)
    assert res.selected.n == 32
    assert abs(res.raw_selected_count - 32) <= res.certificate["g_bound"] + 1e-9
    dd = discrete_discrepancy(res.selected, z)
    assert dd <= res.certificate["box_bound"] + 1e-9


def test_selected_is_submultiset():
    # duplicated source points: selection must respect multiplicity
    base = uniform_measure(1).sample(1, 50).points
    z = PointSet(np.vstack([base, base[:14]]))
    res = select_subset(z, 8)
    assert res.selected.n == 8
    # indices are distinct positions into z
    assert len(np.unique(res.indices)) == 8
    dd = discrete_discrepancy(res.selected, z)  # also checks containment
    assert dd <= res.certificate["box_bound"] + 1e-9


def test_slab_boundary_bound():
    rng = np.random.default_rng(11)
    mu = ProductMeasure([PowerCdf(2.0), PowerCdf(0.5)])
    z = mu.sample(7, 900)
    n = 30
    dc = decompose(z, n)
    bound = 2 * dc.d * dc.k / n
    for _ in range(50):
        j = rng.integers(1, n, size=dc.d)
        grow = dc.prefix_count(tuple(j + 1)) - dc.prefix_count(tuple(j))
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
