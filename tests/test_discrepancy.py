"""Exact scan, deterministic bracket, and discrete two-set discrepancy."""

import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import naive_star_discrepancy
from nuqmc import discrepancy
from nuqmc.discrepancy import (
    BudgetExceededError,
    _count_blocks,
    _flat_ranks,
    _grid,
    _merge_axes,
    bracket_star_discrepancy,
    discrete_discrepancy,
    exact_star_discrepancy,
    local_star_discrepancy,
)
from nuqmc.measures import (
    DiscreteMeasure,
    PointSet,
    PowerCdf,
    ProductMeasure,
    OmegaRegion,
    ProductExtensionMeasure,
    RestrictionMeasure,
    UniformCdf,
    uniform_measure,
)


def test_single_midpoint():
    rep = exact_star_discrepancy(PointSet([[0.5]]), uniform_measure(1))
    assert rep.value == pytest.approx(0.5, abs=1e-15)
    assert rep.mode == "exact"


def test_quarter_points():
    rep = exact_star_discrepancy(PointSet([[0.25], [0.75]]), uniform_measure(1))
    assert rep.value == pytest.approx(0.25, abs=1e-15)


def test_open_variant_at_upper_corner():
    # single point at (1,1): open limit pairs count 0 with mass 1
    rep = exact_star_discrepancy(PointSet([[1.0, 1.0]]), uniform_measure(2))
    assert rep.value == pytest.approx(1.0, abs=1e-15)
    assert not rep.witness.closed


def test_centered_lattice_optimum():
    n = 4
    ps = PointSet(((2 * np.arange(1, n + 1) - 1) / (2 * n)).reshape(-1, 1))
    rep = exact_star_discrepancy(ps, uniform_measure(1))
    assert rep.value == pytest.approx(1 / (2 * n), abs=1e-15)


def test_all_points_at_origin():
    rep = exact_star_discrepancy(PointSet([[0.0, 0.0]] * 3), uniform_measure(2))
    assert rep.value == pytest.approx(1.0, abs=1e-15)


def test_witness_reproduces_value():
    rng = np.random.default_rng(3)
    mu = ProductMeasure([PowerCdf(2.0), PowerCdf(0.7)])
    ps = PointSet(rng.random((20, 2)))
    rep = exact_star_discrepancy(ps, mu)
    assert local_star_discrepancy(ps, mu, rep.witness) == rep.value


def check_matches_naive_oracle_small():
    rng = np.random.default_rng(11)
    for trial in range(12):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(1, 17))
        ps = PointSet(rng.random((n, d)))
        mu = [
            uniform_measure(d),
            ProductMeasure([PowerCdf(float(rng.uniform(0.3, 3.0))) for _ in range(d)]),
            DiscreteMeasure(PointSet(rng.random((int(rng.integers(1, 12)), d)))),
        ][trial % 3]
        fast = exact_star_discrepancy(ps, mu).value
        slow = naive_star_discrepancy(ps, mu)
        assert fast == pytest.approx(slow, abs=1e-12)


def test_matches_naive_oracle_small():
    check_matches_naive_oracle_small()


def tied_points(rng, n, d):
    """Coordinates snapped to k/8, duplicate rows, and the corners 0.0 and 1.0
    present on every axis."""
    pts = rng.integers(0, 9, size=(n, d)) / 8.0
    pts[0] = 0.0
    pts[-1] = 1.0
    return np.concatenate([pts, pts[: max(1, n // 3)]])


def check_matches_naive_oracle_with_ties():
    rng = np.random.default_rng(21)
    for d in (1, 2, 3):
        for trial in range(6):
            ps = PointSet(tied_points(rng, int(rng.integers(2, 9 if d < 3 else 6)), d))
            mu = [
                uniform_measure(d),
                ProductMeasure([PowerCdf(float(rng.uniform(0.3, 3.0))) for _ in range(d)]),
                # atoms at odd multiples of 1/16: off the points' k/8 grid
                DiscreteMeasure(PointSet((2 * rng.integers(0, 8, size=(5, d)) + 1) / 16.0)),
            ][trial % 3]
            rep = exact_star_discrepancy(ps, mu)
            assert rep.value == pytest.approx(naive_star_discrepancy(ps, mu), abs=1e-12)
            assert local_star_discrepancy(ps, mu, rep.witness) == rep.value


def test_matches_naive_oracle_with_ties():
    check_matches_naive_oracle_with_ties()


def test_discrete_measure_with_atoms_on_points():
    # point set == atoms: discrepancy must vanish (open limit pairs strict
    # count with strict mass)
    pts = PointSet([[0.2, 0.4], [0.6, 0.8], [0.2, 0.4]])
    mu = DiscreteMeasure(pts)
    assert exact_star_discrepancy(pts, mu).value == 0.0


def test_discrete_measure_atoms_off_point_grid():
    # the sup can sit at corners mixing point and atom coordinates; the grid
    # must include the measure's atoms (closed box at (0, 1) here)
    sub = PointSet([[0.5, 0.5], [0.5, 1.0], [1.0, 0.5]])
    full = PointSet(
        [[1, 1], [0.5, 0.5], [0.5, 0.5], [1, 0], [0, 0.5], [0, 1], [0, 1],
         [0, 1], [0.5, 0.5], [1, 0.5], [1, 0], [0.5, 1]]
    )
    mu = DiscreteMeasure(full)
    rep = exact_star_discrepancy(sub, mu)
    assert rep.value == pytest.approx(1.0 / 3.0, abs=1e-15)  # |0 - 4/12| at (0,1)
    assert discrete_discrepancy(full, [1, 11, 9]) == pytest.approx(1.0, abs=1e-15)


def test_budget_refusal():
    rng = np.random.default_rng(0)
    ps = PointSet(rng.random((200, 2)))
    with pytest.raises(BudgetExceededError):
        exact_star_discrepancy(ps, uniform_measure(2), budget=100)


def test_permutation_invariance():
    rng = np.random.default_rng(5)
    pts = rng.random((30, 2))
    mu = uniform_measure(2)
    a = exact_star_discrepancy(PointSet(pts), mu).value
    b = exact_star_discrepancy(PointSet(pts[rng.permutation(30)]), mu).value
    assert a == b


# --- bracket ---------------------------------------------------------------


def bracket_measure(family, d, rng):
    """One measure of every family in dimension d; the atoms sit on a k/4
    grid that includes coordinate 0."""
    atoms = PointSet(np.concatenate([rng.integers(0, 5, size=(12, d)) / 4.0, np.zeros((2, d))]))
    if family == "power":
        return ProductMeasure([PowerCdf(float(rng.uniform(0.3, 3.0))) for _ in range(d)])
    if family == "restriction":
        lo, hi = np.zeros((2, d)), np.ones((2, d))
        hi[0, 0] = hi[1, -1] = 0.5  # an L region when d >= 2
        return RestrictionMeasure(OmegaRegion(list(zip(lo, hi))))
    if family == "discrete":
        return DiscreteMeasure(atoms)
    return ProductExtensionMeasure(DiscreteMeasure(PointSet(atoms.points[:, 1:])))


@pytest.mark.parametrize(
    "family, d",
    [(f, d) for f in ("power", "restriction", "discrete", "extension") for d in (1, 2, 3)
     if (f, d) != ("extension", 1)],
)
def test_bracket_contains_exact(family, d):
    # lower <= exact <= upper on every grid size, G = 1 included, for clouds
    # of the measure (ties and zeros for the atom sets) and uniform points;
    # the lower end is the local discrepancy of its witness
    rng = np.random.default_rng(10 * d + len(family))
    mu = bracket_measure(family, d, rng)
    for n in (1, 9, 60):
        for ps in (mu.sample(n, n), PointSet(rng.random((n, d)))):
            exact = exact_star_discrepancy(ps, mu).value
            for g in (1, 2, 3, 8, 64):
                rep = bracket_star_discrepancy(ps, mu, g)
                assert rep.value <= exact <= rep.upper, (n, g)
                assert local_star_discrepancy(ps, mu, rep.witness) == rep.value
                assert rep.mode == "bracket" and rep.witness.closed


def test_bracket_grid_follows_g_budget_and_axis_length():
    ps = PointSet(np.random.default_rng(3).random((50, 2)))
    mu = uniform_measure(2)
    assert bracket_star_discrepancy(ps, mu, 16).grid == (16, 16)
    # the largest G with G^2 * 2 <= budget
    assert bracket_star_discrepancy(ps, mu, budget=199).grid == (9, 9)
    assert bracket_star_discrepancy(ps, mu, budget=200).grid == (10, 10)
    # at most the critical grid's corners: 50 distinct values and 1.0
    assert bracket_star_discrepancy(ps, mu).grid == (51, 51)
    tied = PointSet(np.array([[0.5, 0.25], [0.5, 0.75], [0.5, 1.0]]))
    assert bracket_star_discrepancy(tied, mu).grid == (2, 3)


def test_bracket_refused_before_any_mass():
    class NoMass(ProductMeasure):
        def mass_on_grid(self, axes, closed=True):
            raise AssertionError("mass evaluated before the budget check")

    ps = PointSet(np.random.default_rng(0).random((200, 3)))
    with pytest.raises(BudgetExceededError):
        bracket_star_discrepancy(ps, NoMass([UniformCdf()] * 3), budget=2)


def test_bracket_refuses_g_below_one(monkeypatch):
    # g=0 used to drop the cap (a 51-corner grid for 50 points) and g=-1 to
    # raise IndexError; both are refused before the points are sorted
    def no_sort(*args):
        raise AssertionError("points sorted before g was checked")

    monkeypatch.setattr(discrepancy, "_grid", no_sort)
    ps = PointSet(np.random.default_rng(3).random((50, 2)))
    for g in (0, -1):
        with pytest.raises(ValueError, match="g must be >= 1"):
            bracket_star_discrepancy(ps, uniform_measure(2), g)


@pytest.mark.parametrize("block_cells", [1, 200])
def test_bracket_bit_identical_in_row_blocks(block_cells, monkeypatch):
    # one row per block, or a few rows with a ragged last block: both ends
    # and the witness are those of the whole grid
    rng = np.random.default_rng(17)
    cases = [
        (PointSet(rng.random((3000, 2))), ProductMeasure([PowerCdf(2.0)] * 2), 64),
        (PointSet(tied_points(rng, 40, 3)), bracket_measure("discrete", 3, rng), 5),
        (PointSet(rng.random((500, 1))), uniform_measure(1), 100),
    ]
    whole = [bracket_star_discrepancy(ps, mu, g) for ps, mu, g in cases]
    monkeypatch.setattr(discrepancy, "_BLOCK_CELLS", block_cells)
    for (ps, mu, g), ref in zip(cases, whole):
        rep = bracket_star_discrepancy(ps, mu, g)
        assert (rep.value, rep.upper, rep.grid) == (ref.value, ref.upper, ref.grid)
        assert rep.witness.corner.tolist() == ref.witness.corner.tolist()


# --- discrete two-set discrepancy ------------------------------------------


def naive_discrete_discrepancy(subset, full):
    # union grid: both counting functions are piecewise constant on it
    axes = []
    for s in range(subset.dim):
        vals = sorted(
            set(subset.points[:, s].tolist())
            | set(full.points[:, s].tolist())
            | {1.0}
        )
        axes.append(vals)
    ratio = subset.n / full.n
    best = 0.0
    for corner in itertools.product(*axes):
        c = np.array(corner)
        for closed in (True, False):
            if closed:
                cx = sum(1 for p in subset.points if np.all(p <= c))
                cz = sum(1 for p in full.points if np.all(p <= c))
            else:
                cx = sum(1 for p in subset.points if np.all(p < c))
                cz = sum(1 for p in full.points if np.all(p < c))
            best = max(best, abs(cx - ratio * cz))
    return best


def test_discrete_discrepancy_identity():
    rng = np.random.default_rng(6)
    z = PointSet(rng.random((16, 2)))
    assert discrete_discrepancy(z, np.arange(16)) == 0.0


def test_discrete_discrepancy_example():
    full = PointSet([[0.2], [0.4], [0.6], [0.8]])
    assert discrete_discrepancy(full, [0, 2]) == pytest.approx(0.5, abs=1e-15)
    assert naive_discrete_discrepancy(PointSet([[0.2], [0.6]]), full) == pytest.approx(0.5, abs=1e-15)


def check_discrete_discrepancy_matches_naive():
    rng = np.random.default_rng(9)
    for _ in range(8):
        d = int(rng.integers(1, 3))
        k = int(rng.integers(4, 20))
        z = PointSet(rng.random((k, d)))
        n = int(rng.integers(1, k + 1))
        rows = rng.choice(k, size=n, replace=False)
        assert discrete_discrepancy(z, rows) == pytest.approx(
            naive_discrete_discrepancy(PointSet(z.points[rows]), z), abs=1e-12
        )


def test_discrete_discrepancy_matches_naive():
    check_discrete_discrepancy_matches_naive()


def check_discrete_discrepancy_matches_naive_with_ties():
    # duplicate rows in both sets, snapped coordinates, corners at 0.0 and 1.0
    rng = np.random.default_rng(22)
    for d in (1, 2, 3):
        for _ in range(5):
            base_n = int(rng.integers(3, 12 if d < 3 else 7))
            z = tied_points(rng, base_n, d)  # row base_n repeats row 0
            extra = rng.choice(len(z), size=int(rng.integers(0, len(z) - 1)), replace=False)
            picks = np.union1d([0, base_n], extra)
            picks = picks[rng.permutation(len(picks))]
            perm = rng.permutation(len(z))
            rows = np.argsort(perm)[picks]  # the picked rows, in z[perm]
            z = PointSet(z[perm])
            assert discrete_discrepancy(z, rows) == pytest.approx(
                naive_discrete_discrepancy(PointSet(z.points[rows]), z), abs=1e-12
            )
            dup = PointSet(np.concatenate([z.points, z.points]))
            both = np.concatenate([rows, rows + z.n])
            assert discrete_discrepancy(dup, both) == pytest.approx(
                naive_discrete_discrepancy(PointSet(dup.points[both]), dup), abs=1e-12
            )
    # points of full at 0.0 and at 1.0 on an axis where the subset has none,
    # and low on the others: the sup may need the gap below the subset's
    # first coordinate there, or the closed corner at 1.0 above its last
    for d in (2, 3):
        for _ in range(6):
            inner = rng.integers(1, 8, size=(int(rng.integers(3, 12 if d < 3 else 7)), d)) / 8.0
            ends = rng.integers(0, 3, size=(int(rng.integers(2, 7)), d)) / 8.0
            axis = int(rng.integers(d))
            ends[:, axis] = np.arange(len(ends)) % 2  # 0.0, 1.0, 0.0, ...
            picks = rng.choice(len(inner), size=int(rng.integers(1, len(inner) + 1)), replace=False)
            perm = rng.permutation(len(inner) + len(ends))
            rows = np.argsort(perm)[picks]  # the picked rows, in the shuffled cloud
            z = PointSet(np.concatenate([inner, ends])[perm])
            assert discrete_discrepancy(z, rows) == pytest.approx(
                naive_discrete_discrepancy(PointSet(inner[picks]), z), abs=1e-12
            )


def test_discrete_discrepancy_matches_naive_with_ties():
    check_discrete_discrepancy_matches_naive_with_ties()


def test_discrete_discrepancy_rows_enforced():
    # rows must be a non-empty integer vector of indices in [0, K)
    z = PointSet([[0.2], [0.4]])
    for rows in ([], np.zeros(0, dtype=np.intp), [0.0, 1.0], [True, False], [[0, 1]], [2], [-1]):
        with pytest.raises(ValueError, match="rows"):
            discrete_discrepancy(z, rows)


def test_discrete_discrepancy_rows_distinct():
    # an index may not repeat; equal points of full are distinct rows, so a
    # selection may hold as many copies of a point as full does
    z = PointSet([[0.2, 0.4], [0.4, 0.2], [0.4, 0.2]])
    with pytest.raises(ValueError, match="repeat"):
        discrete_discrepancy(z, [1, 1])
    with pytest.raises(ValueError, match="repeat"):
        discrete_discrepancy(z, [0, 2, 0])
    assert discrete_discrepancy(z, [1, 2, 0]) == 0.0


def test_discrete_discrepancy_rows_before_budget(monkeypatch):
    # the rows are checked first: bad rows are a ValueError even when the
    # grid is far over budget, and nothing is sorted for them
    rng = np.random.default_rng(12)
    z = PointSet(rng.random((50, 2)))
    with pytest.raises(BudgetExceededError):
        discrete_discrepancy(z, [0, 1, 2], budget=1)

    def no_sort(points):
        raise AssertionError("sorted before the rows were checked")

    monkeypatch.setattr(discrepancy, "_grid", no_sort)
    for rows in ([3, 3], [50], [0.5]):
        with pytest.raises(ValueError):
            discrete_discrepancy(z, rows, budget=1)


def test_restriction_measure_scan():
    # scan accepts the normalized restriction measure like any other
    mu = RestrictionMeasure(OmegaRegion([([0.0], [0.5])]))
    rep = exact_star_discrepancy(PointSet([[0.25]]), mu)
    assert rep.value == pytest.approx(naive_star_discrepancy(PointSet([[0.25]]), mu), abs=1e-12)


def test_dense_scan_holds_two_grids():
    # a 1025 x 1025 critical grid: the scan keeps the mass grid and the count
    # grid alive, not a third array for their difference
    mu = RestrictionMeasure([([0.0, 0.0], [1.0, 0.5]), ([0.0, 0.5], [0.5, 1.0])])
    ps = mu.sample(7, 1024)
    grid_bytes = 1025 * 1025 * 8
    tracemalloc.start()
    try:
        rep = exact_star_discrepancy(ps, mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * grid_bytes
    # value and witness of the scan that held three grids
    assert rep.value == 0.030064549388919837
    assert rep.witness.corner.tolist() == [0.4751757825765715, 0.4504098513244865]
    assert rep.witness.closed and rep.boxes_scanned == 2 * 1025 * 1025


def _tie_heavy_clouds():
    rng = np.random.default_rng(21)
    grid8 = rng.integers(0, 9, size=(5000, 2)) / 8.0  # holds 0.0 and 1.0
    rows = rng.random((40, 3))
    dup_rows = rows[rng.integers(0, 40, size=3000)]  # duplicate rows
    return [
        grid8,
        dup_rows,
        np.vstack([np.zeros((700, 1)), np.ones((700, 1)), rng.random((600, 1))]),
        rng.random((4000, 2)),
        np.zeros((1, 1)),
        np.zeros((0, 2)),
    ]


@pytest.mark.parametrize(
    "cloud", _tie_heavy_clouds(), ids=["grid8", "dup", "ends", "free", "one", "empty"]
)
def test_shared_sort_matches_stable_argsort_and_unique(cloud):
    # one default argsort per axis with the tie order restored is the stable
    # argsort, and the grid read off it is np.unique's axis and inverse
    axes, ranks, orders = _grid(cloud)
    assert len(axes) == len(ranks) == len(orders) == cloud.shape[1]
    for s in range(cloud.shape[1]):
        col = cloud[:, s]
        ax, inv = np.unique(np.concatenate([col, [1.0]]), return_inverse=True)
        assert np.array_equal(orders[s], np.argsort(col, kind="stable"))
        assert np.array_equal(axes[s], ax)
        # ranks are listed in axis-0 order
        assert np.array_equal(ranks[s], inv[: col.size][orders[0]])


def test_merge_axes_adds_atoms_and_moves_ranks():
    rng = np.random.default_rng(22)
    cloud = rng.integers(0, 5, size=(300, 2)) / 4.0
    extra = [np.array([0.1, 0.25, 0.6]), np.zeros(0)]
    axes, ranks, orders = _grid(cloud)
    axes, ranks = _merge_axes(axes, ranks, extra)
    for s in range(2):
        ax, inv = np.unique(np.concatenate([cloud[:, s], [1.0], extra[s]]), return_inverse=True)
        assert np.array_equal(axes[s], ax)
        assert np.array_equal(ranks[s], inv[: len(cloud)][orders[0]])


@pytest.mark.parametrize("block_cells", [1, 7])
def test_oracles_in_small_row_blocks(block_cells, monkeypatch):
    # blocks of one row, ragged last blocks and counts carried across block
    # starts; at the default block size every oracle grid is one block
    rng = np.random.default_rng(41)
    sets = [PointSet(tied_points(rng, 12, d)) for d in (1, 2, 3)]
    sets += [PointSet(rng.random((40, d))) for d in (1, 2)]
    # centred lattices: the maximum is attained in every row, so the witness
    # is the first corner in C order, closed before open
    lattice = (np.arange(4) + 0.5) / 4
    sets += [PointSet(lattice[:, None]), PointSet(np.stack(np.meshgrid(lattice, lattice), -1).reshape(-1, 2))]
    measures = [uniform_measure, lambda d: DiscreteMeasure(PointSet(rng.random((6, d))))]
    cases = [(ps, make(ps.dim)) for ps in sets for make in measures]
    whole = [exact_star_discrepancy(ps, mu) for ps, mu in cases]
    monkeypatch.setattr(discrepancy, "_BLOCK_CELLS", block_cells)
    for (ps, mu), ref in zip(cases, whole):
        rep = exact_star_discrepancy(ps, mu)
        assert rep.value == ref.value and rep.boxes_scanned == ref.boxes_scanned
        assert rep.witness.corner.tolist() == ref.witness.corner.tolist()
        assert rep.witness.closed == ref.witness.closed
    check_matches_naive_oracle_small()
    check_matches_naive_oracle_with_ties()
    check_discrete_discrepancy_matches_naive()
    check_discrete_discrepancy_matches_naive_with_ties()


@pytest.mark.parametrize("shape", [(700,), (40, 9), (30, 300), (6, 260, 3)])
@pytest.mark.parametrize("rows", [1, 7, 1000])
def test_count_blocks_match_cumulated_histogram(shape, rows):
    # rows of 256 cells or more are cumulated one row add at a time, narrower
    # ones by cumsum; both must give the cumsum of the histogram along every
    # axis, and the strict counts that shifted one corner down on every axis
    rng = np.random.default_rng(7)
    ranks = [rng.integers(0, s, 500) for s in shape]
    hist = np.zeros(shape, dtype=np.intp)
    np.add.at(hist, tuple(ranks), 1)
    closed = hist
    for axis in range(len(shape)):
        closed = np.cumsum(closed, axis=axis)
    strict = np.zeros_like(closed)
    strict[(slice(1, None),) * len(shape)] = closed[(slice(None, -1),) * len(shape)]
    # any listing in axis-0 order: ties on axis 0 in index or in random order
    for order in (np.argsort(ranks[0], kind="stable"), np.lexsort((rng.random(500), ranks[0]))):
        blocks = list(_count_blocks(_flat_ranks([r[order] for r in ranks], shape), shape, rows))
        assert np.array_equal(np.concatenate([c for c, _ in blocks]), closed)
        assert np.array_equal(np.concatenate([s for _, s in blocks]), strict)


def test_atomless_scan_evaluates_mass_once_per_block(monkeypatch):
    # without atoms the open box has the closed box's mass, so one call per
    # row block serves both variants
    calls = []

    class Counting(ProductMeasure):
        def mass_on_grid(self, axes, closed=True):
            calls.append(closed)
            return super().mass_on_grid(axes, closed)

    ps = PointSet(np.random.default_rng(5).random((30, 2)))
    mu = Counting([PowerCdf(2.0)] * 2)
    whole = exact_star_discrepancy(ps, mu)
    assert calls == [True]
    calls.clear()
    monkeypatch.setattr(discrepancy, "_BLOCK_CELLS", 7)  # one row of the 31 x 31 grid per block
    rep = exact_star_discrepancy(ps, mu)
    assert calls == [True] * 31
    assert (rep.value, rep.witness.closed) == (whole.value, whole.witness.closed)
    assert rep.witness.corner.tolist() == whole.witness.corner.tolist()
