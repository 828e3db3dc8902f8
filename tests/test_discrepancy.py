"""Exact scan, deterministic bracket, and discrete two-set discrepancy."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest

from conftest import naive_star_discrepancy
from nuqmc import discrepancy
from nuqmc.discrepancy import (
    BudgetExceededError,
    _corner_counts,
    _count_blocks,
    _flat_ranks,
    _grid,
    _merge_axes,
    _subtract_lower,
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
    # g=0 used to drop the cap (a 51-corner grid for 50 points), g=-1 to
    # raise IndexError and g=2.5 a TypeError from numpy; a bool is no count
    # either.  All are refused, by name, before the points are sorted
    def no_sort(*args):
        raise AssertionError("points sorted before g was checked")

    monkeypatch.setattr(discrepancy, "_grid", no_sort)
    ps = PointSet(np.random.default_rng(3).random((50, 2)))
    for g in (0, -1, 2.5, True, np.float64(4.0)):
        with pytest.raises(ValueError, match=re.escape(f"g must be >= 1 and an integer, got g={g!r}")):
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
    z = PointSet(z.points)  # z above keeps its sort; this one has none yet
    for rows in ([3, 3], [50], [0.5]):
        with pytest.raises(ValueError):
            discrete_discrepancy(z, rows, budget=1)


def test_restriction_measure_scan():
    # scan accepts the normalized restriction measure like any other
    mu = RestrictionMeasure(OmegaRegion([([0.0], [0.5])]))
    rep = exact_star_discrepancy(PointSet([[0.25]]), mu)
    assert rep.value == pytest.approx(naive_star_discrepancy(PointSet([[0.25]]), mu), abs=1e-12)


def test_dense_scan_holds_two_grids():
    # a 1025 x 1025 critical grid: the tiled scan keeps a 129 x 129 array of
    # tile bounds and row blocks, far below the two grids a whole-grid scan
    # would hold
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
    # value and witness of the whole-grid scan
    assert rep.value == 0.030064549388919837
    assert rep.witness.corner.tolist() == [0.4751757825765715, 0.4504098513244865]
    assert rep.witness.closed and rep.boxes_scanned == 2 * 1025 * 1025


def _tie_heavy_clouds():
    rng = np.random.default_rng(21)
    grid8 = rng.integers(0, 9, size=(5000, 2)) / 8.0  # holds 0.0 and 1.0
    rows = rng.random((40, 3))
    dup_rows = rows[rng.integers(0, 40, size=3000)]  # duplicate rows
    zeros = np.zeros((500, 2))  # -0.0 inside runs of zeros, first on axis 1 only
    zeros[rng.integers(1, 500, 60)] = -0.0
    zeros[0, 1] = -0.0
    clouds = [
        grid8,
        dup_rows,
        np.vstack([np.zeros((700, 1)), np.ones((700, 1)), rng.random((600, 1))]),
        rng.random((4000, 2)),
        np.zeros((1, 1)),
        np.zeros((0, 2)),
        zeros,
    ]
    # a key keeps x * 2**(63-b) with b = bit_length(K-1): 2**-49 apart at
    # K = 2**14, 2**-48 at K = 2**14 + 1, so coordinates 2**-50 apart, and
    # those below 2**-(63-b), share a fraction while their values differ
    for k in (1 << 14, (1 << 14) + 1):
        near = 0.5 + rng.integers(0, 3000, k) * 2.0**-50  # exact ties as well
        tiny = np.where(rng.random(k) < 0.5, rng.random(k) * 2.0**-55, 0.0)
        tiny[rng.random(k) < 0.1] = -0.0
        ends = rng.choice([0.0, -0.0, 0.25, 1.0], k)
        clouds.append(np.column_stack([near, tiny, ends]))
    # all distinct below 1.0 on axes 0 and 1, and axis 2 holds 1.0 once:
    # ranks from np.arange on all three, the 1.0 merged into the top corner
    # on axis 2; a lone 1.0 is K = 1 on an axis with no appended corner
    distinct = rng.random((300, 3))
    distinct[17, 2] = 1.0
    clouds += [distinct, np.ones((1, 1)), np.full((1, 2), 0.3)]
    # few neighbours share a fraction, so only those pairs are read: a few
    # repeated values on axis 0, two distinct values of one fraction on axis 1
    sparse = rng.random((4000, 2))
    sparse[:10, 0] = sparse[10:20, 0]
    sparse[20:22, 1] = 2.0**-59, 2.0**-60
    clouds.append(sparse)
    return clouds


def _fraction_clashes(col):
    # distinct coordinates that share their key's fraction bits
    b = max(col.size - 1, 0).bit_length()
    v = np.sort(col)
    frac = np.floor(np.ldexp(v, 63 - b))
    return bool(np.any((frac[1:] == frac[:-1]) & (v[1:] != v[:-1])))


@pytest.mark.parametrize(
    "cloud",
    _tie_heavy_clouds(),
    ids=[
        "grid8", "dup", "ends", "free", "one", "empty", "negzero", "clash-2^14", "clash-2^14+1",
        "distinct", "lone-1.0", "lone-0.3", "sparse",
    ],
)
def test_shared_sort_matches_stable_argsort_and_unique(cloud, monkeypatch):
    # one sort of unique keys per axis, with the runs of tied fractions
    # repaired, is the stable argsort, and the grid read off it is np.unique's
    # axis and inverse; a zero on the axis keeps the lowest-index zero's sign.
    # Only an axis with a repeated value cumulates its run index
    real, lexsorts = np.lexsort, []
    monkeypatch.setattr(np, "lexsort", lambda keys: lexsorts.append(keys) or real(keys))
    real_cumsum, cumsums = np.cumsum, []
    monkeypatch.setattr(np, "cumsum", lambda a, **kw: cumsums.append(a) or real_cumsum(a, **kw))
    axes, ranks, orders = _grid(cloud)
    monkeypatch.undo()
    assert len(axes) == len(ranks) == len(orders) == cloud.shape[1]
    # only an axis 0 with no repeated value has its positions for ranks
    assert isinstance(ranks[0], discrepancy._Positions) == (np.unique(cloud[:, 0]).size == len(cloud))
    assert all(isinstance(r, np.ndarray) for r in ranks[1:])
    assert len(lexsorts) == sum(_fraction_clashes(cloud[:, s]) for s in range(cloud.shape[1]))
    assert len(cumsums) == sum(np.unique(col).size < col.size for col in cloud.T)
    for s in range(cloud.shape[1]):
        col = cloud[:, s]
        ax, inv = np.unique(np.concatenate([col, [1.0]]), return_inverse=True)
        stable = np.argsort(col, kind="stable")
        assert np.array_equal(orders[s], stable)
        axis = np.asarray(axes[s])
        assert len(axes[s]) == axes[s].size == ax.size
        assert np.array_equal(axis, ax)
        # ranks are listed in axis-0 order
        assert np.array_equal(np.asarray(ranks[s]), inv[: col.size][orders[0]])
        # bitwise, the signs of zeros included: the stably sorted column's
        # first value of every run
        values = np.concatenate([col[stable], [1.0]])
        first = np.concatenate([[True], values[1:] != values[:-1]])
        assert axis.tobytes() == values[first].tobytes()
        assert np.array_equal(np.signbit(axis), np.signbit(values[first]))
        # an int, a slice and an index array read the same corners, bitwise
        picks = np.arange(axis.size)[::-3]
        assert axes[s][picks].tobytes() == axis[picks].tobytes()
        assert axes[s][1::2].tobytes() == axis[1::2].tobytes()
        assert [axes[s][j].tobytes() for j in (0, -1)] == [axis[0].tobytes(), axis[-1].tobytes()]
        with pytest.raises(IndexError):
            axes[s][axis.size]
        assert orders[s].dtype == ranks[s].dtype == np.intp


def test_grid_holds_two_cloud_long_arrays():
    # a distinct d=1 cloud next to its order: axis 0's ranks are its
    # positions, held as two numbers, and the keys are built and compared in
    # stretches, so the peak adds to the order at most 4 bytes a point
    k = 1 << 20
    cloud = np.random.default_rng(3).random((k, 1))
    tracemalloc.start()
    try:
        axes, ranks, orders = _grid(cloud)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    slack = 1 << 16  # small arrays and objects
    assert live <= 8 * k + slack
    assert peak <= 8 * k + 4 * k + slack
    assert len(axes[0]) == k + 1
    assert isinstance(ranks[0], discrepancy._Positions)


@pytest.mark.parametrize("values", [1 << 17, 1 << 4])
def test_grid_of_a_tie_heavy_cloud_peaks_at_26_bytes_a_point(values):
    # every point of a d=1 cloud of few values repeats one, so nearly every
    # neighbour pair shares a fraction: the peak is the order, the pairs,
    # the column read in order and two one-byte masks; the order, the run
    # starts and the ranks stay
    k = 1 << 20
    cloud = np.random.default_rng(6).integers(0, values, (k, 1)) / values
    tracemalloc.start()
    try:
        axes, ranks, orders = _grid(cloud)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    slack = 1 << 16
    assert live <= 2 * 8 * k + 8 * values + slack
    assert peak <= 26 * k + slack
    assert len(axes[0]) == np.unique(cloud).size + 1 and isinstance(ranks[0], np.ndarray)


def test_grid_holds_two_orders_and_one_rank_array_at_d2():
    # a distinct d=2 cloud: the orders of both axes and axis 1's ranks stay;
    # the peak adds the scatter that moves axis 1's ranks to axis-0 order
    k = 1 << 18
    cloud = np.random.default_rng(4).random((k, 2))
    tracemalloc.start()
    try:
        axes, ranks, orders = _grid(cloud)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    slack = 1 << 16
    assert live <= 3 * 8 * k + slack
    assert peak <= 4 * 8 * k + 4 * k + slack
    assert isinstance(ranks[0], discrepancy._Positions) and isinstance(ranks[1], np.ndarray)


def test_d1_scan_reads_few_axis_corners(monkeypatch):
    # the exact scan of a 2**20-point cloud reads the coordinates of the
    # tile tops and of the tiles it counts, not of the whole axis
    read = []
    index = discrepancy._Axis.__getitem__

    def counting(self, j):
        out = index(self, j)
        if isinstance(out, np.ndarray):
            read.append(out.size)
        return out

    monkeypatch.setattr(discrepancy._Axis, "__getitem__", counting)
    mu = ProductMeasure([PowerCdf(2.0)])
    ps = mu.sample(11, 1 << 20)
    rep = exact_star_discrepancy(ps, mu)
    corners = ps.n + 1
    assert rep.boxes_scanned == 2 * corners
    assert 0 < sum(read) < 0.05 * corners


def test_tie_heavy_clouds_take_the_fraction_repair():
    assert any(_fraction_clashes(c[:, s]) for c in _tie_heavy_clouds() for s in range(c.shape[1]))


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


def test_positions_answer_as_arange():
    # every question the scans ask of a rank array, and any other index,
    # gets np.arange's answer, bitwise
    rng = np.random.default_rng(23)
    for size in (0, 1, 5, 700):
        view, ref = discrepancy._Positions(size), np.arange(size, dtype=np.intp)
        assert len(view) == view.size == size and view.dtype == ref.dtype and view.shape == ref.shape
        assert np.asarray(view).tobytes() == ref.tobytes() and np.asarray(view).dtype == np.intp
        values = [np.arange(-3, size + 4), rng.integers(-2, size + 3, 9).astype(np.int32), np.int64(size // 2), -1]
        for v, side in itertools.product(values, ("left", "right")):
            got, expect = view.searchsorted(v, side), ref.searchsorted(v, side)
            assert np.asarray(got).tobytes() == np.asarray(expect).tobytes() and np.shape(got) == np.shape(expect)
        halves = np.array([0.5, size - 0.5])
        assert np.array_equal(view.searchsorted(halves, "right"), ref.searchsorted(halves, "right"))
        for piece in (slice(None), slice(1, None), slice(2, -1), slice(size + 3, None), slice(None, None, 3),
                      slice(None, None, -2)):
            got = view[piece]
            assert np.asarray(got).tobytes() == ref[piece].tobytes()
            if piece.step is None:
                assert isinstance(got, discrepancy._Positions)
                assert np.array_equal(got.searchsorted(ref, "right"), ref[piece].searchsorted(ref, "right"))
        mask = rng.random(size) < 0.3
        picks = rng.integers(-size, size, 11) if size else np.zeros(0, dtype=np.intp)
        for j in (mask, picks, picks.astype(np.int32), picks.reshape(-1, 1), (slice(None), None), list(picks)):
            assert view[j].tobytes() == ref[j].tobytes() and view[j].shape == ref[j].shape
            assert view[j].dtype == ref[j].dtype
        for j in (size, -size - 1, [size]):
            with pytest.raises(IndexError):
                view[j]
        if size:
            assert [view[0], view[-1]] == [ref[0], ref[-1]] and type(view[0]) is type(ref[0])
            assert np.asarray(view[1:][2:4]).tobytes() == ref[1:][2:4].tobytes()
            assert np.array_equal(np.arange(10.0 * size)[view], np.arange(10.0 * size)[ref])


def _materialised(grid):
    """`_grid` with np.arange in place of axis 0's implicit ranks."""
    def run(points):
        axes, ranks, orders = grid(points)
        if isinstance(ranks[0], discrepancy._Positions):
            ranks[0] = np.arange(ranks[0].size, dtype=np.intp)
        return axes, ranks, orders

    return run


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("rows", [1, 7, 10**6])
def test_implicit_ranks_count_as_stored_ones(d, rows):
    # the corner counts of a distinct cloud, with axis 0's ranks implicit
    # and with them stored: tops of -1, repeated tops, tops past the last
    # rank, and a subset's ranks picked by a mask
    rng = np.random.default_rng(50 + d)
    axes, ranks, _ = _grid(rng.random((700, d)))
    assert isinstance(ranks[0], discrepancy._Positions)
    stored = [np.arange(700, dtype=np.intp), *ranks[1:]]
    few = rng.random(700) < 0.05
    for trial in range(8):
        tops = []
        for ax in axes:
            n = ax.size
            kind = (trial + len(tops)) % 4
            tops.append([
                np.arange(n), np.sort(rng.integers(-1, n, size=6)),
                np.array([-1, -1, 0, 0, n // 2, n // 2]), np.array([-1, n // 3, n // 3 + 1, n + 5]),
            ][kind])
        for a, b in ((ranks, stored), ([r[few] for r in ranks], [r[few] for r in stored])):
            got = list(_corner_counts(a, tops, rows))
            expect = list(_corner_counts(b, tops, rows))
            assert [c.tobytes() for c in got] == [c.tobytes() for c in expect]


def test_implicit_ranks_merge_as_stored_ones():
    # atoms merged into a distinct axis 0 (and into axis 1) move its
    # implicit ranks as they move stored ones
    rng = np.random.default_rng(24)
    cloud = rng.random((500, 2))
    extra = [np.concatenate([cloud[rng.integers(0, 500, 5), 0], [0.0, 0.5, 1.0]]), np.array([0.25, 0.3])]
    axes, ranks, orders = _grid(cloud)
    got = _merge_axes(axes, ranks, extra)
    expect = _merge_axes(axes, [np.arange(500, dtype=np.intp), ranks[1]], extra)
    for g, e in zip(got, expect):
        assert [a.tobytes() for a in g] == [np.asarray(a).tobytes() for a in e]
    ax, inv = np.unique(np.concatenate([cloud[:, 0], [1.0], extra[0]]), return_inverse=True)
    assert np.array_equal(got[1][0], inv[:500][orders[0]])


def test_implicit_ranks_scan_select_and_decompose_as_stored_ones(monkeypatch):
    # the scans, the selection scan and the decomposition of distinct
    # clouds, once with axis 0's ranks implicit and once stored, bitwise
    from nuqmc.integration import omega_discrepancy
    from nuqmc.selection import decompose

    rng = np.random.default_rng(25)
    omega = OmegaRegion([([0.0, 0.0], [1.0, 0.5]), ([0.0, 0.5], [0.5, 1.0])])
    atoms = DiscreteMeasure(PointSet(rng.integers(0, 5, size=(9, 2)) / 4.0))
    clouds = {d: rng.random((k, d)) for d, k in ((1, 5000), (2, 1600), (3, 216))}

    def run():
        out = []
        for d, cloud in clouds.items():
            rows = rng.choice(len(cloud), int(len(cloud) ** 0.5), replace=False)
            out.append(discrete_discrepancy(PointSet(cloud), rows))
            dc = decompose(PointSet(cloud), 6)
            out += [dc.counts.tobytes(), dc.first.tobytes()]
            mu = ProductMeasure([PowerCdf(2.0)] * d)
            for rep in (exact_star_discrepancy(PointSet(cloud), mu), bracket_star_discrepancy(PointSet(cloud), mu, 40)):
                out.append((rep.value, rep.upper, rep.witness.corner.tobytes(), rep.witness.closed))
        out.append(exact_star_discrepancy(PointSet(clouds[2]), atoms).to_dict())
        out.append(omega_discrepancy(PointSet(clouds[2]), omega))
        return out

    state = rng.bit_generator.state
    implicit = run()
    rng.bit_generator.state = state
    monkeypatch.setattr(discrepancy, "_grid", _materialised(discrepancy._grid))
    assert run() == implicit


def strict_count_scan(ps, mu):
    """(value, witness corner, closed) of a whole-grid scan that counts the
    closed and strict boxes directly and divides each count by N: the
    streamed scan's shifted quotients must give the same floats."""
    jumps = mu.jump_coordinates()
    axes = [
        np.unique(np.concatenate([ps.points[:, s], [1.0], [] if jumps is None else jumps[s]]))
        for s in range(ps.dim)
    ]
    corners = np.stack(np.meshgrid(*axes, indexing="ij"), -1)[..., None, :]
    best = None
    for closed in (True, False):
        inside = ps.points <= corners if closed else ps.points < corners
        vals = np.abs(mu.mass_on_grid(axes, closed) - inside.all(-1).sum(-1) / float(ps.n))
        j = int(np.argmax(vals))
        if best is None or vals.ravel()[j] > best[0]:
            at = np.unravel_index(j, vals.shape)
            best = (float(vals.ravel()[j]), [float(ax[i]) for ax, i in zip(axes, at)], closed)
    return best


def d1_selection_reference(z, rows):
    # |#(Q in A) - (N/K) #(z in A)| at every closed and open box on the
    # union of both sets' coordinates and 1.0, counted by search
    full, sub = np.sort(z.points[:, 0]), np.sort(z.points[rows, 0])
    corners = np.union1d(full, [1.0])
    ratio = rows.size / z.n
    return max(
        float(np.abs(np.searchsorted(sub, corners, side) - ratio * np.searchsorted(full, corners, side)).max())
        for side in ("left", "right")
    )


def pruning_cases(rng):
    """(name, point set, measure) cases whose maximum tiles find hard: one
    held by the open variant only, many tied maxima, atoms at coordinate 0,
    a single point, and product extensions."""
    # 20 points on the right edge: the open box at (1, 1) misses them all
    open_only = np.concatenate([rng.random((30, 2)) * 0.9, np.column_stack([np.ones(20), rng.random(20)])])
    lattice = (np.arange(8) + 0.5) / 8
    grid = np.stack(np.meshgrid(lattice, lattice), -1).reshape(-1, 2)
    atoms = DiscreteMeasure(PointSet(
        np.concatenate([rng.integers(0, 5, size=(8, 2)) / 4.0, [[0.0, 0.0], [0.0, 0.5], [0.75, 0.0]]])
    ))
    return [
        ("open-only", PointSet(open_only), uniform_measure(2)),
        ("tied-maxima-d1", PointSet(lattice[:, None]), uniform_measure(1)),
        ("tied-maxima-d2", PointSet(grid), uniform_measure(2)),
        ("atoms-at-0", PointSet(tied_points(rng, 20, 2)), atoms),
        ("atoms-at-0-d1", PointSet(rng.random((25, 1))), DiscreteMeasure(PointSet([[0.0], [0.0], [0.5]]))),
        # the maximum's tile bound equals the maximum: a strict > would skip it
        (
            "sevenths-d1",
            PointSet(rng.integers(0, 8, size=(51, 1)) / 7.0),
            DiscreteMeasure(PointSet([[1.0], [6 / 7], [1.0]])),
        ),
        ("k1-d1", PointSet([[0.3]]), uniform_measure(1)),
        ("k1-d2", PointSet([[0.3, 0.8]]), ProductMeasure([PowerCdf(2.0)] * 2)),
        ("k1-atoms", PointSet([[0.0, 0.5]]), atoms),
        ("extension-atoms", PointSet(rng.random((8, 3))), ProductExtensionMeasure(atoms)),
        ("extension-power", PointSet(rng.random((30, 2))),
         ProductExtensionMeasure(ProductMeasure([PowerCdf(0.5)]))),
    ]


@pytest.mark.parametrize("block_cells", [1, 7, 200])
def test_oracles_in_small_row_blocks(block_cells, monkeypatch):
    # blocks of one row, ragged last blocks and counts carried across block
    # starts; at the default block size every oracle grid is one block, at
    # these sizes most are cut into tiles of 2 corners per axis
    rng = np.random.default_rng(41)
    sets = [PointSet(tied_points(rng, 12, d)) for d in (1, 2, 3)]
    sets += [PointSet(rng.random((40, d))) for d in (1, 2)]
    sets.append(PointSet(rng.random((300, 1))))  # more corners than a block of 200 cells
    # centred lattices: the maximum is attained in every row, so the witness
    # is the first corner in C order, closed before open
    lattice = (np.arange(4) + 0.5) / 4
    sets += [PointSet(lattice[:, None]), PointSet(np.stack(np.meshgrid(lattice, lattice), -1).reshape(-1, 2))]
    measures = [uniform_measure, lambda d: DiscreteMeasure(PointSet(rng.random((6, d))))]
    cases = [(ps, make(ps.dim)) for ps in sets for make in measures]
    hard = pruning_cases(rng)
    for name, ps, mu in hard:
        naive = naive_star_discrepancy(ps, mu)
        assert exact_star_discrepancy(ps, mu).value == pytest.approx(naive, abs=1e-12), name
    cases += [(ps, mu) for _, ps, mu in hard]
    whole = [exact_star_discrepancy(ps, mu) for ps, mu in cases]
    assert not whole[-len(hard)].witness.closed  # the open-only case
    # d=1 selections with more slots than a block of 200 cells: full's
    # counts come from the stretch lengths, cut into blocks
    picks = []
    for k, n in ((3000, 400), (2000, 150)):
        z = PointSet(np.concatenate([rng.random(k - 500), rng.integers(0, 9, 500) / 8.0])[:, None])
        rows = rng.choice(k, n, replace=False)
        picks.append((z, rows, discrete_discrepancy(z, rows)))
        assert picks[-1][2] == d1_selection_reference(z, rows)
    monkeypatch.setattr(discrepancy, "_BLOCK_CELLS", block_cells)
    # the coarse grids of the tiled scans
    coarse, bound_blocks = [], discrepancy._bound_blocks
    monkeypatch.setattr(
        discrepancy, "_bound_blocks", lambda *a: coarse.append([c.size for c in a[1]]) or bound_blocks(*a)
    )
    for (ps, mu), ref in zip(cases, whole):
        rep = exact_star_discrepancy(ps, mu)
        assert rep.value == ref.value and rep.boxes_scanned == ref.boxes_scanned
        assert rep.witness.corner.tolist() == ref.witness.corner.tolist()
        assert rep.witness.closed == ref.witness.closed
        assert (rep.value, rep.witness.corner.tolist(), rep.witness.closed) == strict_count_scan(ps, mu)
    # at every dimension, some scan ran with several tiles on every axis
    assert {len(g) for g in coarse if min(g) >= 2} == {1, 2, 3}
    for z, rows, ref in picks:
        assert discrete_discrepancy(z, rows) == ref
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
        assert np.array_equal(np.concatenate(blocks), closed)
        # the bracket's strict blocks: each closed block one corner lower,
        # with the last row of the block before on top
        carry, lower = np.zeros(shape[1:], dtype=np.intp), []
        for c in blocks:
            lower.append(-_subtract_lower(np.zeros_like(c), c, carry))
            carry = c[-1]
        assert np.array_equal(np.concatenate(lower), strict)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("rows", [1, 7, 10**6])
def test_corner_counts_match_brute_force(d, rows):
    # the count at a corner is the number of points whose rank is at most
    # the top on every axis: tied ranks, tops of -1, repeated tops, tops
    # that stop before the axis's last corner or reach past it, on clouds
    # of 700 or more points (bins read off a table) and on a few of the
    # free points (bins searched)
    rng = np.random.default_rng(40 + d)
    tied = _grid(tied_points(rng, 600, d))[:2]
    axes, ranks = _grid(rng.random((700, d)))[:2]
    few = rng.random(700) < 0.05  # still in axis-0 order
    clouds = [tied, (axes, ranks), (axes, [r[few] for r in ranks])]
    for (axes, ranks), trial in itertools.product(clouds, range(6)):
        tops = []
        for ax in axes:
            n = ax.size
            kind = (trial + len(tops)) % 4
            if kind == 0:
                tops.append(np.arange(n))
            elif kind == 1:
                tops.append(np.sort(rng.integers(-1, n, size=6)))
            elif kind == 2:
                tops.append(np.array([-1, -1, 0, 0, n // 2, n // 2]))
            else:
                tops.append(np.array([n // 3, n // 3 + 1, n + 5]))
        inside = np.ones((ranks[0].size, *(top.size for top in tops)), dtype=bool)
        for s, (r, top) in enumerate(zip(ranks, tops)):
            shape = [r.size] + [1] * d
            shape[s + 1] = top.size
            inside &= (r[:, None] <= top).reshape(shape)
        expect = inside.sum(axis=0)
        got = np.concatenate(list(_corner_counts(ranks, tops, rows)))
        assert got.shape == tuple(top.size for top in tops)
        assert np.array_equal(got, expect), (trial, [top.tolist() for top in tops])


def test_atomless_scan_never_asks_for_the_open_mass(monkeypatch):
    # without atoms the open box has the closed box's mass, so every call,
    # the coarse pass's and the tiles', asks for closed masses only; the
    # tiled scan in blocks of 7 cells gives the default scan's result
    calls = []

    class Counting(ProductMeasure):
        def mass_on_grid(self, axes, closed=True):
            calls.append(closed)
            return super().mass_on_grid(axes, closed)

    ps = PointSet(np.random.default_rng(5).random((30, 2)))
    mu = Counting([PowerCdf(2.0)] * 2)
    whole = exact_star_discrepancy(ps, mu)
    assert calls == [True]  # a 31 x 31 grid is one block: one tile, one call
    calls.clear()
    monkeypatch.setattr(discrepancy, "_BLOCK_CELLS", 7)
    rep = exact_star_discrepancy(ps, mu)
    assert len(calls) > 1 and all(calls)
    assert (rep.value, rep.witness.closed) == (whole.value, whole.witness.closed)
    assert rep.boxes_scanned == whole.boxes_scanned
    assert rep.witness.corner.tolist() == whole.witness.corner.tolist()


def test_pruned_scan_counts_a_few_hundredths_of_the_grid():
    # the 1025 x 1025 L-region grid of test_dense_scan_holds_two_grids: the
    # coarse pass and the tiles that can hold the maximum ask for masses on
    # a small part of the grid
    cells = []

    class Counting(RestrictionMeasure):
        def mass_on_grid(self, axes, closed=True):
            out = super().mass_on_grid(axes, closed)
            cells.append(out.size)
            return out

    mu = Counting([([0.0, 0.0], [1.0, 0.5]), ([0.0, 0.5], [0.5, 1.0])])
    rep = exact_star_discrepancy(mu.sample(7, 1024), mu)
    assert rep.value == 0.030064549388919837 and rep.boxes_scanned == 2 * 1025 * 1025
    assert sum(cells) <= 0.1 * 1025 * 1025
