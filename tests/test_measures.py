"""Measure-oracle tests: exact masses, sampling laws, diagnostics."""

import itertools

import numpy as np
import pytest

from nuqmc.measures import (
    AnchoredBox,
    DiscreteMeasure,
    DimensionMismatchError,
    OmegaRegion,
    PiecewiseLinearCdf,
    PointSet,
    PowerCdf,
    ProductMeasure,
    ProductExtensionMeasure,
    RestrictionMeasure,
    UniformCdf,
    measure_from_config,
    uniform_measure,
    validate,
)


def box(*corner, closed=True):
    return AnchoredBox(np.array(corner), closed=closed)


def test_uniform_mass_midpoint():
    mu = uniform_measure(2)
    assert mu.mass(box(0.5, 0.5)) == pytest.approx(0.25, abs=1e-15)


def test_product_power_times_uniform():
    mu = ProductMeasure([PowerCdf(2.0), UniformCdf()])
    assert mu.mass(box(0.5, 1.0)) == pytest.approx(0.25, abs=1e-15)


def test_restriction_mass_example_and_dense_grid_oracle():
    omega = OmegaRegion([([0.0, 0.0], [0.5, 1.0])])
    mu = RestrictionMeasure(omega)
    assert mu.mass(box(0.25, 1.0)) == pytest.approx(0.5, abs=1e-12)

    # dense-grid Riemann oracle, 200^d cells, agreement within 2/200
    grid = 200
    centers = (np.arange(grid) + 0.5) / grid
    xx, yy = np.meshgrid(centers, centers, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    inside_omega = omega.contains(pts)
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.random(2)
        in_box = np.all(pts <= a, axis=1)
        riemann = np.sum(inside_omega & in_box) / grid**2 / omega.volume
        assert abs(mu.mass(box(*a)) - riemann) <= 2.0 / grid


def test_restriction_overlapping_boxes_volume_exact():
    # two overlapping halves cover [0,1]^2 exactly once
    omega = OmegaRegion([([0.0, 0.0], [0.75, 1.0]), ([0.25, 0.0], [1.0, 1.0])])
    mu = RestrictionMeasure(omega)
    assert omega.volume == pytest.approx(1.0, abs=1e-15)
    assert mu.mass(box(0.5, 0.5)) == pytest.approx(0.25, abs=1e-12)


def test_discrete_mass_closed_vs_open():
    mu = DiscreteMeasure(PointSet([[0.25], [0.75]]))
    assert mu.mass(box(0.25, closed=True)) == pytest.approx(0.5)
    assert mu.mass(box(0.25, closed=False)) == 0.0


def test_mass_errors():
    mu = uniform_measure(2)
    with pytest.raises(DimensionMismatchError):
        mu.mass(box(0.5))
    with pytest.raises(ValueError):
        box(1.5, 0.5)
    with pytest.raises(ValueError):
        box(-0.1)


def test_region_without_coordinates_refused():
    # a box with no coordinates is malformed, like a box without its hi corner
    # or boxes of different dimensions
    for boxes in ([([], [])], [([], []), ([], [])], [], [([0.1],)], [([0.1], [0.2]), ([], [])]):
        with pytest.raises(ValueError, match="at least one coordinate"):
            OmegaRegion(boxes)
    for boxes in ([[[], []]], [[[0.1]]]):
        with pytest.raises(ValueError, match="at least one coordinate"):
            measure_from_config({"type": "restriction", "boxes": boxes})


@pytest.mark.parametrize("theta", [0.0, -2.0, float("inf"), float("nan")])
def test_power_cdf_refuses_theta_not_positive_and_finite(theta):
    # theta = inf would sample every point at 1.0, where a scan against the
    # measure reads 1.0 for a true discrepancy of 0
    with pytest.raises(ValueError, match="positive and finite"):
        PowerCdf(theta)
    with pytest.raises(ValueError, match="positive and finite"):
        measure_from_config({"type": "product", "cdfs": [{"type": "power", "theta": theta}]})


def test_nan_coordinates_refused():
    # every range check is a positive test, which NaN fails
    nan = float("nan")
    with pytest.raises(ValueError, match=r"\[0,1\]"):
        PointSet([[0.2], [nan], [0.7]])
    with pytest.raises(ValueError, match=r"\[0,1\]"):
        AnchoredBox(np.array([nan]))
    with pytest.raises(ValueError, match=r"\[0,1\]"):
        uniform_measure(1).mass_on_grid([np.array([nan])], True)
    for boxes in ([([nan], [0.5]), ([0.0], [1.0])], [([0.0], [nan])]):
        with pytest.raises(ValueError, match="lo <= hi"):
            OmegaRegion(boxes)
    with pytest.raises(ValueError, match="increasing"):
        PiecewiseLinearCdf([[0, 0], [nan, 0.5], [1, 1]])
    with pytest.raises(ValueError, match="finite"):
        PiecewiseLinearCdf([[0, 0], [0.5, nan], [1, 1]])
    # a decreasing knot value is still built, and flagged by validate
    assert not validate(ProductMeasure([PiecewiseLinearCdf([[0, 0], [0.5, 0.9], [0.7, 0.2], [1, 1]])]))


def test_full_cube_normalization_all_families():
    families = [
        uniform_measure(3),
        ProductMeasure([PowerCdf(0.5), PowerCdf(3.0)]),
        ProductMeasure([PiecewiseLinearCdf([(0, 0), (0.3, 0.7), (1, 1)])]),
        RestrictionMeasure(OmegaRegion([([0.1, 0.2], [0.7, 0.9])])),
        DiscreteMeasure(uniform_measure(2).sample(0, 37)),
    ]
    for mu in families:
        full = AnchoredBox(np.ones(mu.dim), closed=True)
        assert mu.mass(full) == pytest.approx(1.0, abs=1e-12)


def test_monotonicity_random_pairs_all_families():
    rng = np.random.default_rng(42)
    families = [
        ProductMeasure([PowerCdf(2.0), UniformCdf()]),
        RestrictionMeasure(OmegaRegion([([0, 0], [0.5, 1]), ([0.5, 0], [1, 0.5])])),
        DiscreteMeasure(uniform_measure(2).sample(3, 50)),
    ]
    for mu in families:
        for _ in range(50):
            a = rng.random(mu.dim)
            b = a + rng.random(mu.dim) * (1 - a)
            assert mu.mass(AnchoredBox(a)) <= mu.mass(AnchoredBox(b)) + 1e-12


def test_sample_uniform_law_of_large_numbers():
    mu = uniform_measure(1)
    pts = mu.sample(seed=7, count=10**4)
    assert abs(pts.points.mean() - 0.5) <= 0.02  # 4 sigma


def test_sample_power_cdf_value():
    mu = ProductMeasure([PowerCdf(2.0)])
    pts = mu.sample(seed=5, count=10**4)
    ecdf_half = np.mean(pts.points[:, 0] <= 0.5)
    assert abs(ecdf_half - 0.25) <= 0.02


def test_sample_restriction_stays_inside():
    omega = OmegaRegion([([0.2, 0.3], [0.6, 0.8])])
    mu = RestrictionMeasure(omega)
    pts = mu.sample(seed=1, count=500)
    assert omega.contains(pts.points).all()


@pytest.mark.parametrize(
    "boxes",
    [
        [([0.0, 0.0], [1.0, 0.5]), ([0.0, 0.5], [0.5, 1.0])],  # the L region
        [([0.0, 0.0], [0.5, 1.0]), ([0.25, 0.25], [0.75, 0.75]), ([0.5, 0.0], [1.0, 0.5])],  # overlapping
    ],
    ids=["L", "overlapping"],
)
def test_sample_restriction_is_the_cell_formula_bitwise(boxes):
    # each point is its cell's lower corner plus the uniform draw times the
    # cell's width, the cell drawn by volume, bitwise
    omega = OmegaRegion(boxes)
    for seed, count in ((0, 1), (3, 1000), (4, 70_000)):
        rng = np.random.default_rng(seed)
        cum = np.cumsum(omega.cell_vol) / omega.volume
        which = np.minimum(np.searchsorted(cum, rng.random(count), side="right"), len(cum) - 1)
        u = rng.random((count, 2))
        lo, hi = omega.cell_lo[which], omega.cell_hi[which]
        expect = lo + u * (hi - lo)
        assert RestrictionMeasure(omega).sample(seed, count).points.tobytes() == expect.tobytes()


def test_sample_deterministic_given_seed():
    mu = ProductMeasure([PowerCdf(2.0), UniformCdf()])
    a = mu.sample(seed=9, count=64).points
    b = mu.sample(seed=9, count=64).points
    assert np.array_equal(a, b)


def test_samplers_and_config_refuse_counts_that_are_not_whole():
    # a float, a bool, a string or a count below 1 is refused, not
    # truncated; a numpy integer draws the points of the int
    pts = PointSet([[0.2, 0.4], [0.6, 0.8]])
    for mu in (
        ProductMeasure([PowerCdf(2.0), UniformCdf()]),
        RestrictionMeasure([([0.0, 0.0], [1.0, 0.5])]),
        DiscreteMeasure(pts),
        ProductExtensionMeasure(ProductMeasure([PowerCdf(2.0)])),
    ):
        for bad in (2.5, True, "3", 0, -1):
            with pytest.raises(ValueError, match="count="):
                mu.sample(0, bad)
        assert mu.sample(4, np.int64(3)).points.tobytes() == mu.sample(4, 3).points.tobytes()
    for bad in (2.5, True, "2", 0):
        with pytest.raises(ValueError, match="d="):
            measure_from_config({"type": "uniform", "d": bad})
    assert measure_from_config({"type": "uniform", "d": np.int64(3)}).dim == 3


def test_validate_pass_and_fail():
    assert validate(uniform_measure(3)).passed
    assert validate(ProductMeasure([PowerCdf(0.5), PowerCdf(3.0)])).passed
    bad = ProductMeasure([PiecewiseLinearCdf([(0, 0), (0.5, 0.8), (0.75, 0.5), (1, 1)])])
    diag = validate(bad)
    assert not diag.passed
    assert any(name == "monotonicity" and not ok for name, ok, _ in diag.checks)


def test_discrete_approximates_parent_measure():
    # soft statistical check: empirical mass of a K-sample tracks mu
    mu = ProductMeasure([PowerCdf(2.0), UniformCdf()])
    k = 10**4
    disc = DiscreteMeasure(mu.sample(seed=11, count=k))
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        a = AnchoredBox(rng.random(2))
        worst = max(worst, abs(disc.mass(a) - mu.mass(a)))
    assert worst <= 3.0 * np.sqrt(2.0 / k) * 5.0


def test_product_extension_mass_and_sample():
    mu = ProductMeasure([PowerCdf(2.0)])
    nu = ProductExtensionMeasure(mu)
    assert nu.dim == 2
    assert nu.mass(box(0.5, 0.5)) == pytest.approx(0.125, abs=1e-15)
    pts = nu.sample(seed=2, count=200)
    assert pts.dim == 2


def test_measure_from_config_roundtrip(tmp_path):
    cfg = {
        "type": "product",
        "cdfs": [
            {"type": "power", "theta": 2.0},
            {"type": "piecewise", "knots": [[0, 0], [0.5, 0.8], [1, 1]]},
            {"type": "uniform"},
        ],
    }
    mu = measure_from_config(cfg)
    assert mu.dim == 3
    assert mu.mass(AnchoredBox(np.array([0.5, 0.5, 0.5]))) == pytest.approx(
        0.25 * 0.8 * 0.5, abs=1e-12
    )

    omega_cfg = {"type": "restriction", "boxes": [[[0.0, 0.0], [0.5, 1.0]]]}
    mu2 = measure_from_config(omega_cfg)
    assert mu2.mass(AnchoredBox(np.array([0.25, 1.0]))) == pytest.approx(0.5)

    atoms = tmp_path / "atoms.csv"
    atoms.write_text("0.25\n0.75\n")
    mu3 = measure_from_config({"type": "discrete", "points": str(atoms)})
    assert mu3.mass(AnchoredBox(np.array([0.25]))) == pytest.approx(0.5)
    # blank lines are skipped, and decimal strings parse to the nearest double
    atoms.write_text("0.1,0.30000000000000004\n\n0.7,1e-300\n")
    mu4 = measure_from_config({"type": "discrete", "points": str(atoms)})
    assert mu4.atoms.points.tolist() == [[0.1, 0.30000000000000004], [0.7, 1e-300]]

    path = tmp_path / "m.json"
    path.write_text('{"type": "uniform", "d": 2}')
    assert measure_from_config(path).dim == 2


def test_zero_corner_open_mass_zero():
    for mu in (uniform_measure(2), DiscreteMeasure(PointSet([[0.0, 0.0]]))):
        assert mu.mass(AnchoredBox(np.array([0.0, 0.7]), closed=False)) == 0.0


def test_mass_on_grid_returns_fresh_writable_arrays():
    # the exact scans write into the mass grid, so it may not alias an axis
    axes2 = [np.array([0.25, 0.5, 1.0]), np.array([0.5, 1.0])]
    cases = [
        (uniform_measure(1), axes2[:1]),
        (ProductMeasure([PowerCdf(2.0), UniformCdf()]), axes2),
        (RestrictionMeasure(OmegaRegion([([0.0, 0.0], [0.5, 1.0])])), axes2),
        (DiscreteMeasure(PointSet([[0.25, 0.5], [0.5, 1.0]])), axes2),
        (ProductExtensionMeasure(uniform_measure(1)), axes2),
    ]
    for mu, axes in cases:
        for closed in (True, False):
            grid = mu.mass_on_grid(axes, closed)
            assert grid.flags.writeable
            assert not any(np.shares_memory(grid, ax) for ax in axes)
            # the scans stream the grid in row blocks: any contiguous slice of
            # axis 0 gives those rows of the whole grid, bit for bit
            for lo, hi in itertools.combinations(range(len(axes[0]) + 1), 2):
                rows = mu.mass_on_grid([axes[0][lo:hi], *axes[1:]], closed)
                assert rows.tobytes() == grid[lo:hi].tobytes()


class _BincountDiscrete(DiscreteMeasure):
    """The masses of a discrete measure as a histogram of each atom's first
    corner on every axis, cumulated along every axis: the oracle of the
    corner-count masses."""

    def mass_on_grid(self, axes, closed=True):
        self._check_axes(axes)
        shape = tuple(len(np.asarray(a)) for a in axes)
        first = []
        ok = np.ones(self.k, dtype=bool)
        for s in range(self.dim):
            ax = np.asarray(axes[s], dtype=float)
            f = np.searchsorted(ax, self.atoms.points[:, s], side="left" if closed else "right")
            first.append(f)
            ok &= f < len(ax)
        flat = np.ravel_multi_index([f[ok] for f in first], shape)
        counts = np.bincount(flat, minlength=int(np.prod(shape))).reshape(shape)
        for axis in range(self.dim):
            np.cumsum(counts, axis=axis, out=counts)
        return counts / float(self.k)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_discrete_masses_are_the_histograms_bitwise(d):
    # tied atoms on a k/8 grid, atoms at 0.0 (one a -0.0) and 1.0, free
    # atoms; corners on the atoms, between them, at 0.0 and 1.0, as the
    # increasing sub-grids the scans ask for, a repeated corner, and an axis
    # of no corner; closed and open boxes, and through a product extension
    rng = np.random.default_rng(60 + d)
    points = np.concatenate([rng.integers(0, 9, (40, d)) / 8.0, rng.random((30, d)), np.zeros((2, d)), np.ones((1, d))])
    points[0, 0] = -0.0
    for atoms in (points, points[:1], points[40:70]):
        new, old = DiscreteMeasure(PointSet(atoms)), _BincountDiscrete(PointSet(atoms))
        pairs = [(new, old), (ProductExtensionMeasure(new), ProductExtensionMeasure(old))]
        for (mu, ref), trial in itertools.product(pairs, range(12)):
            axes = []
            for s in range(mu.dim):
                pool = np.unique(np.concatenate([np.abs(points[:, s % d]), rng.random(20), [0.0, 1.0]]))
                axes.append(np.sort(rng.choice(pool, int(rng.integers(1, pool.size)), replace=False)))
            if trial == 1:
                axes[0] = np.repeat(axes[0], 2)
            if trial in (2, 3):
                axes[trial % mu.dim] = np.zeros(0)
            for closed in (True, False):
                got, expect = mu.mass_on_grid(axes, closed), ref.mass_on_grid(axes, closed)
                assert got.shape == expect.shape == tuple(a.size for a in axes) and got.dtype == expect.dtype
                assert got.tobytes() == expect.tobytes()
                assert got.flags.writeable and got.flags.owndata


def _cells_cell_by_cell(lo, hi):
    """The cells of an OmegaRegion one at a time, as (cell_lo, cell_hi): every
    cell of the endpoint grid whose midpoint lies in a box, in C order; None
    when no cell does."""
    grids = [np.unique(np.concatenate([lo[:, s], hi[:, s]])) for s in range(lo.shape[1])]
    cells = []
    for ix in itertools.product(*[range(g.size - 1) for g in grids]):
        clo = np.array([g[i] for g, i in zip(grids, ix)])
        chi = np.array([g[i + 1] for g, i in zip(grids, ix)])
        mid = 0.5 * (clo + chi)
        if np.any(np.all((lo <= mid) & (mid <= hi), axis=1)):
            cells.append((clo, chi))
    return (np.array([c[0] for c in cells]), np.array([c[1] for c in cells])) if cells else None


@pytest.mark.parametrize("d", [1, 2, 3])
def test_region_cells_are_the_cell_by_cell_sweep_bitwise(d):
    # random unions of boxes on shared and free endpoints, flat boxes among
    # them, and regions of flat boxes only, which are refused
    rng = np.random.default_rng(70 + d)
    for trial in range(40):
        count = int(rng.integers(1, 5))
        ends = np.sort(np.where(rng.random((count, 2, d)) < 0.5, rng.integers(0, 5, (count, 2, d)) / 4.0,
                                rng.random((count, 2, d))), axis=1)
        if trial % 5 < 2:  # every box flat on one axis, or the first one
            flat = (slice(None if trial % 5 == 0 else 1), int(rng.integers(0, d)))
            ends[:, 1][flat] = ends[:, 0][flat]
        expect = _cells_cell_by_cell(ends[:, 0], ends[:, 1])
        if expect is None:
            with pytest.raises(ValueError, match="zero volume"):
                OmegaRegion(list(zip(ends[:, 0], ends[:, 1])))
            continue
        omega = OmegaRegion(list(zip(ends[:, 0], ends[:, 1])))
        assert omega.cell_lo.tobytes() == expect[0].tobytes() and omega.cell_lo.shape == expect[0].shape
        assert omega.cell_hi.tobytes() == expect[1].tobytes() and omega.cell_hi.shape == expect[1].shape
        assert omega.volume == float(np.prod(expect[1] - expect[0], axis=1).sum())
