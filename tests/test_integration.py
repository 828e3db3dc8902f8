"""Region-adapted cubature: reference quadrature, region discrepancy, and the
variation-bound fixtures."""

import itertools
import math

import numpy as np
import pytest

from nuqmc import discrepancy
from nuqmc.discrepancy import exact_star_discrepancy
from nuqmc.integration import (
    BUILTIN_INTEGRANDS,
    Integrand,
    benchmark,
    benchmark_csv,
    integrate,
    omega_discrepancy,
    reference_integral,
)
from nuqmc.measures import OmegaRegion, PointSet, RestrictionMeasure, uniform_measure
from nuqmc.pipeline import ConstructionConfig, construct_point_set

L_SHAPE = OmegaRegion([([0.0, 0.0], [0.5, 1.0]), ([0.5, 0.0], [1.0, 0.5])])


def dense_omega_discrepancy_oracle(ps, omega, grid=801):
    """Brute-force d=1 oracle: sweep anchored boxes [0, a] on a fine grid and
    at the exact critical coordinates, both variants."""
    assert ps.dim == 1
    criticals = np.unique(np.concatenate([ps.points[:, 0], np.linspace(0, 1, grid)]))
    inside = omega.contains(ps.points)
    best = 0.0
    for a in criticals:
        lam = float(omega.intersection_volume_grid([np.array([a])])[0])
        cnt_closed = np.sum(inside & (ps.points[:, 0] <= a))
        cnt_open = np.sum(inside & (ps.points[:, 0] < a))
        best = max(best, abs(cnt_closed / ps.n - lam), abs(cnt_open / ps.n - lam))
    return 2.0 * best


def test_reference_constant():
    ig = Integrand(lambda x: np.full(len(x), 3.25), L_SHAPE)
    assert reference_integral(ig) == pytest.approx(3.25, abs=1e-12)


def test_reference_linear_on_half_strip():
    omega = OmegaRegion([([0.0, 0.0], [0.5, 1.0])])
    ig = Integrand(lambda x: x[:, 0], omega)
    assert reference_integral(ig) == pytest.approx(0.25, abs=1e-12)


def test_reference_sine():
    omega = OmegaRegion([([0.0], [1.0])])
    ig = Integrand(lambda x: np.sin(np.pi * x[:, 0]), omega)
    assert reference_integral(ig) == pytest.approx(2.0 / math.pi, abs=1e-10)


def test_reference_node_doubling_self_consistency():
    for ig in (
        Integrand(lambda x: x.sum(axis=1), L_SHAPE),
        Integrand(lambda x: np.sin(np.pi * x[:, 0]) * x[:, 1], L_SHAPE),
    ):
        a = reference_integral(ig, nodes=32)
        b = reference_integral(ig, nodes=64)
        assert abs(a - b) < 1e-9


def test_omega_discrepancy_full_cube_reduction():
    pts = uniform_measure(2).sample(3, 20)
    omega = OmegaRegion([([0.0, 0.0], [1.0, 1.0])])
    plain = exact_star_discrepancy(pts, uniform_measure(2)).value
    assert omega_discrepancy(pts, omega) == pytest.approx(4.0 * plain, abs=1e-12)


def test_omega_discrepancy_d1_oracle_value():
    omega = OmegaRegion([([0.0], [0.5])])
    ps = PointSet([[0.25]])
    val = omega_discrepancy(ps, omega)
    oracle = dense_omega_discrepancy_oracle(ps, omega)
    assert val == pytest.approx(oracle, abs=1e-12)
    assert val == pytest.approx(1.5, abs=1e-12)  # closed corner a=0.25: |1 - 0.25|


def test_omega_discrepancy_all_points_outside():
    omega = OmegaRegion([([0.0, 0.0], [1.0, 0.5])])  # volume 0.5
    ps = PointSet([[0.2, 0.9], [0.7, 0.8]])
    assert omega_discrepancy(ps, omega) == pytest.approx(4.0 * 0.5, abs=1e-12)


def test_omega_discrepancy_random_d1_matches_oracle():
    rng = np.random.default_rng(1)
    omega = OmegaRegion([([0.0], [0.3]), ([0.5], [0.9])])
    for _ in range(5):
        ps = PointSet(rng.random((12, 1)))
        assert omega_discrepancy(ps, omega) == pytest.approx(
            dense_omega_discrepancy_oracle(ps, omega), abs=1e-9
        )


def grid_omega_discrepancy_oracle(ps, omega):
    """Brute-force oracle for any d: every corner of the grid of all point
    coordinates, 0, 1 and the k/8 lattice, both variants, with direct counts
    of the points in Omega and one volume call per corner."""
    inside = omega.contains(ps.points)
    axes = [
        sorted(set(ps.points[:, s].tolist()) | {k / 8 for k in range(9)})
        for s in range(ps.dim)
    ]
    best = 0.0
    for corner in itertools.product(*axes):
        c = np.array(corner)
        lam = float(omega.intersection_volume_grid([np.array([a]) for a in corner]).ravel()[0])
        closed = sum(1 for p, ok in zip(ps.points, inside) if ok and np.all(p <= c))
        open_ = sum(1 for p, ok in zip(ps.points, inside) if ok and np.all(p < c))
        best = max(best, abs(closed / ps.n - lam), abs(open_ / ps.n - lam))
    return 2.0**ps.dim * best


def check_omega_discrepancy_ties_and_outside_points_match_oracle():
    # snapped coordinates, duplicate rows, corners 0.0 and 1.0, and some or
    # all points outside the region
    rng = np.random.default_rng(31)
    for d in (1, 2, 3):
        omega = OmegaRegion(
            [([0.0] * d, [0.5] * d), ([0.5] + [0.0] * (d - 1), [0.75] + [0.25] * (d - 1))]
        )
        for _ in range(4):
            n = int(rng.integers(2, 8 if d < 3 else 5))
            pts = rng.integers(0, 9, size=(n, d)) / 8.0
            pts[0], pts[-1] = 0.0, 1.0
            ps = PointSet(np.concatenate([pts, pts[:2]]))
            assert 0 < np.sum(omega.contains(ps.points)) < ps.n
            assert omega_discrepancy(ps, omega) == pytest.approx(
                grid_omega_discrepancy_oracle(ps, omega), abs=1e-12
            )
        outside = PointSet(np.full((3, d), 0.875))
        assert not np.any(omega.contains(outside.points))
        assert omega_discrepancy(outside, omega) == pytest.approx(
            grid_omega_discrepancy_oracle(outside, omega), abs=1e-12
        )
        assert omega_discrepancy(outside, omega) == pytest.approx(
            2.0**d * omega.volume, abs=1e-12
        )


def test_omega_discrepancy_ties_and_outside_points_match_oracle():
    check_omega_discrepancy_ties_and_outside_points_match_oracle()


@pytest.mark.parametrize("block_cells", [1, 7])
def test_omega_discrepancy_in_small_row_blocks(block_cells, monkeypatch):
    # one-row and ragged blocks of the streamed scan, with carried counts
    monkeypatch.setattr(discrepancy, "_BLOCK_CELLS", block_cells)
    check_omega_discrepancy_ties_and_outside_points_match_oracle()


def test_omega_discrepancy_refuses_a_bad_n_override():
    # the normalizer pads the set with points outside Omega, so it is an
    # integer no smaller than the set: 0 gave inf, -1 a value above 2^d,
    # and floats and bools were taken as they came
    omega = OmegaRegion([([0.0, 0.0], [0.5, 0.5])])
    ps = PointSet([[0.1, 0.2], [0.4, 0.3]])
    for bad in (0, -1, 1, 2.5, 2.0, True, np.float64(3.0)):
        with pytest.raises(ValueError, match="n_override"):
            omega_discrepancy(ps, omega, n_override=bad)
    assert omega_discrepancy(ps, omega, n_override=np.int64(2)) == omega_discrepancy(ps, omega)
    assert 0.0 < omega_discrepancy(ps, omega, n_override=8) <= 4.0


def test_integrate_constant_exact():
    ig = Integrand(lambda x: np.ones(len(x)), L_SHAPE)
    pts = RestrictionMeasure(L_SHAPE).sample(0, 50)
    assert integrate(ig, pts) == 1.0


def test_integrate_centered_lattice_symmetry():
    omega = OmegaRegion([([0.0], [1.0])])
    ig = Integrand(lambda x: x[:, 0], omega)
    pts = PointSet(((2 * np.arange(1, 5) - 1) / 8).reshape(-1, 1))
    assert integrate(ig, pts) == pytest.approx(0.5, abs=1e-15)


def test_integrate_quarter_square_product():
    omega = OmegaRegion([([0.0, 0.0], [0.5, 0.5])])
    mu = RestrictionMeasure(omega)
    ig = Integrand(lambda x: x[:, 0] * x[:, 1], omega)
    ref = reference_integral(ig)
    assert ref == pytest.approx(0.0625, abs=1e-12)
    pts, cert = construct_point_set(mu, 64, ConstructionConfig(seed=6))
    err = abs(integrate(ig, pts) - ref)
    # certificate-scaled distance: sup|g| = 0.25 on Omega
    assert err <= cert["bound"] * 0.25 + 1e-12


def test_integrate_warns_on_outside_points():
    omega = OmegaRegion([([0.0, 0.0], [0.5, 0.5])])
    ig = Integrand(lambda x: np.ones(len(x)), omega)
    with pytest.warns(UserWarning, match="outside"):
        integrate(ig, PointSet([[0.9, 0.9], [0.1, 0.1]]))


# --- variation-bound fixtures --------------------------------------------------

# hand-derived V(f) = sum_u 2^(d-|u|) int |d^u f|:
#   g = 1 on L:        V = 2^2 * 1                     = 4
#   g = x1 + x2 on L:  V = 4*1 + 2*(1 + 1) + 0         = 8
#   g = sin(pi x), d=1, Omega=[0, 0.75]:
#                      V = 2*(2/pi) + int pi|cos|      = 4/pi + 2
FIXTURES = [
    ("const-1", lambda x: np.ones(len(x)), L_SHAPE, 4.0, 1.0),
    ("linear-sum", lambda x: x.sum(axis=1), L_SHAPE, 8.0, 2.0),
    (
        "sin-1d",
        lambda x: np.sin(np.pi * x[:, 0]),
        OmegaRegion([([0.0], [0.75])]),
        4.0 / math.pi + 2.0,
        1.0,
    ),
]


@pytest.mark.parametrize("name,g,omega,variation,sup_norm", FIXTURES)
def test_variation_bound_dominates_error(name, g, omega, variation, sup_norm):
    # padded-estimator inequality: the integration error is dominated by
    # (region discrepancy of the M-padded set) * V(f) / lambda(Omega)
    # plus the sup-norm tail ||g||_inf / N
    mu = RestrictionMeasure(omega)
    ig = Integrand(g, omega, sup_norm_hint=sup_norm, name=name)
    ref = reference_integral(ig)
    for n, seed in ((16, 0), (64, 1)):
        pts, _ = construct_point_set(mu, n, ConstructionConfig(seed=seed))
        err = abs(integrate(ig, pts) - ref)
        m_padded = math.ceil(n / omega.volume)
        d_m = omega_discrepancy(pts, omega, n_override=m_padded)
        bound = d_m * variation / omega.volume + sup_norm / n
        assert err <= bound + 1e-12, f"{name}: err {err} > bound {bound}"


def test_benchmark_rows_and_csv():
    ig = Integrand(BUILTIN_INTEGRANDS["const"][0], L_SHAPE, name="const")
    rows = benchmark(ig, [4, 8], seeds=[0, 1], cfg=ConstructionConfig(seed=0))
    assert all(r.abs_error == 0.0 for r in rows)  # g == 1 is integrated exactly
    methods = {r.method for r in rows}
    assert methods == {"constructed", "monte_carlo"}
    text = benchmark_csv(rows)
    assert text.splitlines()[0] == "n,method,seed,estimate,reference,error"
    assert len(text.splitlines()) == 1 + len(rows)


def test_benchmark_refuses_an_empty_seed_list():
    ig = Integrand(BUILTIN_INTEGRANDS["const"][0], L_SHAPE, name="const")
    with pytest.raises(ValueError, match="seeds"):
        benchmark(ig, [4], [])


def test_builtin_registry():
    x = np.array([[0.5, 0.5]])
    assert BUILTIN_INTEGRANDS["const"][0](x)[0] == 1.0
    assert BUILTIN_INTEGRANDS["linear-sum"][0](x)[0] == pytest.approx(1.0)
    assert BUILTIN_INTEGRANDS["product"][0](x)[0] == pytest.approx(0.25)
    assert BUILTIN_INTEGRANDS["sin-sum"][0](x)[0] == pytest.approx(2.0)
