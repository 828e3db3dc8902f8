"""End-to-end constructions, the block sequence, and size calculators."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from nuqmc.discrepancy import discrete_discrepancy, exact_star_discrepancy
from nuqmc.measures import (
    DiscreteMeasure,
    OmegaRegion,
    PointSet,
    PowerCdf,
    ProductExtensionMeasure,
    ProductMeasure,
    RestrictionMeasure,
    UniformCdf,
    uniform_measure,
)
from nuqmc.pipeline import (
    ConstructionConfig,
    alexander_bound,
    block_offset,
    block_size,
    construct_point_set,
    inverse_size,
    next_point,
    prefix_certificate_envelope,
    take_sequence,
    SequenceState,
)


def test_construct_single_point():
    pts, cert = construct_point_set(uniform_measure(2), 1, ConstructionConfig(seed=0))
    assert pts.n == 1
    assert exact_star_discrepancy(pts, uniform_measure(2)).value <= 1.0
    assert cert["bound"] <= 1.0


def test_construct_beats_iid_median_power2():
    mu = ProductMeasure([PowerCdf(2.0)])
    pts, cert = construct_point_set(mu, 64, ConstructionConfig(seed=4))
    d_built = exact_star_discrepancy(pts, mu).value
    assert d_built <= cert["bound"] + 1e-12
    iid = np.median(
        [exact_star_discrepancy(mu.sample(1000 + s, 64), mu).value for s in range(50)]
    )
    assert d_built < iid


def test_construct_certificate_stacks():
    mu = RestrictionMeasure(OmegaRegion([([0.0], [0.5])]))
    pts, cert = construct_point_set(mu, 16, ConstructionConfig(seed=2))
    assert cert["sampling_mode"] == "measured"
    d_built = exact_star_discrepancy(pts, mu).value
    assert d_built <= cert["bound"] + 1e-12
    assert d_built <= cert["achieved_bound"] + 1e-12
    # constructed points live in the region (Omega-adapted route)
    assert np.all(pts.points[:, 0] <= 0.5)


def test_construct_d2_engine_trace():
    # power(2)^2 at N=64: one LP jump freezes all but 256 of the 4096 cells
    mu = ProductMeasure([PowerCdf(2.0), PowerCdf(2.0)])
    pts, cert = construct_point_set(mu, 64, ConstructionConfig(seed=0))
    # the points of the per-edge-list implementation
    digest = "6f7f1e1635a8eaaf3dacd79d8683c805c66a4a8e5638990cf0b11a34920d58f8"
    assert hashlib.sha256(pts.points.tobytes()).hexdigest() == digest
    trace = cert["selection"]["rounding"]["engine_trace"]
    assert (trace["lp_jumps"], trace["lp_frozen"], trace["null_steps"]) == (1, 3840, 0)
    # 769 active rows, 321 of them the sum of their two halves' rows
    assert (trace["lp_rows"], trace["lp_implied_rows"]) == (448, 321)
    assert trace["pairing_frozen"] + trace["lp_frozen"] + trace["final_snapped"] == 64 * 64


def test_construct_d1_pinned():
    # the scan-d1 bench case: power(2) at N=256, K = 1.05M; points and
    # certificate terms of the build that scattered ranks to input order
    mu = ProductMeasure([PowerCdf(2.0)])
    pts, cert = construct_point_set(mu, 256, ConstructionConfig(seed=0))
    digest = "f872656e858aeb977fc1a672de27ef433aa67a458b23f391af2965fc6a92b3c0"
    assert hashlib.sha256(pts.points.tobytes()).hexdigest() == digest
    assert cert["sampling_term"] == 0.0011740828263950842
    assert cert["selection_dd"] == 0.999755859375
    assert cert["bound"] == 0.04170106903581661


def test_construct_refuses_lattice_before_sampling():
    # N=16384 at d=2 would sample K = 2^32 points (about 69 GB) before the
    # 2^28-point lattice is refused; the paper policy at d=1 N=4 would sample
    # K = 2^30 points (8.6 GB) on a 4-point lattice
    from nuqmc.discrepancy import BudgetExceededError

    class NoSampling(ProductMeasure):
        def sample(self, seed, count):
            raise AssertionError(f"sampled {count} points")

    for cdfs, n, cfg, match in (
        ([PowerCdf(2.0), PowerCdf(2.0)], 16384, None, "lattice"),
        ([UniformCdf()], 4, ConstructionConfig(k_policy="paper"), "sample budget"),
    ):
        with pytest.raises(BudgetExceededError, match=match):
            construct_point_set(NoSampling(cdfs), n, cfg)


def test_construct_from_discrete_measure():
    # heavy ties: the source measure is itself an atom set
    from nuqmc.measures import DiscreteMeasure

    atoms = uniform_measure(1).sample(0, 50)
    mu = DiscreteMeasure(atoms)
    pts, cert = construct_point_set(mu, 8, ConstructionConfig(seed=3))
    assert exact_star_discrepancy(pts, mu).value <= cert["bound"] + 1e-12


@pytest.mark.parametrize(
    "case",
    ["power2-d1", "power2-d2", "discrete-d1", "discrete-d2", "extension-block"],
)
def test_construct_scans_equal_standalone_scans(case):
    # the shared sort of the K-point cloud gives the certificate the exact
    # values of the standalone scans, which sort for themselves
    rng = np.random.default_rng(30)
    # atoms on a k/8 (k/4) grid: ties in the cloud and jump coordinates
    atoms_2d = PointSet(rng.integers(0, 9, size=(200, 2)) / 8.0)
    atoms_1d = PointSet(rng.integers(0, 5, size=(30, 1)) / 4.0)
    mu, n = {
        "power2-d1": (ProductMeasure([PowerCdf(2.0)]), 64),
        "power2-d2": (ProductMeasure([PowerCdf(2.0), PowerCdf(2.0)]), 16),
        "discrete-d1": (DiscreteMeasure(atoms_1d), 16),
        "discrete-d2": (DiscreteMeasure(atoms_2d), 8),
        "extension-block": (ProductExtensionMeasure(DiscreteMeasure(atoms_1d)), 4),
    }[case]
    cfg = ConstructionConfig(seed=2)
    pts, cert = construct_point_set(mu, n, cfg)
    z = mu.sample(cfg.seed, cfg.resolve_k(n, mu.dim))
    assert cert["sampling_mode"] == "measured" and cert["selection_dd"] is not None
    assert cert["sampling_term"] == exact_star_discrepancy(z, mu).value
    assert cert["selection_dd"] == discrete_discrepancy(pts, z)


def test_construction_scans_stream_below_a_sixteenth_of_a_grid():
    # the N=16 L-region build scans the cloud's 4097 x 4097 grid (134 MB of
    # float64) in both variants, and the selection scan the subset's grid;
    # streamed in row blocks, the whole build stays far below one cloud grid
    mu = RestrictionMeasure([([0.0, 0.0], [1.0, 0.5]), ([0.0, 0.5], [0.5, 1.0])])
    grid_bytes = 4097 * 4097 * 8
    tracemalloc.start()
    try:
        _, cert = construct_point_set(mu, 16, ConstructionConfig(seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert["k"] == 4096
    assert cert["sampling_mode"] == "measured" and cert["selection_dd"] is not None
    assert peak < grid_bytes / 16


@pytest.mark.parametrize("case", ["power2-d2-64", "L-region-128"])
def test_selection_discrepancy_measured_past_the_cloud_grid_budget(case):
    # the clouds' grids (65537^2 and 262145^2 cells) are over the scan budget,
    # the subsets' grids (at most 129^2 and 257^2 cells) are not
    mu, n = {
        "power2-d2-64": (ProductMeasure([PowerCdf(2.0), PowerCdf(2.0)]), 64),
        "L-region-128": (
            RestrictionMeasure(OmegaRegion([([0.0, 0.0], [0.5, 1.0]), ([0.5, 0.0], [1.0, 0.5])])),
            128,
        ),
    }[case]
    cfg = ConstructionConfig(seed=0)
    pts, cert = construct_point_set(mu, n, cfg)
    z = mu.sample(cfg.seed, cfg.resolve_k(n, mu.dim))
    assert cert["sampling_mode"] == "nominal" and cert["selection_dd"] is not None
    assert cert["selection_dd"] == discrete_discrepancy(pts, z)
    assert cert["achieved_bound"] < cert["bound"]


def test_k_policies():
    cfg = ConstructionConfig("paper")
    assert cfg.resolve_k(4, 2) == 2**26 * 2 * 16
    assert ConstructionConfig("scaled", scale_c=16).resolve_k(10, 1) == 1600
    assert ConstructionConfig(400).resolve_k(20, 1) == 400
    with pytest.raises(ValueError):
        ConstructionConfig(100).resolve_k(20, 1)  # N > sqrt(K)


def test_construct_determinism():
    mu = uniform_measure(1)
    a, _ = construct_point_set(mu, 32, ConstructionConfig(seed=7))
    b, _ = construct_point_set(mu, 32, ConstructionConfig(seed=7))
    assert np.array_equal(a.points, b.points)


def test_construct_d2_uniform_with_lattice_comparison():
    mu = uniform_measure(2)
    pts, cert = construct_point_set(mu, 16, ConstructionConfig(seed=8))
    d_built = exact_star_discrepancy(pts, mu).value
    assert d_built <= cert["bound"] + 1e-12
    # known-good 4x4 centered lattice, reported for scale only
    g = (2 * np.arange(1, 5) - 1) / 8
    lattice = PointSet(np.array([(a, b) for a in g for b in g]))
    d_lattice = exact_star_discrepancy(lattice, mu).value
    print(f"\nd=2 N=16: constructed {d_built:.4f} vs centered lattice {d_lattice:.4f}")


def test_dominance_across_measure_families():
    # certificate and i.i.d.-median dominance over 20 seeds for three
    # measure families in d = 1
    measures = {
        "uniform": uniform_measure(1),
        "power2": ProductMeasure([PowerCdf(2.0)]),
        "restriction": RestrictionMeasure(OmegaRegion([([0.0], [0.5])])),
    }
    for name, mu in measures.items():
        for n in (16, 64, 256):
            iid = np.median([
                exact_star_discrepancy(mu.sample(40_000 + n + s, n), mu).value
                for s in range(50)
            ])
            for seed in range(20):
                pts, cert = construct_point_set(mu, n, ConstructionConfig(seed=seed))
                d_built = exact_star_discrepancy(pts, mu).value
                assert d_built <= cert["bound"] + 1e-12, (name, n, seed)
                assert d_built < iid, (name, n, seed, d_built, iid)


# --- sequence ---------------------------------------------------------------


def test_block_sizes_and_offsets():
    assert [block_size(i) for i in (1, 2, 3, 4)] == [1, 4, 64, 16384]
    assert [block_offset(i) for i in (1, 2, 3, 4)] == [0, 1, 5, 69]


def test_first_point_is_block_one():
    mu = ProductMeasure([PowerCdf(2.0)])
    state = SequenceState()
    p, state = next_point(state, mu, ConstructionConfig(seed=1))
    assert state.block_index == 1 and state.pos == 1
    assert p.shape == (1,)


def test_block_index_after_five_points():
    mu = uniform_measure(1)
    state = SequenceState()
    cfg = ConstructionConfig(seed=3)
    for _ in range(5):
        _, state = next_point(state, mu, cfg)
    # blocks 1 (1 point) and 2 (4 points) exhausted
    assert state.block_index == 2 and state.pos == 4
    _, state = next_point(state, mu, cfg)
    assert state.block_index == 3


def test_sequence_prefix_consistency():
    # first M_i points coincide with the concatenation of projected blocks
    mu = ProductMeasure([PowerCdf(2.0)])
    cfg = ConstructionConfig(seed=5)
    seq, _ = take_sequence(mu, 8, cfg)
    seq2, _ = take_sequence(mu, 5, cfg)
    assert np.array_equal(seq.points[:5], seq2.points)


def test_sequence_auxiliary_coordinate_strictly_increasing():
    mu = uniform_measure(1)
    state = SequenceState()
    cfg = ConstructionConfig(seed=2)
    for _ in range(6):
        _, state = next_point(state, mu, cfg)
    aux = state.block_full[:, -1]
    assert np.all(np.diff(aux) > 0)


def test_sequence_prefix_envelopes_d1():
    mu = ProductMeasure([PowerCdf(2.0)])
    seq, state = take_sequence(mu, 12, ConstructionConfig(seed=1))
    for n in range(1, 13):
        d_pref = exact_star_discrepancy(PointSet(seq.points[:n]), mu).value
        env = prefix_certificate_envelope(state.block_certificates, n)
        assert d_pref <= env + 1e-12


def test_reference_constants_recorded():
    from nuqmc.pipeline import reference_sequence_bound

    mu = uniform_measure(1)
    _, cert = construct_point_set(mu, 16, ConstructionConfig(seed=0))
    assert cert["reference_bound"] == pytest.approx(63.0 * (2 + 4) ** 2 / 16)
    assert reference_sequence_bound(4, 1) == pytest.approx(133.0 * np.sqrt(2) * 8.0**3.5 / 4)


# --- inverse size -----------------------------------------------------------


def test_inverse_size_paper_examples():
    assert inverse_size(1, 0.5) == 268435456
    assert inverse_size(2, 1.0) == 134217728


def test_inverse_size_paper_exact_rational():
    # exact ceil of 2^26 d / eps^2 for the binary value of eps
    from fractions import Fraction

    for d in (1, 2, 3, 7):
        for eps in (0.5, 0.25, 0.1, 0.3, 0.9):
            expected = -((-(2**26) * d * Fraction(eps) ** -2) // 1)
            assert inverse_size(d, eps) == int(expected)


def test_inverse_size_empirical_d1():
    n = inverse_size(1, 0.1, mode="empirical", trials=20)
    assert n <= 2000
    # the defining property: most i.i.d. samples of that size pass
    mu = uniform_measure(1)
    ok = sum(
        exact_star_discrepancy(mu.sample(s, n), mu).value <= 0.1 for s in range(20)
    )
    assert ok >= 14


def test_inverse_size_empirical_rejects_high_dim():
    with pytest.raises(ValueError):
        inverse_size(3, 0.5, mode="empirical")


# --- alexander bound ----------------------------------------------------------


def test_alexander_threshold_numeric_oracle():
    # second threshold is sqrt(2^25 d ln 4); numeric oracle for d=1
    oracle = math.sqrt(2**25 * math.log(4.0))
    res = alexander_bound(5000.0, 10**6, 1)
    assert res["threshold_absolute"] == pytest.approx(oracle, rel=1e-12)
    assert res["conditions_met"] == (True, False)
    assert res["bound"] is None
    assert 5000.0 < oracle < 8192.0


def test_alexander_proof_regime():
    for d in range(1, 9):
        t = 2**13 * math.sqrt(d)
        n = 9216 * d  # sqrt(N) = 96 sqrt(d)
        res = alexander_bound(t, n, d)
        assert res["conditions_met"] == (True, True)
        assert res["bound"] == pytest.approx(16.0 * math.exp(-(t**2)))


def test_alexander_both_fail():
    res = alexander_bound(1.0, 100, 1)
    assert res["conditions_met"] == (False, False)
    assert res["bound"] is None
