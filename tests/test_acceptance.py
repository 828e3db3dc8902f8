"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured headline numbers (run with -s to see them).

Criteria and their tolerances are pinned here; every assertion is against a
quantity measured in this run or computed by an independent oracle.
"""

import math
import time
from fractions import Fraction

import numpy as np

from conftest import naive_star_discrepancy, prefix_count
from nuqmc.balancing import Hypergraph, beck_fiala_round
from nuqmc.discrepancy import discrete_discrepancy, exact_star_discrepancy
from nuqmc.dyadic import reference_prefix_bound, round_array
from nuqmc.integration import Integrand, integrate, omega_discrepancy, reference_integral
from nuqmc.measures import (
    DiscreteMeasure,
    OmegaRegion,
    PiecewiseLinearCdf,
    PointSet,
    PowerCdf,
    ProductMeasure,
    RestrictionMeasure,
    uniform_measure,
)
from nuqmc.pipeline import (
    ConstructionConfig,
    alexander_bound,
    block_offset,
    block_size,
    construct_point_set,
    inverse_size,
    prefix_certificate_envelope,
    take_sequence,
)
from nuqmc.selection import decompose, select_subset


def report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS  ({detail})")


# -----------------------------------------------------------------------------
# 1. Beck-Fiala guarantee: 500 random hypergraphs, zero tolerance, < 60 s
# -----------------------------------------------------------------------------


def test_criterion_1_beck_fiala_guarantee():
    t0 = time.time()
    rng = np.random.default_rng(20240501)
    worst_margin = -np.inf
    checked_edges = 0
    for i in range(500):
        n_max = 200 if i % 10 == 0 else 64
        m_max = 400 if i % 10 == 0 else 96
        n = int(rng.integers(4, n_max + 1))
        cap = int(rng.integers(1, 11))  # Delta <= 10
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
        h = Hypergraph(n, tuple(edges))
        assert h.max_degree <= 10 and h.m <= 400 and h.n <= 200
        beta = rng.random(n)
        beta[rng.random(n) < 0.2] = 0.0
        res = beck_fiala_round(h, beta)
        bound = max(2 * h.max_degree - 1, 0)
        # zero tolerance: every edge within the bound
        diff = beta - res.b
        for e in h.edges:
            checked_edges += 1
            assert abs(float(diff[e].sum())) <= bound
        worst_margin = max(worst_margin, res.achieved_error - bound)
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s target"
    report("1 (Beck-Fiala guarantee)",
           f"500 hypergraphs, {checked_edges} edges, worst margin {worst_margin:.3f}, "
           f"{elapsed:.1f}s")


# -----------------------------------------------------------------------------
# 2. Exact-scan equivalence with an independent naive enumeration, < 120 s
# -----------------------------------------------------------------------------


def _random_measure(rng, d, ps):
    kind = rng.integers(0, 5)
    if kind == 0:
        return uniform_measure(d)
    if kind == 1:
        return ProductMeasure([PowerCdf(float(rng.uniform(0.3, 3.0))) for _ in range(d)])
    if kind == 2:
        knots = [(0.0, 0.0), (float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.1, 0.9))), (1.0, 1.0)]
        return ProductMeasure([PiecewiseLinearCdf(knots)] + [PowerCdf(1.5)] * (d - 1))
    if kind == 3:
        lo = rng.uniform(0, 0.4, size=d)
        hi = rng.uniform(0.6, 1.0, size=d)
        return RestrictionMeasure(OmegaRegion([(lo, hi), (np.zeros(d), np.full(d, 0.5))]))
    # discrete, with some atoms placed exactly on point coordinates
    k = int(rng.integers(1, 14))
    atoms = rng.random((k, d))
    for row in range(min(k, ps.n)):
        if rng.random() < 0.5:
            atoms[row] = ps.points[row]
    return DiscreteMeasure(PointSet(atoms))


def test_criterion_2_exact_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(77)
    worst = 0.0
    for case in range(100):
        d = 1 + case % 2
        n = int(rng.integers(1, 65))
        ps = PointSet(rng.random((n, d)))
        mu = _random_measure(rng, d, ps)
        fast = exact_star_discrepancy(ps, mu).value
        slow = naive_star_discrepancy(ps, mu)
        worst = max(worst, abs(fast - slow))
        assert abs(fast - slow) <= 1e-12
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 120s target"
    report("2 (exact-scan oracle equivalence)",
           f"100 cases, max |fast - naive| = {worst:.2e}, {elapsed:.1f}s")


# -----------------------------------------------------------------------------
# 3. Prefix-rounding chain on the dyadic lattice, < 300 s
# -----------------------------------------------------------------------------


def test_criterion_3_dyadic_chain():
    t0 = time.time()
    rng = np.random.default_rng(3)
    lines = []
    for d in (1, 2):
        for n_side in (8, 16, 32, 64):
            for _ in range(2):
                beta = rng.random((n_side,) * d)
                b, cert = round_array(beta)
                assert (
                    cert["measured_prefix_error"]
                    <= cert["per_edge_error"] * cert["degree"] + 1e-9
                )
                assert (
                    cert["per_edge_error"] * cert["degree"]
                    <= cert["guaranteed_prefix_bound"] + 1e-9
                )
            lines.append(
                f"d={d} N={n_side}: measured {cert['measured_prefix_error']:.3f} "
                f"vs reference {reference_prefix_bound(n_side, d):.1f}"
            )
    elapsed = time.time() - t0
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 300s target"
    report("3 (dyadic prefix chain)", "; ".join(lines) + f"; {elapsed:.1f}s")


# -----------------------------------------------------------------------------
# 4. Selection end bound + slab-boundary checks, 20 seeded runs
# -----------------------------------------------------------------------------


def test_criterion_4_selection_end_bound():
    t0 = time.time()
    d1_grid = [
        (8, 256), (8, 1024), (8, 4096), (16, 1024), (16, 2048), (16, 4096),
        (32, 1024), (32, 2048), (32, 4096), (64, 4096), (64, 4096), (48, 4096),
    ]
    runs = [(1, k, n, seed) for seed, (n, k) in enumerate(d1_grid)]
    for seed in range(8):  # d = 2
        n = (8, 16, 16, 32, 32, 32, 64, 64)[seed]
        k = min(4096, 4 * n * n)
        runs.append((2, k, n, 100 + seed))
    assert len(runs) == 20
    assert all(n <= math.isqrt(k) and k <= 4096 and n <= 64 for _, k, n, _ in runs)
    measures = {
        1: ProductMeasure([PowerCdf(2.0)]),
        2: ProductMeasure([PowerCdf(2.0), PowerCdf(0.7)]),
    }
    rng = np.random.default_rng(9)
    worst_ratio = 0.0
    for d, k, n, seed in runs:
        z = measures[d].sample(seed, k)
        res = select_subset(z, n)
        dd = discrete_discrepancy(z, res.indices)
        assert dd <= res.certificate["box_bound"] + 1e-9
        worst_ratio = max(worst_ratio, dd / res.certificate["box_bound"])
        dc = decompose(z, n)
        bound = 2 * d * k / n
        for _ in range(50):
            j = rng.integers(1, max(n, 2), size=d)
            grow = prefix_count(dc.counts, j + 1) - prefix_count(dc.counts, j)
            assert grow <= bound + 1e-9
    elapsed = time.time() - t0
    report("4 (selection end bound)",
           f"20 runs, worst dd/box_bound = {worst_ratio:.3f}, 50 slab checks each, "
           f"{elapsed:.1f}s")


# -----------------------------------------------------------------------------
# 5. Full construction: certificate, i.i.d. dominance, rate, < 10 min
# -----------------------------------------------------------------------------


def test_criterion_5_construction_dominance_and_rate():
    t0 = time.time()
    mu = ProductMeasure([PowerCdf(2.0)])
    n_values = (16, 32, 64, 128, 256)
    seeds = range(20)
    iid_median = {}
    for n in n_values:
        iid_median[n] = float(np.median([
            exact_star_discrepancy(mu.sample(10_000 + 7 * n + s, n), mu).value
            for s in range(50)
        ]))
    medians = []
    for n in n_values:
        vals = []
        for seed in seeds:
            pts, cert = construct_point_set(mu, n, ConstructionConfig(seed=seed))
            d_built = exact_star_discrepancy(pts, mu).value
            assert d_built <= cert["bound"] + 1e-12, f"certificate violated at N={n}"
            assert d_built < iid_median[n], (
                f"construction lost to i.i.d. median at N={n}, seed={seed}"
            )
            vals.append(d_built)
        medians.append(float(np.median(vals)))
    slope = np.polyfit(np.log(n_values), np.log(medians), 1)[0]
    assert slope <= -0.75, f"rate slope {slope:.3f} > -0.75"
    elapsed = time.time() - t0
    assert elapsed < 600.0, f"runtime {elapsed:.1f}s exceeds 10 min target"
    report("5 (construction dominance + rate)",
           f"slope {slope:.3f}, medians {['%.4f' % v for v in medians]}, "
           f"iid {['%.4f' % iid_median[n] for n in n_values]}, {elapsed:.1f}s")


# -----------------------------------------------------------------------------
# 6. Sequence block structure and prefix envelopes up to N = 69
# -----------------------------------------------------------------------------


def test_criterion_6_sequence_structure_and_envelope():
    t0 = time.time()
    assert [block_size(i) for i in (1, 2, 3, 4)] == [1, 4, 64, 16384]
    assert [block_offset(i) for i in (1, 2, 3, 4)] == [0, 1, 5, 69]
    mu = ProductMeasure([PowerCdf(2.0)])
    seq, state = take_sequence(mu, 69, ConstructionConfig(seed=2))
    worst_ratio = 0.0
    for n in range(1, 70):
        d_pref = exact_star_discrepancy(PointSet(seq.points[:n]), mu).value
        env = prefix_certificate_envelope(state.block_certificates, n)
        assert d_pref <= env + 1e-12, f"prefix {n}: {d_pref} > envelope {env}"
        worst_ratio = max(worst_ratio, d_pref / env)
    elapsed = time.time() - t0
    report("6 (sequence structure + envelope)",
           f"69 prefixes, worst D*/envelope = {worst_ratio:.3f}, {elapsed:.1f}s")


# -----------------------------------------------------------------------------
# 7. Inverse-size arithmetic, deviation-bound thresholds, empirical shape
# -----------------------------------------------------------------------------


def test_criterion_7_inverse_size_and_alexander():
    t0 = time.time()
    # exact arithmetic on 20 (d, eps) pairs
    pairs = [(1, 0.5), (2, 1.0)] + [
        (int(d), float(e))
        for d, e in zip(
            np.random.default_rng(1).integers(1, 9, size=18),
            np.random.default_rng(2).uniform(0.05, 1.0, size=18),
        )
    ]
    assert len(pairs) == 20
    for d, eps in pairs:
        expected = int(math.ceil(2**26 * d / Fraction(eps) ** 2))
        assert inverse_size(d, eps, mode="paper") == expected
    assert inverse_size(1, 0.5) == 268435456
    assert inverse_size(2, 1.0) == 134217728

    # threshold check of the deviation bound for d = 1..8
    for d in range(1, 9):
        res = alexander_bound(2**13 * math.sqrt(d), 9216 * d, d)
        assert res["conditions_met"] == (True, True)

    # empirical mode demonstrates the d * eps^-2 shape at c << 2^26
    implied = []
    for d, eps in ((1, 0.2), (1, 0.1), (2, 0.2)):
        n_emp = inverse_size(d, eps, mode="empirical", trials=50)
        mu = uniform_measure(d)
        ok = sum(
            exact_star_discrepancy(
                mu.sample(int(np.random.default_rng((0, n_emp, t)).integers(2**63 - 1)), n_emp), mu
            ).value
            <= eps
            for t in range(50)
        )
        assert ok >= 0.9 * 50  # the defining 90% criterion at the returned N
        implied.append(n_emp * eps**2 / d)
    assert max(implied) < 2**13  # constant far below the certified 2^26
    elapsed = time.time() - t0
    report("7 (inverse size + deviation bound)",
           f"20 exact pairs, thresholds d=1..8, implied constants {['%.1f' % c for c in implied]}, "
           f"{elapsed:.1f}s")


# -----------------------------------------------------------------------------
# 8. Cubature benchmark on the L-shaped region + variation fixtures
# -----------------------------------------------------------------------------


def test_criterion_8_cubature_benchmark():
    t0 = time.time()
    omega = OmegaRegion([([0.0, 0.0], [0.5, 1.0]), ([0.5, 0.0], [1.0, 0.5])])
    mu = RestrictionMeasure(omega)
    ig = Integrand(lambda x: x.sum(axis=1), omega, sup_norm_hint=2.0, name="linear-sum")
    ref = reference_integral(ig)
    n_values = (16, 32, 64, 128, 256)  # within the 16..1024 range; see ledger

    built_err = []
    for n in n_values:
        errs = [
            abs(integrate(ig, construct_point_set(mu, n, ConstructionConfig(seed=s))[0]) - ref)
            for s in (0, 1, 2)
        ]
        built_err.append(float(np.median(errs)))
    built_slope = np.polyfit(np.log(n_values), np.log(built_err), 1)[0]
    assert built_slope <= -0.8, f"constructed slope {built_slope:.3f} > -0.8"

    mc_err = []
    for n in n_values:
        errs = [abs(integrate(ig, mu.sample(s, n)) - ref) for s in range(50)]
        mc_err.append(float(np.median(errs)))
    mc_slope = np.polyfit(np.log(n_values), np.log(mc_err), 1)[0]
    assert -0.65 <= mc_slope <= -0.35, f"MC slope {mc_slope:.3f} outside -0.5 +- 0.15"

    # variation fixtures: measured region discrepancy * hand-derived V(f)
    # (+ sup-norm tail) dominates the integration error
    fixtures = [
        (lambda x: np.ones(len(x)), omega, 4.0, 1.0),
        (lambda x: x.sum(axis=1), omega, 8.0, 2.0),
        (lambda x: np.sin(np.pi * x[:, 0]), OmegaRegion([([0.0], [0.75])]), 4.0 / math.pi + 2.0, 1.0),
    ]
    for g, om, variation, sup_norm in fixtures:
        mu_f = RestrictionMeasure(om)
        ig_f = Integrand(g, om, sup_norm_hint=sup_norm)
        ref_f = reference_integral(ig_f)
        for n in (16, 64):
            pts, _ = construct_point_set(mu_f, n, ConstructionConfig(seed=1))
            err = abs(integrate(ig_f, pts) - ref_f)
            m_pad = math.ceil(n / om.volume)
            bound = (
                omega_discrepancy(pts, om, n_override=m_pad) * variation / om.volume
                + sup_norm / n
            )
            assert err <= bound + 1e-12
    elapsed = time.time() - t0
    report("8 (cubature benchmark)",
           f"constructed slope {built_slope:.3f}, MC slope {mc_slope:.3f}, "
           f"3 fixtures OK, {elapsed:.1f}s")
