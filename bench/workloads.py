"""Workloads of the construction benchmark: what gets built, and the
measures and regions it is built for.

This module imports nothing beyond nuqmc, so that the set-up time of a
workload (`import nuqmc` plus `make_setup`) can be measured by importing it.
"""

from __future__ import annotations

from dataclasses import dataclass

from nuqmc.integration import BUILTIN_INTEGRANDS, Integrand
from nuqmc.measures import OmegaRegion, PowerCdf, ProductMeasure, RestrictionMeasure

# The L-shaped region of the cubature acceptance criterion.
L_REGION = (([0.0, 0.0], [0.5, 1.0]), ([0.5, 0.0], [1.0, 0.5]))
THETA = 2.0          # power(2) marginals: F(t) = t^2, inverse sqrt(u)


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    builds: tuple       # (N, distinct construction seeds at that N) per pass
    region: bool        # L-shaped restriction measure + cubature, else power(2)^d
    inputs: str = ""


# Why these three: scan-d1 spends its time in the exact scans and the rank
# decomposition; round-d2 in Hypergraph construction and Beck-Fiala rounding,
# with both scans refused on budget; cubature-L makes many small calls
# through the restriction measure, dense d=2 scans at N=16 and the
# integration layer.  A pass takes about 5-9 s, so a 20 s run measures two
# or three.  One build's D* and certificate vary from seed to seed, by about
# 5 % at d=1 and 17 % at d=2, so a pass averages several seeds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan-d1", 1, ((256, 3),), False, "power(2), d=1, N=256, K=1.05M, 3 seeds"),
        Workload("round-d2", 2, ((64, 12),), False, "power(2)^2, d=2, N=64, K=65.5k, 12 seeds"),
        Workload(
            "cubature-L", 2, ((16, 1), (32, 3), (64, 3), (128, 1)), True,
            "L region, linear-sum, N=16,32,64,128 x 1,3,3,1 seeds",
        ),
    )
}


@dataclass
class Setup:
    mu: object
    omega: OmegaRegion | None = None
    integrand: Integrand | None = None


def make_setup(workload: Workload) -> Setup:
    """Measures and regions of a workload (the part of set-up after import)."""
    if workload.region:
        omega = OmegaRegion(L_REGION)
        g, _ = BUILTIN_INTEGRANDS["linear-sum"]
        return Setup(RestrictionMeasure(omega), omega, Integrand(g, omega, 2.0, "linear-sum"))
    return Setup(ProductMeasure([PowerCdf(THETA) for _ in range(workload.d)]))


def cases(workload: Workload, seed: int):
    """(N, construction seed) pairs; with k builds at N, seed s gives
    construction seeds k*s .. k*s+k-1 at that N."""
    return [(n, k * seed + r) for n, k in workload.builds for r in range(k)]
