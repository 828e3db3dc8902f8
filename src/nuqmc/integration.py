"""Cubature over a union-of-boxes region via measure-adapted point sets.

The estimator for (1/lambda(Omega)) * integral_Omega g dlambda is the plain
mean of g over a point set constructed for the restriction measure mu_Omega
(all its points lie in Omega by construction).  Errors are measured against
a tensor Gauss-Legendre reference on the disjoint cells of Omega, and the
region-adapted discrepancy

    D_N^(Omega) = 2^d * sup_A | (1/N) sum 1_{Omega ∩ A}(x_n) - lambda(Omega ∩ A) |

(anchored boxes A, the 2^d factor accounting for the reduction from general
axis-parallel boxes) is evaluated exactly by the same critical-grid scan,
fed with the unnormalized set function A -> lambda(Omega ∩ A).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .discrepancy import _grid, _scan_grid
from .measures import OmegaRegion, PointSet, RestrictionMeasure
from .pipeline import ConstructionConfig, construct_point_set

__all__ = [
    "Integrand",
    "IntegrationReport",
    "omega_discrepancy",
    "integrate",
    "reference_integral",
    "benchmark",
    "BUILTIN_INTEGRANDS",
]


@dataclass(frozen=True)
class Integrand:
    """Smooth factor g (vectorized over an (n, d) array), the region Omega
    where the product g * 1_Omega lives, and an optional sup-norm hint."""

    g: Callable[[np.ndarray], np.ndarray]
    omega: OmegaRegion
    sup_norm_hint: float | None = None
    name: str = ""


@dataclass(frozen=True)
class IntegrationReport:
    estimate: float
    reference: float
    abs_error: float
    n_points: int
    method: str  # "constructed" | "monte_carlo"
    seed: int | None = None


def omega_discrepancy(
    ps: PointSet,
    omega: OmegaRegion,
    n_override: int | None = None,
    budget: int | None = None,
) -> float:
    """Exact D_N^(Omega); `n_override` replaces the normalizer N (used when
    the set is conceptually padded with points outside Omega)."""
    if ps.dim != omega.dim:
        raise ValueError("point set and region dimensions differ")
    n = n_override if n_override is not None else ps.n
    axes, ranks, _ = _grid(ps.points[omega.contains(ps.points)])

    def mass_provider(axes, closed):
        return omega.intersection_volume_grid(axes)

    val, _, _ = _scan_grid(axes, ranks, n, mass_provider, budget)
    return (2.0**ps.dim) * val


def integrate(integrand: Integrand, ps: PointSet) -> float:
    """Mean of g over the point set (estimates the normalized integral over
    Omega when the points were constructed for mu_Omega).  Points outside
    Omega are reported via a warning; the estimator is computed regardless."""
    outside = int(np.sum(~integrand.omega.contains(ps.points)))
    if outside:
        warnings.warn(
            f"{outside} of {ps.n} points lie outside the region; the mean is "
            "only a valid region-integral estimate for in-region point sets",
            stacklevel=2,
        )
    return float(np.mean(integrand.g(ps.points)))


def reference_integral(integrand: Integrand, nodes: int = 32) -> float:
    """(1/lambda(Omega)) * integral_Omega g, by tensor Gauss-Legendre
    quadrature with `nodes` points per axis on each disjoint cell of Omega.

    Accuracy target 1e-10 for the polynomial/trigonometric test integrands;
    doubling `nodes` is the self-consistency check."""
    omega = integrand.omega
    x01, w01 = np.polynomial.legendre.leggauss(nodes)
    x01 = 0.5 * (x01 + 1.0)
    w01 = 0.5 * w01
    total = 0.0
    d = omega.dim
    for lo, hi, vol in zip(omega.cell_lo, omega.cell_hi, omega.cell_vol):
        axes = [lo[s] + (hi[s] - lo[s]) * x01 for s in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([mm.ravel() for mm in mesh], axis=1)
        vals = np.asarray(integrand.g(pts), dtype=float).reshape([nodes] * d)
        wts = w01
        for _ in range(d - 1):
            wts = np.multiply.outer(wts, w01)
        total += vol * float(np.sum(vals * wts))
    return total / omega.volume


def benchmark(
    integrand: Integrand,
    n_list: Sequence[int],
    seeds: Sequence[int],
    cfg: ConstructionConfig | None = None,
) -> list[IntegrationReport]:
    """Constructed-set error vs per-seed Monte Carlo error for each N.

    Returns one "constructed" row per N (built with the first seed) and one
    "monte_carlo" row per (N, seed) pair; rows are ready for CSV export."""
    cfg = cfg or ConstructionConfig()
    mu = RestrictionMeasure(integrand.omega)
    ref = reference_integral(integrand)
    rows = []
    for n in n_list:
        built_cfg = ConstructionConfig(cfg.k_policy, cfg.scale_c, seeds[0])
        pts, _ = construct_point_set(mu, n, built_cfg)
        est = integrate(integrand, pts)
        rows.append(IntegrationReport(est, ref, abs(est - ref), n, "constructed", seeds[0]))
        for seed in seeds:
            mc = mu.sample(seed, n)
            est_mc = integrate(integrand, mc)
            rows.append(IntegrationReport(est_mc, ref, abs(est_mc - ref), n, "monte_carlo", seed))
    return rows


def benchmark_csv(rows: Sequence[IntegrationReport]) -> str:
    lines = ["n,method,seed,estimate,reference,error"]
    for r in rows:
        lines.append(
            f"{r.n_points},{r.method},{r.seed},{r.estimate!r},{r.reference!r},{r.abs_error!r}"
        )
    return "\n".join(lines) + "\n"


BUILTIN_INTEGRANDS = {
    # name: (callable, description)
    "const": (lambda x: np.ones(len(np.atleast_2d(x))), "g(x) = 1"),
    "linear-sum": (lambda x: np.atleast_2d(x).sum(axis=1), "g(x) = x_1 + ... + x_d"),
    "product": (lambda x: np.atleast_2d(x).prod(axis=1), "g(x) = x_1 * ... * x_d"),
    "sin-sum": (
        lambda x: np.sin(np.pi * np.atleast_2d(x)).sum(axis=1),
        "g(x) = sum_s sin(pi x_s)",
    ),
}
