"""Box measures on the unit cube with exact anchored-box mass and seeded sampling.

A "box measure" is a normalized Borel measure mu on [0,1]^d that can answer
mass queries for anchored boxes [0, a] exactly and produce i.i.d. samples.
Three concrete families are provided:

  * ProductMeasure   -- mu([0,a]) = prod_s F_s(a_s) for 1-d CDFs F_s
                        (uniform, power t^theta, piecewise linear).
  * RestrictionMeasure -- normalized Lebesgue measure restricted to a union
                        of axis-parallel boxes Omega; masses are computed on
                        the disjoint cell grid induced by all box endpoints,
                        so overlapping boxes are handled exactly without
                        inclusion-exclusion.
  * DiscreteMeasure  -- uniform atoms on K given points; the `closed` flag of
                        a query box decides whether atoms sitting exactly on
                        the upper faces are counted.

Continuous measures assign zero mass to box faces, so they ignore the
`closed` flag; only DiscreteMeasure distinguishes the two variants.  The
exact discrepancy scanner asks every measure for both, so a measure with
atoms gets its open masses whether or not it declares where they sit.

All measures are immutable after construction and safe to share between
threads; samplers take an explicit seed so concurrent trials can use
independent streams.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "AnchoredBox",
    "PointSet",
    "BoxMeasure",
    "DimensionMismatchError",
    "UniformCdf",
    "PowerCdf",
    "PiecewiseLinearCdf",
    "ProductMeasure",
    "OmegaRegion",
    "RestrictionMeasure",
    "DiscreteMeasure",
    "ProductExtensionMeasure",
    "uniform_measure",
    "validate",
    "measure_from_config",
    "MeasureDiagnostics",
]

MASS_TOL = 1e-12


class DimensionMismatchError(ValueError):
    """Query or point-set dimension differs from the measure's dimension."""


def _whole(name, value):
    """`value` as an int; refused, not truncated, unless it is an integer
    >= 1 (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {name}={value!r}")
    return int(value)


@dataclass(frozen=True)
class AnchoredBox:
    """Axis-parallel box [0, a_1] x ... x [0, a_d] anchored at the origin.

    `closed` controls whether the upper faces {x_s = a_s} belong to the box.
    The origin-side faces are always included.
    """

    corner: np.ndarray
    closed: bool = True

    def __post_init__(self):
        corner = np.atleast_1d(np.asarray(self.corner, dtype=float))
        if corner.ndim != 1 or corner.size < 1:
            raise ValueError("corner must be a 1-d vector with d >= 1")
        # positive range tests, so that NaN fails them
        if not (corner.min() >= 0.0 and corner.max() <= 1.0):
            raise ValueError(f"corner coordinates must lie in [0,1], got {corner}")
        object.__setattr__(self, "corner", corner)

    @property
    def dim(self) -> int:
        return self.corner.size


@dataclass(frozen=True)
class PointSet:
    """Ordered list of N points in [0,1]^d.  Duplicates are permitted
    (multiset semantics).

    The first scan or rank-slab decomposition of a point set sorts it
    (`critical_grid`) and keeps the sort for the next, so its points must
    not be changed after one."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("points must be a (N, d) array with N >= 1, d >= 1")
        # min and max propagate NaN, which fails both tests, and make no
        # temporary the size of the cloud
        if not (pts.min() >= 0.0 and pts.max() <= 1.0):
            raise ValueError("all coordinates must lie in [0,1]")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def critical_grid(self):
        """`discrepancy._grid(self.points)`: the critical grid's axes, every
        point's ranks on them and the per-axis orders, from one sort per
        axis, computed when first read and kept.  An axis is a read-only
        view that reads the points through the order (np.asarray gives it
        whole), so it holds no copy of a coordinate column."""
        from . import discrepancy  # here, as discrepancy imports this module

        return discrepancy._grid(self.points)

    def to_csv(self, path) -> None:
        np.savetxt(path, self.points, delimiter=",", fmt="%.17g")

    @classmethod
    def from_csv(cls, path, header: bool = False) -> "PointSet":
        pts = np.loadtxt(path, delimiter=",", skiprows=1 if header else 0, ndmin=2)
        return cls(pts)


# ---------------------------------------------------------------------------
# 1-d CDF descriptors for ProductMeasure
# ---------------------------------------------------------------------------


class UniformCdf:
    """F(t) = t."""

    def __call__(self, t):
        return np.asarray(t, dtype=float)

    def inverse(self, u):
        return np.asarray(u, dtype=float)


class PowerCdf:
    """F(t) = t**theta for a finite theta > 0."""

    def __init__(self, theta: float):
        # theta = inf would sample every point at 1.0 and give F(t) = 0 below 1
        if not 0 < theta < math.inf:
            raise ValueError(f"theta must be positive and finite, got theta={theta!r}")
        self.theta = float(theta)

    def __call__(self, t):
        return np.power(np.asarray(t, dtype=float), self.theta)

    def inverse(self, u):
        return np.power(np.asarray(u, dtype=float), 1.0 / self.theta)


class PiecewiseLinearCdf:
    """Piecewise-linear F given by knots [(t_0=0, v_0=0), ..., (t_k=1, v_k=1)].

    Knot positions must be strictly increasing (so F is continuous); values
    must be finite.  Values are expected nondecreasing, but that is not
    enforced here, so that defective configurations can be constructed and
    then flagged by `validate`'s monotonicity check.
    """

    def __init__(self, knots: Sequence[Sequence[float]]):
        knots = [(float(t), float(v)) for t, v in knots]
        if len(knots) < 2:
            raise ValueError("need at least two knots")
        ts = np.array([t for t, _ in knots])
        vs = np.array([v for _, v in knots])
        if ts[0] != 0.0 or ts[-1] != 1.0:
            raise ValueError("knot positions must start at 0 and end at 1")
        if not np.all(np.diff(ts) > 0):
            raise ValueError("knot positions must be strictly increasing")
        if not np.all(np.isfinite(vs)):
            raise ValueError("knot values must be finite")
        self.ts = ts
        self.vs = vs

    def __call__(self, t):
        return np.interp(np.asarray(t, dtype=float), self.ts, self.vs)

    def inverse(self, u):
        # plateaus (flat value runs) map to their left endpoint
        vs, idx = np.unique(self.vs, return_index=True)
        return np.interp(np.asarray(u, dtype=float), vs, self.ts[idx])


def _cdf_from_config(cfg: dict):
    kind = cfg.get("type")
    if kind == "uniform":
        return UniformCdf()
    if kind == "power":
        return PowerCdf(cfg["theta"])
    if kind == "piecewise":
        return PiecewiseLinearCdf(cfg["knots"])
    raise ValueError(f"unknown cdf type {kind!r}")


# ---------------------------------------------------------------------------
# Measure contract
# ---------------------------------------------------------------------------


class BoxMeasure:
    """Contract: exact anchored-box mass plus a seeded i.i.d. sampler.

    Subclasses implement `mass_on_grid` (vectorized evaluation on a tensor
    grid of corners) and `sample`.  Scalar `mass` is routed through the grid
    path so the two can never disagree.
    """

    dim: int

    def mass(self, box: AnchoredBox) -> float:
        if box.dim != self.dim:
            raise DimensionMismatchError(
                f"box dimension {box.dim} != measure dimension {self.dim}"
            )
        axes = [np.array([c]) for c in box.corner]
        return float(self.mass_on_grid(axes, closed=box.closed).ravel()[0])

    def mass_on_grid(self, axes: Sequence[np.ndarray], closed: bool) -> np.ndarray:
        """Masses of [0, a] for every corner a in the tensor grid
        axes[0] x ... x axes[d-1]; result has shape (len(axes[0]), ...).

        The scans call this on sub-grids: every axis an increasing subset
        of the whole grid's axis (a contiguous slice of rows of axis 0, the
        tops of tiles, or the columns of the tiles an exact scan counts).
        Each entry must equal the whole grid's bitwise, and be
        non-decreasing in every coordinate.  The open mass at a corner must
        be at most the closed mass there, and at least the closed mass at
        any corner below it on every axis.  The exact scan prunes the tiles
        of its grid with bounds that rest on these orders, so a measure
        that breaks them may get a different maximum than a scan of every
        corner.  The result is a fresh, writable array: the scans overwrite
        it in place.  A DiscreteMeasure's masses are its atoms' closed
        counts at the last atom run at or below (closed) or below (open)
        each corner, from the count routine of the scans
        (`discrepancy._corner_counts`), over K."""
        raise NotImplementedError

    def jump_coordinates(self):
        """Per-axis coordinates where the anchored-box mass jumps (atoms of
        the marginal structure); None for measures continuous along every
        axis.  Exact discrepancy scans add these to their critical grids as
        corners; the open masses are asked of every measure, declared or
        not."""
        return None

    def sample(self, seed: int, count: int) -> PointSet:
        raise NotImplementedError

    def _check_axes(self, axes) -> None:
        if len(axes) != self.dim:
            raise DimensionMismatchError(
                f"grid has {len(axes)} axes, measure dimension is {self.dim}"
            )
        for ax in axes:
            a = np.asarray(ax)
            if a.size and not (a.min() >= 0.0 and a.max() <= 1.0):
                raise ValueError("grid coordinates must lie in [0,1]")


class ProductMeasure(BoxMeasure):
    """mu([0,a]) = prod_s F_s(a_s) with per-coordinate CDFs; sampling by
    per-coordinate inverse-CDF transform of uniform variates."""

    def __init__(self, cdfs: Sequence):
        if len(cdfs) < 1:
            raise ValueError("need d >= 1 coordinate CDFs")
        self.cdfs = list(cdfs)
        self.dim = len(self.cdfs)

    def mass_on_grid(self, axes, closed=True):
        self._check_axes(axes)
        # a copy: a CDF may hand back its argument, and the grid must be fresh
        out = np.array(self.cdfs[0](np.asarray(axes[0], dtype=float)), dtype=float)
        for s in range(1, self.dim):
            out = np.multiply.outer(out, self.cdfs[s](np.asarray(axes[s], dtype=float)))
        return out

    def sample(self, seed: int, count: int) -> PointSet:
        count = _whole("count", count)
        rng = np.random.default_rng(seed)
        u = rng.random((count, self.dim))
        for s, cdf in enumerate(self.cdfs):
            u[:, s] = cdf.inverse(u[:, s])
        return PointSet(np.clip(u, 0.0, 1.0, out=u))


def uniform_measure(dim: int) -> ProductMeasure:
    """Lebesgue measure on [0,1]^dim."""
    return ProductMeasure([UniformCdf() for _ in range(dim)])


class OmegaRegion:
    """Union of axis-parallel boxes in [0,1]^d, decomposed into disjoint grid
    cells for exact volume and mass computations.

    The decomposition sweeps the coordinate grid induced by all box endpoints
    and keeps the cells whose midpoint lies in some input box; this is exact
    for unions of boxes and immune to overlaps.
    """

    def __init__(self, boxes: Sequence):
        malformed = "need at least one box given as (lo, hi), with at least one coordinate"
        try:
            lo, hi = (np.atleast_2d(np.asarray([b[i] for b in boxes], dtype=float)) for i in (0, 1))
        except (IndexError, TypeError, ValueError) as e:  # a box without hi, ragged corners
            raise ValueError(malformed) from e
        if lo.shape != hi.shape or lo.size < 1:
            raise ValueError(malformed)
        if not (np.all(lo >= 0) and np.all(hi <= 1) and np.all(lo <= hi)):
            raise ValueError("boxes must satisfy 0 <= lo <= hi <= 1")
        self.lo, self.hi = lo, hi
        self.dim = lo.shape[1]
        # the disjoint cells of the endpoint grid (strictly increasing on
        # every axis), in C order; those whose midpoint lies in a box are kept
        grids = [np.unique(np.concatenate([lo[:, s], hi[:, s]])) for s in range(self.dim)]
        cell_lo, cell_hi = (
            np.stack([m.ravel() for m in np.meshgrid(*[g[part] for g in grids], indexing="ij")], axis=1)
            for part in (slice(None, -1), slice(1, None))
        )
        inside = self.contains(0.5 * (cell_lo + cell_hi))
        self.cell_lo, self.cell_hi = cell_lo[inside], cell_hi[inside]
        self.cell_vol = np.prod(self.cell_hi - self.cell_lo, axis=1)
        self.volume = float(self.cell_vol.sum())
        if not self.volume > 0:  # no cell, or cells too thin for a float
            raise ValueError("region has zero volume")

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean membership for an (n, d) array (boundary counts as inside)."""
        pts = np.atleast_2d(points)
        if pts.shape[1] != self.dim:
            raise ValueError(
                f"points have dimension {pts.shape[1]}, region has {self.dim}"
            )
        inside = np.zeros(len(pts), dtype=bool)
        for lo, hi in zip(self.lo, self.hi):
            inside |= np.all((pts >= lo) & (pts <= hi), axis=1)
        return inside

    def intersection_volume_grid(self, axes) -> np.ndarray:
        """lambda(Omega ∩ [0, a]) on a tensor grid of corners a (unnormalized)."""
        shape = tuple(len(np.asarray(a)) for a in axes)
        out = np.zeros(shape)
        for clo, chi in zip(self.cell_lo, self.cell_hi):
            part = np.clip(np.asarray(axes[0], dtype=float) - clo[0], 0.0, chi[0] - clo[0])
            for s in range(1, self.dim):
                seg = np.clip(np.asarray(axes[s], dtype=float) - clo[s], 0.0, chi[s] - clo[s])
                part = np.multiply.outer(part, seg)
            out += part
        return out


class RestrictionMeasure(BoxMeasure):
    """mu(A) = lambda(Omega ∩ A) / lambda(Omega) for a union-of-boxes Omega."""

    def __init__(self, omega: OmegaRegion | Sequence):
        self.omega = omega if isinstance(omega, OmegaRegion) else OmegaRegion(omega)
        self.dim = self.omega.dim

    def mass_on_grid(self, axes, closed=True):
        self._check_axes(axes)
        grid = self.omega.intersection_volume_grid(axes)
        grid /= self.omega.volume
        return grid

    def sample(self, seed: int, count: int) -> PointSet:
        count = _whole("count", count)
        rng = np.random.default_rng(seed)
        # volume-weighted cell choice, then uniform within the cell; drawing
        # from the disjoint cells (not the possibly overlapping input boxes)
        # keeps the law exactly mu
        cum = np.cumsum(self.omega.cell_vol) / self.omega.volume
        which = np.searchsorted(cum, rng.random(count), side="right")
        which = np.minimum(which, len(cum) - 1)
        # each point's cell corner and width are gathered once, and the
        # draws scaled and shifted in place: lo + u * (hi - lo), bitwise
        u = rng.random((count, self.dim))
        u *= np.take(self.omega.cell_hi - self.omega.cell_lo, which, axis=0)
        u += np.take(self.omega.cell_lo, which, axis=0)
        return PointSet(u)


class DiscreteMeasure(BoxMeasure):
    """Uniform atoms 1/K on K given points; `closed` decides whether atoms on
    the upper faces of the query box are counted."""

    def __init__(self, atoms: PointSet):
        self.atoms = atoms
        self.dim = atoms.dim
        self.k = atoms.n

    def jump_coordinates(self):
        return [np.unique(self.atoms.points[:, s]) for s in range(self.dim)]

    def mass_on_grid(self, axes, closed=True):
        self._check_axes(axes)
        # an atom of run r on axis s lies in the closed (open) box up to a
        # corner iff r is at most the last run at or below (below) it, so the
        # masses are the atoms' corner counts at those tops, over K
        from .discrepancy import _corner_counts  # here, as discrepancy imports this module

        grid, ranks, _ = self.atoms.critical_grid
        side = "right" if closed else "left"
        tops = [ax[:ax.runs].searchsorted(np.asarray(a, dtype=float), side) - 1 for ax, a in zip(grid, axes)]
        out = np.empty(tuple(top.size for top in tops))
        for lo, counts in _corner_counts(ranks, tops):
            np.divide(counts, float(self.k), out=out[lo:lo + len(counts)])
        return out

    def sample(self, seed: int, count: int) -> PointSet:
        count = _whole("count", count)
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, self.k, size=count)
        return PointSet(self.atoms.points[idx])


class ProductExtensionMeasure(BoxMeasure):
    """nu = mu x lambda_1: the base measure extended by a uniform coordinate.

    Used by the infinite-sequence construction, which builds blocks in
    dimension d+1 and projects the auxiliary coordinate away.
    """

    def __init__(self, base: BoxMeasure):
        self.base = base
        self.dim = base.dim + 1

    def jump_coordinates(self):
        base_jumps = self.base.jump_coordinates()
        if base_jumps is None:
            return None
        return list(base_jumps) + [np.zeros(0)]

    def mass_on_grid(self, axes, closed=True):
        self._check_axes(axes)
        base_grid = self.base.mass_on_grid(axes[:-1], closed=closed)
        return np.multiply.outer(base_grid, np.asarray(axes[-1], dtype=float))

    def sample(self, seed: int, count: int) -> PointSet:
        rng = np.random.default_rng(seed)
        base_pts = self.base.sample(int(rng.integers(0, 2**63 - 1)), count)
        last = rng.random(count)
        return PointSet(np.column_stack([base_pts.points, last]))


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


@dataclass
class MeasureDiagnostics:
    passed: bool
    checks: list = field(default_factory=list)  # (name, ok, detail)

    def __bool__(self):
        return self.passed


def validate(measure: BoxMeasure, seed: int = 0, corners: int = 64) -> MeasureDiagnostics:
    """Diagnostic checks: normalization, monotonicity on random corner pairs,
    zero mass of degenerate open boxes.  Never raises; reports offenders."""
    checks = []
    d = measure.dim
    full = measure.mass(AnchoredBox(np.ones(d), closed=True))
    checks.append(("normalization", abs(full - 1.0) <= MASS_TOL, f"mass(cube)={full!r}"))

    rng = np.random.default_rng(seed)
    bad = []
    for _ in range(corners):
        a = rng.random(d)
        b = a + rng.random(d) * (1.0 - a)
        ma = measure.mass(AnchoredBox(a))
        mb = measure.mass(AnchoredBox(b))
        if ma > mb + MASS_TOL:
            bad.append((a.tolist(), b.tolist(), ma, mb))
    checks.append(("monotonicity", not bad, f"{len(bad)} violations" + (f", first={bad[0]}" if bad else "")))

    corner = rng.random(d)
    corner[rng.integers(0, d)] = 0.0
    mz = measure.mass(AnchoredBox(corner, closed=False))
    checks.append(("zero-corner-open", abs(mz) <= MASS_TOL, f"mass={mz!r}"))

    return MeasureDiagnostics(all(ok for _, ok, _ in checks), checks)


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------


def measure_from_config(cfg, base_dir: Path | None = None) -> BoxMeasure:
    """Build a measure from a JSON config dict (or a path to one).

    Formats:
      {"type": "uniform", "d": 2}
      {"type": "product", "cdfs": [{"type": "power", "theta": 2.0}, ...]}
      {"type": "restriction", "boxes": [[[lo...],[hi...]], ...]}
      {"type": "discrete", "points": "atoms.csv"}
    """
    if isinstance(cfg, (str, Path)):
        path = Path(cfg)
        base_dir = path.parent
        cfg = json.loads(path.read_text())
    kind = cfg.get("type")
    if kind == "uniform":
        return uniform_measure(_whole("d", cfg["d"]))
    if kind == "product":
        return ProductMeasure([_cdf_from_config(c) for c in cfg["cdfs"]])
    if kind == "restriction":
        return RestrictionMeasure(OmegaRegion(cfg["boxes"]))
    if kind == "discrete":
        pts_path = Path(cfg["points"])
        if base_dir is not None and not pts_path.is_absolute():
            pts_path = base_dir / pts_path
        return DiscreteMeasure(PointSet.from_csv(pts_path))
    raise ValueError(f"unknown measure type {kind!r}")
