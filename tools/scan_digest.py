"""One digest line per case of nuqmc's scans and constructions.

    PYTHONPATH=src python3 tools/scan_digest.py [CASE ...]

Prints `name sha256-prefix` for every case, or for the named ones; the
build and round cases print two prefixes, `name result certificate`.  A
case hashes everything a caller can read off its result, floats by their
bytes:

  build-*    construct_point_set: the points, then the certificate JSON, at
             d = 1, 2, 3, on the L region and on a product extension;
  exact-*    exact_star_discrepancy: value, witness corner, closed flag and
             boxes scanned;
  bracket-*  bracket_star_discrepancy: both ends, witness and grid, and
             at d = 1 on grids of several default blocks (`-wide`);
  select-*   discrete_discrepancy of random rows at d = 1, 2, 3, and of
             rows that hold each axis's lowest-ranked point and runs of
             adjacent ranks (`-edges`);
  grid-*     discrepancy._grid: every axis, rank and order it returns,
             read whole, of distinct, tie-heavy and `-edge-` clouds at
             d = 1, 2, 3, at the three block sizes, by whose stretches
             the sort keys are built;
  mass-*     DiscreteMeasure.mass_on_grid, closed then open, of tied, free
             and `-edge-` atoms at d = 1, 2, 3 and through a product
             extension, on the sub-grids a scan asks for: a cloud's whole
             critical grid with the atoms merged in, a stretch of its rows,
             the tops of tiles, random columns, and a grid with an axis of
             no corner;
  region-*   OmegaRegion: the cells, their volumes and the volume (or the
             refusal) of random unions of boxes at d = 1, 2, 3, on free
             and on shared endpoints, with a flat box among them, and of
             flat boxes only;
  round-*    round_array at d = 1, 2, 3 and, above the 20000 variables
             from which the LP jump runs HiGHS's interior point method,
             at d = 2 N = 256 (about 3 s); round_array of a construction's
             beta, the L region's at N = 128 (a 993 x 14619 first jump)
             and power(2)^3's at N = 32 (751 x 12824); beck_fiala_round on
             a general Hypergraph (the `nuqmc round` path): b, then
             its serialized result (b, the per-edge error and the
             engine trace).

A case hashes every field but the engine trace's `lp_iterations`: it
counts the solver's work, not a result, and an objective that keeps the
vertex may change it.

The exact and bracket cases run at `_BLOCK_CELLS` 1, 7 and 65536 on clouds
with ties and zeros and on distinct clouds that reach 1.0 and hold a -0.0
(`-edge-`), against measures with and without atoms, and at 65536 on clouds
whose grids span many blocks (free points and centred lattices).
The select cases run at all three block sizes; the default's names carry
no `-b` suffix.
Two source trees that print the same lines give bitwise the same results
on all of them: run the script under each tree's `src` and diff the
outputs.  A build or round line whose first hash is equal and whose second
differs has bitwise the same points or b; only the certificate changed, as
when a field is added to it or dropped from the engine trace.
"""

from __future__ import annotations

import hashlib
import json
import sys

import numpy as np

from nuqmc import discrepancy
from nuqmc.balancing import Hypergraph, beck_fiala_round
from nuqmc.discrepancy import bracket_star_discrepancy, discrete_discrepancy, exact_star_discrepancy
from nuqmc.dyadic import round_array
from nuqmc.measures import (
    DiscreteMeasure,
    OmegaRegion,
    PointSet,
    PowerCdf,
    ProductExtensionMeasure,
    ProductMeasure,
    RestrictionMeasure,
    uniform_measure,
)
from nuqmc.pipeline import ConstructionConfig, construct_point_set
from nuqmc.selection import decompose

BLOCK_SIZES = (1, 7, 1 << 16)
L_REGION = [([0.0, 0.0], [1.0, 0.5]), ([0.0, 0.5], [0.5, 1.0])]


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.dtype.str.encode() + repr(part.shape).encode() + part.tobytes())
        else:
            h.update(json.dumps(_without_lp_iterations(part), sort_keys=True, default=repr).encode())
    return h.hexdigest()[:16]


def _apart(result, certificate) -> str:
    """The digests of a result and of its certificate, as two fields."""
    return f"{_digest(result)} {_digest(certificate)}"


def _without_lp_iterations(part):
    """`part` without any `lp_iterations` entry of its nested dicts."""
    if isinstance(part, dict):
        return {k: _without_lp_iterations(v) for k, v in part.items() if k != "lp_iterations"}
    return part


def _report(rep):
    return rep.to_dict() | {"bits": np.array([rep.value, rep.upper]), "corner": rep.witness.corner}


def _measures(d, rng):
    """Every measure family in dimension d, with atoms at 0 and on a k/4 grid."""
    atoms = np.concatenate([rng.integers(0, 5, size=(10, d)) / 4.0, np.zeros((1, d))])
    out = {
        "uniform": uniform_measure(d),
        "power": ProductMeasure([PowerCdf(float(rng.uniform(0.3, 3.0))) for _ in range(d)]),
        "atoms": DiscreteMeasure(PointSet(atoms)),
    }
    if d == 2:
        out["L"] = RestrictionMeasure(L_REGION)
    if d > 1:
        out["extension"] = ProductExtensionMeasure(DiscreteMeasure(PointSet(atoms[:, 1:])))
    return out


def _clouds(d, rng):
    """Tied clouds (k/8 coordinates with repeated rows and 0.0 and 1.0 on
    every axis; k/7 coordinates) and a free one, sized so that at small
    blocks the grid spans many tiles."""
    n = {1: 3000, 2: 120, 3: 24}[d]
    tied = rng.integers(0, 9, size=(n, d)) / 8.0
    tied[0], tied[-1] = 0.0, 1.0
    tied = np.concatenate([tied, tied[: n // 3]])
    sevenths = rng.integers(0, 8, size=(n // 2, d)) / 7.0  # off the atoms' k/4 grid
    return {"tied": PointSet(tied), "free": PointSet(rng.random((n, d))), "sevenths": PointSet(sevenths)}


def _large_clouds(d, rng):
    """Clouds whose grids exceed one block of the default size: free points,
    and a centred lattice whose maximum is attained in many places."""
    n = {1: 200_000, 2: 1000, 3: 60}[d]
    side = {1: 4096, 2: 32, 3: 8}[d]
    lattice = (np.arange(side) + 0.5) / side
    lattice = np.stack(np.meshgrid(*[lattice] * d, indexing="ij"), -1).reshape(-1, d)
    return {"large": PointSet(rng.random((n, d))), "lattice": PointSet(lattice)}


def _edge_cloud(d):
    """A cloud of distinct coordinates whose largest is exactly 1.0 on every
    axis, with a -0.0 and a neighbour 2**-61 above it: their sort keys share
    a fraction while their values differ.  It draws on its own generator, so
    the other clouds stay as they were."""
    points = np.random.default_rng(d).random(({1: 3000, 2: 120, 3: 24}[d], d))
    points[:3] = np.array([-0.0, 2.0**-61, 1.0])[:, None]
    return {"edge": PointSet(points)}


def _scan_cases():
    """(name, point set, measure, block sizes) of every scan case."""
    rng = np.random.default_rng(2024)
    for d in (1, 2, 3):
        measures = _measures(d, rng)
        groups = (
            (BLOCK_SIZES, _clouds(d, rng)),
            (BLOCK_SIZES[-1:], _large_clouds(d, rng)),
            (BLOCK_SIZES, _edge_cloud(d)),
        )
        for sizes, clouds in groups:
            for cname, ps in clouds.items():
                for mname, mu in measures.items():
                    yield f"d{d}-{cname}-{mname}", ps, mu, sizes


def _build_cases():
    yield "build-d1-power-N64", ProductMeasure([PowerCdf(2.0)]), 64, 3
    yield "build-d1-power-N256", ProductMeasure([PowerCdf(2.0)]), 256, 0
    yield "build-d2-power-N16", ProductMeasure([PowerCdf(2.0), PowerCdf(0.5)]), 16, 1
    yield "build-d2-power-N32", ProductMeasure([PowerCdf(2.0)] * 2), 32, 2
    yield "build-d3-uniform-N8", uniform_measure(3), 8, 4
    yield "build-L-N16", RestrictionMeasure(L_REGION), 16, 0
    yield "build-L-N32", RestrictionMeasure(L_REGION), 32, 5
    yield "build-extension-N4", ProductExtensionMeasure(ProductMeasure([PowerCdf(2.0)])), 4, 6


def cases():
    """(name, thunk) of every case, in print order; a thunk returns the digest."""
    out = []
    for name, mu, n, seed in _build_cases():
        def build(mu=mu, n=n, seed=seed):
            pts, cert = construct_point_set(mu, n, ConstructionConfig(seed=seed))
            return _apart(pts.points, cert)

        out.append((name, build))
    scans = list(_scan_cases())
    for cells in BLOCK_SIZES:
        for name, ps, mu, sizes in scans:
            if cells not in sizes:
                continue
            def exact(ps=ps, mu=mu, cells=cells):
                with _block_cells(cells):
                    return _digest(_report(exact_star_discrepancy(ps, mu)))

            def bracket(ps=ps, mu=mu, cells=cells):
                with _block_cells(cells):
                    return _digest(*(_report(bracket_star_discrepancy(ps, mu, g)) for g in (1, 3, 16)))

            out.append((f"exact-{name}-b{cells}", exact))
            out.append((f"bracket-{name}-b{cells}", bracket))
    for name, ps, mu, sizes in scans:
        if name.startswith("d1-large-"):
            def wide(ps=ps, mu=mu):
                return _digest(*(_report(bracket_star_discrepancy(ps, mu, g)) for g in (None, 100_000)))

            out.append((f"bracket-{name}-wide", wide))
    for name, z, rows in _select_cases():
        for cells in BLOCK_SIZES:
            def select(z=z, rows=rows, cells=cells):
                with _block_cells(cells):
                    return _digest(np.array(discrete_discrepancy(z, rows)))

            out.append((name if cells == BLOCK_SIZES[-1] else f"{name}-b{cells}", select))
    for name, points, sizes in _grid_cases():
        for cells in sizes:
            def grid(points=points, cells=cells):
                with _block_cells(cells):
                    axes, ranks, orders = discrepancy._grid(points)
                return _digest(*(np.asarray(a) for a in (*axes, *ranks, *orders)))

            out.append((f"{name}-b{cells}", grid))
    for name, mu, axes in _mass_cases():
        def mass(mu=mu, axes=axes):
            return _digest(*(mu.mass_on_grid(axes, closed) for closed in (True, False)))

        out.append((name, mass))
    for name, regions in _region_cases():
        out.append((name, lambda regions=regions: _digest(*map(_region, regions))))
    out.extend(_round_cases())
    return out


def _mass_cases():
    """(name, measure, axes) of the discrete-mass cases; they draw on their
    own generator, so the other cases' clouds stay as they were."""
    rng = np.random.default_rng(43)
    for d in (1, 2, 3):
        k = {1: 3000, 2: 300, 3: 40}[d]
        tied = rng.integers(0, 9, (k, d)) / 8.0
        tied[0], tied[-1] = 0.0, 1.0
        measures = {
            "tied": DiscreteMeasure(PointSet(tied)),
            "free": DiscreteMeasure(PointSet(rng.random((k, d)))),
            "edge": DiscreteMeasure(_edge_cloud(d)["edge"]),
        }
        if d > 1:
            measures["extension"] = ProductExtensionMeasure(DiscreteMeasure(PointSet(tied[:, 1:])))
        cloud = rng.random((k, d))
        for mname, mu in measures.items():
            atoms = mu.base.atoms.points if mname == "extension" else mu.atoms.points
            axes = [np.unique(np.concatenate([cloud[:, s], [1.0], atoms[:, s] if s < atoms.shape[1] else []]))
                    for s in range(d)]
            t = discrepancy._tile_side(d)
            lo = int(rng.integers(0, axes[0].size))
            grids = {
                "whole": axes,
                "rows": [axes[0][lo:lo + int(rng.integers(1, 40))], *axes[1:]],
                "tops": [ax[np.minimum(np.arange(t, ax.size + t, t), ax.size) - 1] for ax in axes],
                "cols": [np.sort(rng.choice(ax, int(rng.integers(1, ax.size + 1)), replace=False)) for ax in axes],
                "empty": [ax[:0] if s == d - 1 else ax for s, ax in enumerate(axes)],
            }
            for gname, grid in grids.items():
                yield f"mass-d{d}-{mname}-{gname}", mu, grid


def _region_cases():
    """(name, boxes of each region) of the region cases, from their own
    generator: eight unions of one to four boxes per line."""
    rng = np.random.default_rng(47)
    for d in (1, 2, 3):
        for kind in ("free", "shared", "flat", "zero"):
            regions = []
            for _ in range(8):
                count = int(rng.integers(1, 5))
                ends = rng.random((count, 2, d)) if kind == "free" else rng.integers(0, 5, (count, 2, d)) / 4.0
                ends.sort(axis=1)
                if kind in ("flat", "zero"):  # the first box, or every box, flat on one axis
                    flat = (slice(1 if kind == "flat" else None), int(rng.integers(0, d)))
                    ends[:, 1][flat] = ends[:, 0][flat]
                regions.append(list(zip(ends[:, 0], ends[:, 1])))
            yield f"region-d{d}-{kind}", regions


def _region(boxes):
    """What an OmegaRegion of `boxes` holds, or why it is refused."""
    try:
        omega = OmegaRegion(boxes)
    except ValueError as e:
        return str(e)
    return np.concatenate([omega.cell_lo.ravel(), omega.cell_hi.ravel(), omega.cell_vol, [omega.volume]])


def _grid_cases():
    """(name, points, block sizes) of the critical-grid cases: distinct
    clouds, one over several default stretches; tie-heavy ones, with
    repeated rows and k/8 coordinates, and with distinct values whose sort
    keys share a fraction; and the `-edge-` clouds.  They draw on their own
    generator, so the other cases' clouds stay as they were."""
    rng = np.random.default_rng(31)
    for d in (1, 2, 3):
        n = {1: 3000, 2: 1200, 3: 300}[d]
        tied = rng.integers(0, 9, size=(n, d)) / 8.0
        near = rng.integers(0, n // 2, (n, d)) * 2.0**-62  # fractions shared by distinct values
        clouds = {
            "distinct": rng.random((n, d)),
            "tied": np.concatenate([tied, tied[: n // 3]]),
            "clash": np.where(rng.random((n, d)) < 0.5, near, rng.random((n, d))),
            "edge": _edge_cloud(d)["edge"].points,
        }
        for cname, points in clouds.items():
            yield f"grid-d{d}-{cname}", points, BLOCK_SIZES
        yield f"grid-d{d}-large", rng.random((150_000 // d, d)), BLOCK_SIZES[-1:]


def _select_cases():
    """(name, cloud, rows) of the selection cases: random rows of clouds
    with a quarter of k/8 coordinates, and rows that hold every axis's
    lowest-ranked point and runs of adjacent ranks, so Q's slots start at
    corner -1 and repeat tops."""
    rng = np.random.default_rng(7)
    for d, k, n in ((1, 4096, 64), (1, 300, 17), (2, 1024, 32), (3, 216, 6)):
        z = PointSet(np.concatenate([rng.random((k - k // 4, d)), rng.integers(0, 9, (k // 4, d)) / 8.0]))
        yield f"select-d{d}-K{k}-N{n}", z, rng.choice(k, n, replace=False)
    for d, k in ((1, 5000), (2, 1024), (3, 216)):
        z = PointSet(rng.random((k, d)))
        order = np.argsort(z.points, axis=0, kind="stable")
        runs = np.concatenate([order[:3], order[k // 2:k // 2 + 4], order[-2:]]).ravel()
        rows = np.unique(np.concatenate([runs, rng.choice(k, 8, replace=False)]))
        yield f"select-d{d}-edges-K{k}-N{rows.size}", z, rows


def _round_cases():
    """(name, thunk) of the rounding cases: seeded beta with a quarter of
    zeros on the dyadic lattice, free beta at d=2 N=256, two
    constructions' beta (the cloud of `ConstructionConfig(seed=...)`),
    and a random hypergraph of degree at most 6."""
    rng = np.random.default_rng(11)
    out = []
    for d, n in ((1, 1024), (2, 64), (3, 16)):
        beta = rng.random((n,) * d) * (rng.random((n,) * d) >= 0.25)
        out.append((f"round-d{d}-N{n}", beta))
    out.append(("round-d2-N256-ipm", rng.random((256, 256))))
    table = [(name, lambda beta=beta: _apart(*round_array(beta))) for name, beta in out]
    for name, mu, n, seed in (
        ("round-build-L-N128", RestrictionMeasure(L_REGION), 128, 0),
        ("round-build-d3-power-N32", ProductMeasure([PowerCdf(2.0)] * 3), 32, 3),
    ):
        def build_beta(mu=mu, n=n, seed=seed):
            z = mu.sample(seed, ConstructionConfig().resolve_k(n, mu.dim))
            return _apart(*round_array(decompose(z, n).beta))

        table.append((name, build_beta))

    deg = np.zeros(300, dtype=int)
    edges = []
    for _ in range(150):
        pool = np.flatnonzero(deg < 6)
        edge = rng.choice(pool, size=min(int(rng.integers(1, 21)), pool.size), replace=False)
        deg[edge] += 1
        edges.append(edge)
    h = Hypergraph(300, edges)
    beta = rng.random(300) * (rng.random(300) >= 0.25)

    def hypergraph():
        res = beck_fiala_round(h, beta)
        return _apart(res.b, res.to_dict())

    table.append(("round-hypergraph-n300", hypergraph))
    return table


class _block_cells:
    """Sets discrepancy._BLOCK_CELLS for a block, and puts it back after."""

    def __init__(self, cells):
        self.cells = cells

    def __enter__(self):
        self.saved, discrepancy._BLOCK_CELLS = discrepancy._BLOCK_CELLS, self.cells

    def __exit__(self, *exc):
        discrepancy._BLOCK_CELLS = self.saved


def digest_lines(names=None):
    """`name digest` lines of every case, or of the cases in `names`."""
    table = cases()
    unknown = set(names or ()) - {name for name, _ in table}
    if unknown:
        raise SystemExit(f"unknown case(s): {', '.join(sorted(unknown))}")
    return [f"{name} {run()}" for name, run in table if not names or name in names]


def main(argv=None):
    for line in digest_lines(sys.argv[1:] if argv is None else argv):
        print(line, flush=True)


if __name__ == "__main__":
    main()
