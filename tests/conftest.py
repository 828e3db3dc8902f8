"""Settings and reference oracles shared by the test modules."""

import itertools
import tracemalloc
from importlib import metadata

import numpy as np

from nuqmc.balancing import Hypergraph
from nuqmc.measures import AnchoredBox

# The scipy version the pinned outputs were taken under.  Every construction
# and every rounding with an active edge goes through a HiGHS LP jump, whose
# optimal vertex is not unique, so the pinned hashes follow the HiGHS build
# that this scipy ships, and its solve path: the jump's objective drops its
# constant 0.5 under an edge over every floating variable, which keeps the
# optimal set but can move a build whose optimum is a near-tie.  The pinned
# `lp_iterations` count follows the same build.
PINNED_SCIPY = "1.17.1"


def pin_message(what: str) -> str:
    """Failure message of a pinned-output assertion; names both scipy versions."""
    return (
        f"{what} differs from its pin, taken under scipy {PINNED_SCIPY}; "
        f"this run has scipy {metadata.version('scipy')}"
    )


def naive_star_discrepancy(ps, mu):
    """Independent oracle: loop over every critical corner (point coords,
    measure atoms, 1.0), both variants, counting by direct comparison and
    calling the scalar mass oracle."""
    jumps = mu.jump_coordinates()
    axes = []
    for s in range(ps.dim):
        vals = set(ps.points[:, s].tolist()) | {1.0}
        if jumps is not None:
            vals |= set(np.asarray(jumps[s]).tolist())
        axes.append(sorted(vals))
    best = 0.0
    for corner in itertools.product(*axes):
        c = np.array(corner)
        for closed in (True, False):
            if closed:
                cnt = int(np.sum(np.all(ps.points <= c, axis=1)))
            else:
                cnt = int(np.sum(np.all(ps.points < c, axis=1)))
            best = max(best, abs(cnt / ps.n - mu.mass(AnchoredBox(c, closed=closed))))
    return best


def prefix_count(counts, prefix) -> int:
    """#G(J), the number of points in the union of cells <= J (1-based), from
    a decomposition's (N,)*d cell counts."""
    if any(j < 1 for j in prefix):
        return 0
    cum = counts
    for axis in range(counts.ndim):
        cum = np.cumsum(cum, axis=axis)
    return int(cum[tuple(min(int(j), counts.shape[0]) - 1 for j in prefix)])


def tracemalloc_peak(fn, *args) -> int:
    """Peak bytes that numpy and Python allocate while `fn(*args)` runs,
    as tracemalloc counts them."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cell_members(scheme, level, j):
    """Oracle: the lattice points of the dyadic cell at `level` with block
    index `j`, as sorted row-major vertex ids."""
    ranges = [np.arange(js << ms, (js + 1) << ms) for js, ms in zip(j, level)]
    grid = np.meshgrid(*ranges, indexing="ij")
    return np.sort(np.ravel_multi_index([g.ravel() for g in grid], (scheme.n_hat,) * scheme.d))


def cell_halves(level, j):
    """Oracle: the (level, block) of a cell's two halves, its children along
    the first axis with a nonzero level; none for a unit cell."""
    s = next((s for s, ms in enumerate(level) if ms), None)
    if s is None:
        return []
    child = level[:s] + (level[s] - 1,) + level[s + 1:]
    return [(child, j[:s] + (2 * j[s] + k,) + j[s + 1:]) for k in (0, 1)]


def dyadic_cells(scheme):
    """Every (level, block) of the scheme, level vectors in lexicographic
    order and the blocks of a level in row-major order."""
    for level in itertools.product(range(scheme.m + 1), repeat=scheme.d):
        blocks = [scheme.n_hat >> ms for ms in level]
        for j in itertools.product(*(range(b) for b in blocks)):
            yield level, j


class ExplicitDyadic(Hypergraph):
    """Reference for the implicit dyadic hypergraph: the cells stored in CSR
    form, built one cell at a time by the oracles above in `edge_id` order,
    with a table of every cell's halves ((-1, -1) for a unit cell)."""

    def __init__(self, scheme):
        cells = list(dyadic_cells(scheme))
        super().__init__(scheme.n_vertices, tuple(cell_members(scheme, *c) for c in cells))
        self.halves = np.array(
            [[scheme.edge_id(*k) for k in cell_halves(*c)] or [-1, -1] for c in cells],
            dtype=np.int64,
        )

    def implied(self, active):
        h0, h1 = self.halves.T
        return active & (h0 >= 0) & active[h0] & active[h1]


def edges_of(h):
    """Per-edge member arrays of any hypergraph, read through members_of."""
    rows, members = h.members_of(np.ones(h.m, dtype=bool))
    return np.split(members, np.cumsum(np.bincount(rows, minlength=h.m))[:-1])
