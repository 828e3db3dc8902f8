"""Settings and reference oracles shared by the test modules."""

import itertools
from importlib import metadata

import numpy as np

from nuqmc.measures import AnchoredBox

# The scipy version the pinned outputs were taken under.  Every construction
# and every rounding with an active edge goes through a HiGHS LP jump, whose
# optimal vertex is not unique, so the pinned hashes follow the HiGHS build
# that this scipy ships.
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
