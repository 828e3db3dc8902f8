"""End-to-end constructions and sample-size calculators.

construct_point_set checks the N^d rounding lattice and the K-point cloud
(K*d coordinates, at most SAMPLE_BUDGET) against their budgets before it
samples anything, then samples K points from the target measure,
runs the subset selection, and attaches a certificate that stacks

    (box-count bound of the selection) / N  +  (sampling error of the K set)

where the sampling term is the exactly measured discrepancy of the K-point
empirical measure against mu whenever the exact scan is affordable, and the
nominal 1/N otherwise (tagged sampling_mode "nominal" in the certificate,
never silently).  Only a measured sampling term makes `bound` a proven
bound.  The nominal 1/N is the rate of the paper's K = 2^26 d N^2 policy,
which the sample budget refuses at every N >= 2; under the default
"scaled" policy (K = 16 N^2) nothing proves it, so a "nominal" certificate's
`bound` is the selection bound plus an unproven 1/N, not a bound.

Next to `bound` the certificate carries `achieved_bound`: `selection_dd`,
the selection discrepancy measured exactly on the subset's own grid at every
N, over N, plus the same sampling term (or `bound`, with `selection_dd`
None, if even that grid is over the scan budget).  Like `bound`, it is
unproven when the sampling term is nominal.

The infinite sequence interleaves blocks of sizes N_i = 2^(2^i - 2)
(1, 4, 64, 16384, ...) built in dimension d+1 for nu = mu x lambda, ordered
by strictly increasing auxiliary coordinate and projected back to d
dimensions.  A prefix of length N = M_i + j splits over blocks, and its
discrepancy is bounded by the certificate envelope

    [ sum_{l<i} N_l c_l  +  2 N_i c_i ] / N

with c_l the (1-capped) per-block certificates.

inverse_size gives the sample-size formula ceil(2^26 d / eps^2) exactly
(rational arithmetic) or an empirical doubling search; alexander_bound
evaluates the explicit large-deviation tail 16 exp(-t^2) guarded by its two
validity thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .discrepancy import (
    BudgetExceededError,
    _grid,
    discrete_discrepancy,
    exact_star_discrepancy,
)
from .dyadic import check_lattice
from .measures import BoxMeasure, PointSet, ProductExtensionMeasure
from . import selection
from .selection import select_subset

__all__ = [
    "ConstructionConfig",
    "construct_point_set",
    "SequenceState",
    "next_point",
    "take_sequence",
    "prefix_certificate_envelope",
    "reference_sequence_bound",
    "inverse_size",
    "alexander_bound",
    "PAPER_K_FACTOR",
    "SAMPLE_BUDGET",
]

PAPER_K_FACTOR = 2**26
# coordinates (K*d) of the K-point cloud a construction may sample: 512 MB of
# float64, before its per-axis sort orders
SAMPLE_BUDGET = 2**26


@dataclass(frozen=True)
class ConstructionConfig:
    """K policy and seed for a construction.

    k_policy: "paper" (K = 2^26 d N^2), "scaled" (K = scale_c * N^2), or an
    explicit integer K.
    """

    k_policy: object = "scaled"
    scale_c: int = 16
    seed: int = 0

    def resolve_k(self, n: int, d: int) -> int:
        if self.k_policy == "paper":
            k = PAPER_K_FACTOR * d * n * n
        elif self.k_policy == "scaled":
            k = self.scale_c * n * n
        else:
            k = int(self.k_policy)
        if n > math.isqrt(k):
            raise ValueError(f"K={k} violates N <= sqrt(K) for N={n}")
        return k


def construct_point_set(mu: BoxMeasure, n: int, cfg: ConstructionConfig | None = None):
    """N-point low-discrepancy construction for mu; returns (PointSet, certificate).

    The certificate's `bound` field is box_bound/N + sampling term, and its
    `achieved_bound` the measured selection_dd/N + sampling term; its
    `sampling_mode` records whether the sampling term was measured exactly or
    is the nominal 1/N, which no policy that runs proves (see the module
    docstring)."""
    cfg = cfg or ConstructionConfig()
    if n < 1:
        raise ValueError("N must be >= 1")
    d = mu.dim
    k = cfg.resolve_k(n, d)
    # refuse the N^d lattice the selection rounds over, and the cloud, before
    # sampling
    check_lattice(n, d)
    if k * d > SAMPLE_BUDGET:
        raise BudgetExceededError(
            f"K*d = {k}*{d} coordinates exceeds the sample budget of {SAMPLE_BUDGET}"
        )
    z = mu.sample(cfg.seed, k)
    # one sort per axis of z serves both scans and the decomposition; the
    # rounding holds only the ranks and the axis-0 order the selection scan reads
    axes, ranks, orders = _grid(z.points)
    try:
        sampling = exact_star_discrepancy(z, mu, _sorted=(axes, ranks, orders)).value
        sampling_mode = "measured"
    except BudgetExceededError:
        sampling, sampling_mode = 1.0 / n, "nominal"
    del axes
    decomp = selection.decompose(z, n, _orders=orders)  # bench/spans.py wraps it there
    del orders[1:]
    sel = select_subset(z, n, _decomp=decomp)
    try:
        dd = discrete_discrepancy(sel.selected, z, _sorted=(ranks, orders), _rows=sel.indices)
    except BudgetExceededError:
        dd = None
    box_bound = sel.certificate["box_bound"]
    bound = min(1.0, box_bound / n + sampling)
    achieved = min(1.0, dd / n + sampling) if dd is not None else bound
    certificate = {
        "n": n,
        "d": d,
        "k": k,
        "k_policy": str(cfg.k_policy),
        "engine": sel.certificate["rounding"]["engine"],
        "seed": cfg.seed,
        "selection": sel.certificate,
        "selection_dd": dd,
        "sampling_term": sampling,
        "sampling_mode": sampling_mode,
        "bound": bound,
        "achieved_bound": achieved,
        # non-constructive reference rate, recorded for comparison only
        "reference_bound": 63.0 * math.sqrt(d) * (2.0 + math.log2(n)) ** ((3 * d + 1) / 2) / n,
    }
    return sel.selected, certificate


# ---------------------------------------------------------------------------
# infinite sequence via blocks in dimension d+1
# ---------------------------------------------------------------------------


def block_size(i: int) -> int:
    return 2 ** (2**i - 2)


def block_offset(i: int) -> int:
    return sum(block_size(l) for l in range(1, i))


@dataclass
class SequenceState:
    """Single-consumer cursor over the block construction."""

    block_index: int = 0                 # last built block (0 = none yet)
    pos: int = 0                         # next emission index within block
    block_points: np.ndarray | None = None       # projected d-dim points
    block_full: np.ndarray | None = None         # (d+1)-dim points, sorted
    block_certificates: list = field(default_factory=list)

    def __post_init__(self):
        assert [block_size(i) for i in (1, 2, 3, 4)] == [1, 4, 64, 16384]
        assert [block_offset(i) for i in (1, 2, 3, 4)] == [0, 1, 5, 69]


def _build_block(state: SequenceState, mu: BoxMeasure, cfg: ConstructionConfig):
    i = state.block_index + 1
    nu = ProductExtensionMeasure(mu)
    n_i = block_size(i)
    block_seed = int(np.random.default_rng((cfg.seed, i)).integers(0, 2**63 - 1))
    block_cfg = ConstructionConfig(cfg.k_policy, cfg.scale_c, block_seed)
    pts, cert = construct_point_set(nu, n_i, block_cfg)
    full = pts.points[np.argsort(pts.points[:, -1], kind="stable")].copy()
    # strictly increasing auxiliary coordinate: ties get the minimal
    # representable increment (cannot exceed 1.0 for unit-interval values)
    for row in range(1, full.shape[0]):
        if full[row, -1] <= full[row - 1, -1]:
            full[row, -1] = min(np.nextafter(full[row - 1, -1], 2.0), 1.0)
    state.block_index = i
    state.pos = 0
    state.block_full = full
    state.block_points = full[:, :-1]
    state.block_certificates.append(min(1.0, cert["bound"]))


def next_point(state: SequenceState, mu: BoxMeasure, cfg: ConstructionConfig | None = None):
    """Emit the next point of the sequence (lazy block construction)."""
    cfg = cfg or ConstructionConfig()
    if state.block_points is None or state.pos >= len(state.block_points):
        _build_block(state, mu, cfg)
    pt = state.block_points[state.pos].copy()
    state.pos += 1
    return pt, state


def take_sequence(mu: BoxMeasure, count: int, cfg: ConstructionConfig | None = None):
    """First `count` points plus the state (with per-block certificates)."""
    state = SequenceState()
    pts = []
    for _ in range(count):
        p, state = next_point(state, mu, cfg)
        pts.append(p)
    return PointSet(np.array(pts)), state


def prefix_certificate_envelope(block_certificates, n: int) -> float:
    """Discrepancy envelope for the first n sequence points, assembled from
    (1-capped) per-block certificates by the three-term prefix split."""
    if n < 1:
        raise ValueError("n must be >= 1")
    i = 1
    while block_offset(i + 1) < n:
        i += 1
    if i > len(block_certificates):
        raise ValueError("not enough block certificates for this prefix")
    total = sum(
        block_size(l) * min(1.0, block_certificates[l - 1]) for l in range(1, i)
    )
    total += 2.0 * block_size(i) * min(1.0, block_certificates[i - 1])
    return total / n


def reference_sequence_bound(n: int, d: int) -> float:
    """Non-constructive reference envelope 133*sqrt(d+1)*(4+2*log2 N)^((3d+4)/2)/N,
    recorded for comparison only."""
    return 133.0 * math.sqrt(d + 1) * (4.0 + 2.0 * math.log2(max(n, 1))) ** ((3 * d + 4) / 2) / n


# ---------------------------------------------------------------------------
# sample-size calculators
# ---------------------------------------------------------------------------


def inverse_size(
    d: int,
    eps: float,
    mode: str = "paper",
    mu: BoxMeasure | None = None,
    seed: int = 0,
    trials: int = 50,
    success_rate: float = 0.9,
    max_n: int = 1 << 22,
) -> int:
    """Point count sufficient for discrepancy <= eps in dimension d.

    paper mode: ceil(2^26 * d / eps^2), evaluated in exact rational
    arithmetic on the binary value of eps.  empirical mode (d <= 2 only):
    doubling search for the smallest N = 2^j such that at least
    `success_rate` of `trials` seeded i.i.d. mu-samples of size N have exact
    discrepancy <= eps.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    if mode == "paper":
        frac = PAPER_K_FACTOR * d / Fraction(eps) ** 2
        return int(math.ceil(frac))
    if mode != "empirical":
        raise ValueError(f"unknown mode {mode!r}")
    if d > 2:
        raise ValueError("empirical mode is budgeted for d <= 2 only")
    from .measures import uniform_measure

    mu = mu or uniform_measure(d)
    n = 1
    while n <= max_n:
        ok = 0
        for t in range(trials):
            sample_seed = int(np.random.default_rng((seed, n, t)).integers(0, 2**63 - 1))
            ps = mu.sample(sample_seed, n)
            if exact_star_discrepancy(ps, mu).value <= eps:
                ok += 1
        if ok >= success_rate * trials:
            return n
        n *= 2
    raise RuntimeError("doubling search exceeded max_n")


def alexander_bound(t: float, n: int, d: int) -> dict:
    """Tail bound 16*exp(-t^2) for the sup of the empirical process, with its
    two validity thresholds.

    Returns {"conditions_met": (c1, c2), "bound": float | None, thresholds}.
    """
    if t <= 0 or n < 1 or d < 1:
        raise ValueError("need t > 0, N >= 1, d >= 1")
    thr1 = (2 ** (33 / 2) * d / math.sqrt(n)) * math.log(max(n / (2 * d), math.e))
    thr2 = math.sqrt(2**25 * d * math.log(4.0))
    c1 = t > thr1
    c2 = t > thr2
    bound = 16.0 * math.exp(-(t**2)) if (c1 and c2) else None
    return {
        "conditions_met": (c1, c2),
        "bound": bound,
        "threshold_rate": thr1,
        "threshold_absolute": thr2,
    }
