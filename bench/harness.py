"""Closed-loop runner, correctness gate, references and metrics of the
construction benchmark.

A pass builds every case of a workload once with `construct_point_set`
(plus `integrate` and `omega_discrepancy` on the region workload), one call
at a time from one caller.  A run measures whole passes: it starts another
pass only while the pass fits in the remaining `--seconds`, and always
measures at least one.  Later passes rebuild the same cases, so their
outputs must hash equal to the first pass.

Quality metrics (D*, certificate fields) are deterministic given the seed
and come from the first pass.  References (i.i.d. median D*, scrambled
Sobol D*) and the correctness checks run outside the timed window.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.stats import qmc

import nuqmc.pipeline
from nuqmc.discrepancy import exact_star_discrepancy
from nuqmc.integration import integrate, omega_discrepancy, reference_integral
from nuqmc.measures import PointSet
from spans import Tracer, patched, self_times
from workloads import THETA, Setup, Workload, cases, make_setup

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
IID_REPS = 201       # i.i.d. sets per N behind the reference median
SOBOL_REPS = 15      # scrambles per N behind the Sobol reference median

# span name -> per-layer self-time metric
SELF_TIME_METRICS = {
    "measures.sample": "measures.sample_s",
    "measures.mass_on_grid": "measures.mass_grid_s",
    "selection.decompose": "selection.decompose_s",
    "selection.select_subset": "selection.select_self_s",
    "dyadic.build_scheme": "dyadic.build_scheme_s",
    "dyadic.round_array": "dyadic.round_self_s",
    "balancing.Hypergraph": "balancing.hypergraph_s",
    "balancing.beck_fiala_round": "balancing.beck_fiala_self_s",
    "balancing.edge_error": "balancing.edge_error_s",
    "discrepancy.exact_star_discrepancy": "discrepancy.sampling_scan_s",
    "discrepancy.discrete_discrepancy": "discrepancy.selection_scan_s",
    "pipeline.construct_point_set": "pipeline.construct_self_s",
    "integration.integrate": "integration.integrate_s",
    "integration.omega_discrepancy": "integration.omega_disc_s",
}


def metric_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them under `kind`
    ("end_to_end" or "per_layer")."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


@dataclass
class Outcome:
    n: int
    seed: int
    points: PointSet | None = None
    cert: dict | None = None
    estimate: float | None = None
    omega_disc: float | None = None
    error: str | None = None
    digest: str | None = None


def run_pass(setup: Setup, case_list, tracer: Tracer | None = None):
    """Build every case once; returns (seconds in library calls, outcomes)."""

    def call(fn, name):
        return tracer.wrap(fn, name) if tracer is not None else fn

    construct = call(nuqmc.pipeline.construct_point_set, "pipeline.construct_point_set")
    integ = call(integrate, "integration.integrate")
    odisc = call(omega_discrepancy, "integration.omega_discrepancy")
    lib = 0.0
    outcomes = []
    for n, s in case_list:
        out = Outcome(n, s)
        t0 = time.perf_counter()
        try:
            out.points, out.cert = construct(setup.mu, n, nuqmc.pipeline.ConstructionConfig(seed=s))
            if setup.integrand is not None:
                out.estimate = integ(setup.integrand, out.points)
                out.omega_disc = odisc(out.points, setup.omega)
        except Exception as exc:  # a failed operation is counted, not fatal
            out.error = f"{type(exc).__name__}: {exc}"
        lib += time.perf_counter() - t0
        if out.points is not None:
            out.digest = hashlib.sha256(out.points.points.tobytes()).hexdigest()
        outcomes.append(out)
    return lib, outcomes


def run_window(setup: Setup, case_list, seconds: float):
    """Closed loop of whole passes for `seconds`; at least one pass."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(setup, case_list))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def check_case(setup: Setup, out: Outcome) -> tuple[list[str], float | None]:
    """Problems with one first-pass outcome, and its exact D* against mu."""
    if out.error is not None:
        return [out.error], None
    problems = []
    if out.points.n != out.n:
        problems.append(f"{out.points.n} points, expected {out.n}")
    disc = exact_star_discrepancy(out.points, setup.mu).value
    if disc > out.cert["bound"]:
        problems.append(f"D* {disc!r} exceeds certificate bound {out.cert['bound']!r}")
    if setup.omega is not None:
        outside = int(np.sum(~setup.omega.contains(out.points.points)))
        if outside:
            problems.append(f"{outside} points outside the region")
    return problems, disc


def check_repeat(first: Outcome, again: Outcome, what: str) -> list[str]:
    if again.error is not None:
        return [again.error]
    if again.digest != first.digest:
        return [f"{what} point hash differs from the first untraced pass"]
    return []


# ---------------------------------------------------------------------------
# references (outside the timed window)
# ---------------------------------------------------------------------------


def _child_seeds(*entropy, count: int):
    return [int(s) for s in np.random.SeedSequence(list(entropy)).generate_state(count, np.uint64)]


def iid_median(setup: Setup, n: int, seed: int) -> float:
    """Median exact D* of IID_REPS i.i.d. mu-samples of size n."""
    vals = [
        exact_star_discrepancy(setup.mu.sample(s, n), setup.mu).value
        for s in _child_seeds(seed, n, 1, count=IID_REPS)
    ]
    return float(statistics.median(vals))


def sobol_median(setup: Setup, n: int, seed: int) -> float:
    """Median exact D* of SOBOL_REPS scrambled Sobol sets mapped by the
    marginal inverse CDFs (product measures only; n must be a power of two)."""
    mu = setup.mu
    m = n.bit_length() - 1
    if 1 << m != n:
        raise ValueError("Sobol reference needs N a power of two")
    vals = []
    for s in _child_seeds(seed, n, 2, count=SOBOL_REPS):
        u = qmc.Sobol(mu.dim, scramble=True, seed=s).random_base2(m)
        pts = np.column_stack([mu.cdfs[j].inverse(u[:, j]) for j in range(mu.dim)])
        vals.append(exact_star_discrepancy(PointSet(np.clip(pts, 0.0, 1.0)), mu).value)
    return float(statistics.median(vals))


def cubature_errors(workload: Workload, setup: Setup, outcomes) -> list[float]:
    """|mean of linear-sum - exact mean| per set: against reference_integral
    on the region, against d*theta/(theta+1) under power(theta)^d."""
    if setup.integrand is not None:
        ref = reference_integral(setup.integrand)
        return [abs(o.estimate - ref) for o in outcomes]
    exact = workload.d * THETA / (THETA + 1.0)
    return [abs(float(np.mean(o.points.points.sum(axis=1))) - exact) for o in outcomes]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def layer_metrics(spans, traced_wall: float, untraced_wall: float, cubature_err: float) -> dict:
    """Per-layer self times and counts from one traced pass."""
    st = self_times(spans)
    by_id = {s.id: s for s in spans}

    def owner(s):
        # the scan core's time belongs to the scan that called it
        while s.name == "discrepancy.scan_grid" and s.parent is not None:
            s = by_id[s.parent]
        return s.name

    out = {name: 0.0 for name in SELF_TIME_METRICS.values()}
    for s in spans:
        metric = SELF_TIME_METRICS.get(owner(s))
        if metric is not None:
            out[metric] += st[s.id]
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def attr(name, key):
        return [s.attrs[key] for s in named[name] if key in s.attrs]

    schemes = named["dyadic.build_scheme"]
    scans = named["discrepancy.exact_star_discrepancy"] + named["discrepancy.discrete_discrepancy"]
    out.update({
        "measures.mass_grid_cells": sum(attr("measures.mass_on_grid", "cells")),
        "selection.cells": sum(attr("selection.decompose", "cells")),
        "dyadic.build_scheme_calls": len(schemes),
        "dyadic.build_scheme_distinct": len(set(attr("dyadic.build_scheme", "key"))),
        "dyadic.edges": sum(attr("dyadic.build_scheme", "edges")),
        "dyadic.degree": max(attr("dyadic.build_scheme", "degree"), default=0),
        "dyadic.prefix_error": _mean(attr("dyadic.round_array", "prefix_error")),
        "balancing.per_edge_error": _mean(attr("balancing.beck_fiala_round", "per_edge_error")),
        "balancing.fallbacks": sum(attr("balancing.beck_fiala_round", "fallback")),
        "discrepancy.scans_attempted": len(scans),
        "discrepancy.scans_refused": sum(s.error == "BudgetExceededError" for s in scans),
        "discrepancy.cells_scanned": sum(attr("discrepancy.scan_grid", "cells")),
        "integration.cubature_err": cubature_err,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unaccounted_s": traced_wall - sum(out[m] for m in SELF_TIME_METRICS.values()),
    })
    return out


def layer_split(metrics: dict) -> dict:
    """Self seconds per layer (the metric-name prefix) plus the unaccounted
    remainder of the traced wall_s."""
    split = defaultdict(float)
    for metric in SELF_TIME_METRICS.values():
        split[metric.split(".")[0]] += metrics[metric]
    split["unaccounted"] = metrics["trace.unaccounted_s"]
    return dict(split)


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


@dataclass
class RunResult:
    attempted: int
    failed: int
    problems: list
    metrics: dict          # end-to-end or per-layer values, by trace mode
    references: dict
    cases: list
    pass_s: list           # library seconds of each timed pass
    spans: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def summary(self, units: dict) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": unit}
                for name, unit in units.items()
                if name in self.metrics
            },
        }


def run(workload: Workload, seed: int, seconds: float, trace: bool, setup_s: float | None = None) -> RunResult:
    """One benchmark run: timed window, optional traced pass, gate, metrics.

    `setup_s` is measured by the caller (it needs fresh interpreters)."""
    setup = make_setup(workload)
    case_list = cases(workload, seed)
    passes = run_window(setup, case_list, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pass_s = [lib for lib, _ in passes]
    wall = float(statistics.median(pass_s))
    first = passes[0][1]

    problems = []

    def gate(out, found) -> int:
        problems.extend(f"case N={out.n} seed={out.seed}: {p}" for p in found)
        return int(bool(found))

    failed = 0   # operations with at least one problem
    discs = []
    for out in first:
        found, disc = check_case(setup, out)
        discs.append(disc)
        failed += gate(out, found)
    for p, (_, outs) in enumerate(passes[1:], start=1):
        failed += sum(gate(o, check_repeat(f, o, f"pass {p}")) for f, o in zip(first, outs))
    attempted = sum(len(outs) for _, outs in passes)

    spans = []
    traced_wall = None
    if trace:
        tracer = Tracer()
        with patched(tracer, measures=[setup.mu]):
            traced_wall, traced = run_pass(setup, case_list, tracer=tracer)
        spans = tracer.spans
        attempted += len(traced)
        failed += sum(gate(o, check_repeat(f, o, "traced")) for f, o in zip(first, traced))

    ok = [i for i, out in enumerate(first) if out.error is None]
    good = [first[i] for i in ok]
    references = {}
    case_rows = []
    metrics = {}
    if good:
        iid = {n: iid_median(setup, n, seed) for n in sorted({o.n for o in good})}
        references["iid_median_disc"] = {str(n): v for n, v in iid.items()}
        if not workload.region:
            references["sobol_median_disc"] = {
                str(n): sobol_median(setup, n, seed) for n in sorted(iid)
            }
        cub = cubature_errors(workload, setup, good)
        for i, c in zip(ok, cub):
            out = first[i]
            case_rows.append({
                "n": out.n, "seed": out.seed, "sha256": out.digest, "disc_star": discs[i],
                "cert_bound": out.cert["bound"], "cert_achieved": out.cert["achieved_bound"],
                "sampling_mode": out.cert["sampling_mode"], "cubature_err": c,
                "omega_disc": out.omega_disc,
            })
        if trace:
            metrics = layer_metrics(spans, traced_wall, wall, _mean(cub))
        else:
            metrics = {
                "setup_s": setup_s,
                "wall_s": wall,
                "disc_star": _mean([discs[i] for i in ok]),
                "disc_vs_iid": max(
                    _mean([discs[i] for i in ok if first[i].n == n]) / iid[n] for n in iid
                ),
                "cert_bound": _mean([o.cert["bound"] for o in good]),
                "cert_achieved": _mean([o.cert["achieved_bound"] for o in good]),
                "peak_rss_mb": rss_mb,
            }
    return RunResult(attempted, failed, problems, metrics, references, case_rows, pass_s, spans)
