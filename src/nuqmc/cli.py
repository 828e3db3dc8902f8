"""Command-line front end: reproducible experiments over the library.

Subcommands: gen, seq, disc, select, round, integrate, bench, verify,
inverse-size.  Structured outputs are JSON, point sets are CSV (one row per
point, no header unless --header).  Every command that writes files also
writes a run manifest (<first output>.manifest.json) with the full argv, the
seed, the scan budget in effect, SHA-256 hashes of inputs and outputs, the
python, numpy and scipy versions, and the wall time; identical argv, seed and
scan budget reproduce byte-identical outputs under the same numpy/scipy
versions (the LP jump's vertex depends on the HiGHS build that scipy ships).

Exit codes: 0 success, 1 usage error, 2 precondition violation (e.g. the
selection hypothesis N <= sqrt(K)), 3 step/lattice budget exceeded.  The
environment variable NUQMC_BUDGET overrides the scan step budget; past it,
disc prints a deterministic bracket "lower upper" in place of the exact value.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from importlib import metadata
from pathlib import Path

import numpy as np

from . import balancing, dyadic, integration, measures, pipeline, selection
from .discrepancy import (
    BudgetExceededError,
    _resolve_budget,
    bracket_star_discrepancy,
    exact_star_discrepancy,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(args, inputs, outputs, t0):
    if not outputs:
        return
    manifest = {
        "command": args.command,
        "argv": sys.argv[1:],
        "seed": getattr(args, "seed", None),
        # the scans' budget decides between a measured and a bracketed result
        "scan_budget": _resolve_budget(getattr(args, "budget", None)),
        "inputs": {str(p): _sha256(p) for p in inputs if Path(p).exists()},
        "outputs": {str(p): _sha256(p) for p in outputs if Path(p).exists()},
        # read from package metadata, so that recording scipy's does not import it
        "versions": {
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
        },
        "wall_time_s": time.time() - t0,
    }
    path = Path(str(outputs[0]) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2) + "\n")


def _load_measure(source: str, d: int | None):
    if source == "uniform":
        if d is None:
            raise ValueError("--measure uniform requires --d")
        return measures.uniform_measure(d)
    return measures.measure_from_config(source)


def _resolve_k_policy(text: str):
    if text in ("scaled", "paper"):
        return text
    if text.startswith("K="):
        return int(text[2:])
    raise ValueError("--k-policy must be scaled, paper, or K=<int>")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_gen(args):
    t0 = time.time()
    mu = _load_measure(args.measure, args.d)
    cfg = pipeline.ConstructionConfig(_resolve_k_policy(args.k_policy), args.scale_c, args.seed)
    pts, cert = pipeline.construct_point_set(mu, args.n, cfg)
    pts.to_csv(args.out)
    outputs = [args.out]
    if args.certificate:
        Path(args.certificate).write_text(json.dumps(cert, indent=2, default=float) + "\n")
        outputs.append(args.certificate)
    inputs = [args.measure] if args.measure.endswith(".json") else []
    _write_manifest(args, inputs, outputs, t0)
    print(f"wrote {pts.n} points to {args.out} (bound {cert['bound']:.6g})")
    return 0


def _cmd_seq(args):
    t0 = time.time()
    mu = _load_measure(args.measure, args.d)
    cfg = pipeline.ConstructionConfig(_resolve_k_policy(args.k_policy), args.scale_c, args.seed)
    pts, state = pipeline.take_sequence(mu, args.count, cfg)
    pts.to_csv(args.out)
    outputs = [args.out]
    if args.certificate:
        env = [
            pipeline.prefix_certificate_envelope(state.block_certificates, n)
            for n in range(1, args.count + 1)
        ]
        payload = {
            "block_certificates": state.block_certificates,
            "prefix_envelopes": env,
        }
        Path(args.certificate).write_text(json.dumps(payload, indent=2) + "\n")
        outputs.append(args.certificate)
    inputs = [args.measure] if args.measure.endswith(".json") else []
    _write_manifest(args, inputs, outputs, t0)
    print(f"wrote first {pts.n} sequence points to {args.out}")
    return 0


def _cmd_disc(args):
    t0 = time.time()
    ps = measures.PointSet.from_csv(args.points, header=args.header)
    mu = _load_measure(args.measure, args.d if args.d else ps.dim)
    try:
        rep = exact_star_discrepancy(ps, mu, budget=args.budget)
    except BudgetExceededError:
        rep = bracket_star_discrepancy(ps, mu, budget=args.budget)
    print(f"{rep.value:.17g}" + (f" {rep.upper:.17g}" if rep.mode == "bracket" else ""))
    if args.report:
        Path(args.report).write_text(json.dumps(rep.to_dict(), indent=2) + "\n")
        _write_manifest(args, [args.points], [args.report], t0)
    return 0


def _cmd_select(args):
    t0 = time.time()
    z = measures.PointSet.from_csv(args.points, header=args.header)
    res = selection.select_subset(z, args.n)
    res.selected.to_csv(args.out)
    outputs = [args.out]
    if args.certificate:
        Path(args.certificate).write_text(
            json.dumps(res.to_dict(), indent=2, default=float) + "\n"
        )
        outputs.append(args.certificate)
    _write_manifest(args, [args.points], outputs, t0)
    print(f"selected {res.selected.n} of {z.n} points -> {args.out}")
    return 0


def _cmd_round(args):
    t0 = time.time()
    h = balancing.Hypergraph.from_dict(json.loads(Path(args.hypergraph).read_text()))
    beta = np.asarray(json.loads(Path(args.beta).read_text()), dtype=float)
    res = balancing.beck_fiala_round(h, beta)
    payload = res.to_dict()
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2, default=float) + "\n")
        _write_manifest(args, [args.hypergraph, args.beta], [args.out], t0)
    print(
        f"engine={res.engine} achieved={res.achieved_error:.6g} "
        f"bound={res.guaranteed_bound:.6g} fallback={res.fallback}"
    )
    return 0


def _cmd_integrate(args):
    omega = measures.OmegaRegion(json.loads(Path(args.measure_omega).read_text())["boxes"])
    g, _ = integration.BUILTIN_INTEGRANDS[args.g]
    ig = integration.Integrand(g, omega, name=args.g)
    ps = measures.PointSet.from_csv(args.points, header=args.header)
    est = integration.integrate(ig, ps)
    ref = integration.reference_integral(ig)
    print(f"estimate {est:.12g}  reference {ref:.12g}  abs_error {abs(est - ref):.6g}")
    return 0


def _bench_one(payload):
    boxes, gname, n, seeds, k_policy, scale_c = payload
    omega = measures.OmegaRegion(boxes)
    g, _ = integration.BUILTIN_INTEGRANDS[gname]
    ig = integration.Integrand(g, omega, name=gname)
    return integration.benchmark(ig, [n], seeds, pipeline.ConstructionConfig(k_policy, scale_c))


def _cmd_bench(args):
    t0 = time.time()
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    raw = json.loads(Path(args.measure_omega).read_text())
    boxes = raw["boxes"]
    n_list = [int(v) for v in args.n_list.split(",")]
    seeds = list(range(args.seeds))
    payloads = [
        (boxes, args.g, n, seeds, _resolve_k_policy(args.k_policy), args.scale_c)
        for n in n_list
    ]
    # a fork-started pool launches all its workers at the first submit
    workers = min(args.jobs, len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            chunks = list(ex.map(_bench_one, payloads))
    else:
        chunks = [_bench_one(p) for p in payloads]
    rows = [r for chunk in chunks for r in chunk]
    Path(args.out).write_text(integration.benchmark_csv(rows))
    _write_manifest(args, [args.measure_omega], [args.out], t0)
    print(f"wrote {len(rows)} benchmark rows to {args.out}")
    return 0


def _cmd_inverse_size(args):
    n = pipeline.inverse_size(args.d, args.eps, mode=args.mode, seed=args.seed)
    print(n)
    return 0


def _verify_balancing(seed):
    rng = np.random.default_rng(seed)
    rows = []
    ok = True
    for label, count, n_max in (("small", 40, 48), ("medium", 15, 160)):
        worst, bound_max = 0.0, 0
        for _ in range(count):
            n = int(rng.integers(4, n_max))
            cap = int(rng.integers(1, 11))
            deg = np.zeros(n, dtype=int)
            edges = []
            for _ in range(int(rng.integers(1, 3 * n // 2))):
                pool = np.flatnonzero(deg < cap)
                if pool.size == 0:
                    break
                k = int(rng.integers(1, min(pool.size, 3 * cap) + 1))
                e = rng.choice(pool, size=k, replace=False)
                deg[e] += 1
                edges.append(e)
            h = balancing.Hypergraph(n, tuple(edges))
            beta = rng.random(n)
            res = balancing.beck_fiala_round(h, beta)
            bound = max(2 * h.max_degree - 1, 0)
            ok &= res.achieved_error <= bound + 1e-9
            worst = max(worst, res.achieved_error)
            bound_max = max(bound_max, bound)
        rows.append((f"beck-fiala {label}", count, worst, bound_max))
    return ok, rows


def _verify_dyadic(seed):
    rng = np.random.default_rng(seed)
    rows = []
    ok = True
    for d, n in ((1, 32), (1, 64), (2, 16)):
        beta = rng.random((n,) * d)
        b, cert = dyadic.round_array(beta)
        ok &= cert["measured_prefix_error"] <= cert["prefix_bound"] + 1e-9
        rows.append((f"dyadic d={d} N={n}", 1, cert["measured_prefix_error"], cert["prefix_bound"]))
    return ok, rows


def _verify_selection(seed):
    rng = np.random.default_rng(seed)
    rows = []
    ok = True
    from .discrepancy import discrete_discrepancy

    for d, k, n in ((1, 1024, 32), (2, 1024, 24)):
        z = measures.uniform_measure(d).sample(int(rng.integers(1 << 30)), k)
        res = selection.select_subset(z, n)
        dd = discrete_discrepancy(z, res.indices)
        ok &= dd <= res.certificate["box_bound"] + 1e-9
        rows.append((f"selection d={d} K={k} N={n}", 1, dd, res.certificate["box_bound"]))
    return ok, rows


def _verify_measures(seed):
    rows = []
    ok = True
    cases = [
        ("uniform d=3", measures.uniform_measure(3)),
        ("power(0.5) x power(3)", measures.ProductMeasure(
            [measures.PowerCdf(0.5), measures.PowerCdf(3.0)])),
        ("restriction L", measures.RestrictionMeasure(
            measures.OmegaRegion([([0, 0], [0.5, 1]), ([0.5, 0], [1, 0.5])]))),
    ]
    for label, mu in cases:
        diag = measures.validate(mu, seed=seed)
        ok &= diag.passed
        rows.append((f"validate {label}", len(diag.checks), float(not diag.passed), 0.0))
    return ok, rows


def _cmd_verify(args):
    suites = {
        "balancing": _verify_balancing,
        "dyadic": _verify_dyadic,
        "selection": _verify_selection,
        "measures": _verify_measures,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    all_ok = True
    print(f"{'suite':<34}{'instances':>10}{'max measured':>16}{'bound':>12}")
    for name in names:
        ok, rows = suites[name](args.seed)
        all_ok &= ok
        for label, count, measured, bound in rows:
            print(f"{label:<34}{count:>10}{measured:>16.6g}{bound:>12.6g}")
    print("PASS" if all_ok else "FAIL")
    return 0 if all_ok else 2


# ---------------------------------------------------------------------------


def _build_parser():
    p = _Parser(prog="nuqmc", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common_gen(q):
        q.add_argument("--measure", required=True,
                       help="measure config JSON path, or 'uniform' with --d")
        q.add_argument("--d", type=int, help="dimension for --measure uniform")
        q.add_argument("--seed", type=int, default=0)
        q.add_argument("--k-policy", default="scaled",
                       help="scaled | paper | K=<int> (sampling budget policy)")
        q.add_argument("--scale-c", type=int, default=16,
                       help="K = scale_c * N^2 under the scaled policy")
        q.add_argument("--certificate", help="write the certificate JSON here")

    q = sub.add_parser("gen", help="construct an N-point set for a measure")
    add_common_gen(q)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--out", required=True, help="points CSV (one row per point)")
    q.set_defaults(func=_cmd_gen)

    q = sub.add_parser("seq", help="emit a prefix of the infinite sequence")
    add_common_gen(q)
    q.add_argument("--count", type=int, required=True, help="prefix length")
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_seq)

    q = sub.add_parser("disc", help="star-discrepancy of a point set")
    q.add_argument("--points", required=True, help="points CSV")
    q.add_argument("--header", action="store_true", help="points CSV has a header row")
    q.add_argument("--measure", required=True)
    q.add_argument("--d", type=int)
    q.add_argument("--budget", type=int, help="scan step budget; past it, print 'lower upper'")
    q.add_argument("--report", help="write the full report JSON here")
    q.set_defaults(func=_cmd_disc)

    q = sub.add_parser("select", help="select N points of a larger set")
    q.add_argument("--points", required=True)
    q.add_argument("--header", action="store_true")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--out", required=True)
    q.add_argument("--certificate")
    q.set_defaults(func=_cmd_select)

    q = sub.add_parser("round", help="round a fractional vector over a hypergraph")
    q.add_argument("--hypergraph", required=True, help='JSON {"n": ..., "edges": [[...]]}')
    q.add_argument("--beta", required=True, help="JSON array of fractional values")
    q.add_argument("--out")
    q.set_defaults(func=_cmd_round)

    q = sub.add_parser("integrate", help="mean-over-points estimate of a region integral")
    q.add_argument("--measure-omega", required=True, help='JSON {"boxes": [[[lo],[hi]], ...]}')
    q.add_argument("--g", choices=sorted(integration.BUILTIN_INTEGRANDS), required=True)
    q.add_argument("--points", required=True)
    q.add_argument("--header", action="store_true")
    q.set_defaults(func=_cmd_integrate)

    q = sub.add_parser("bench", help="constructed vs Monte Carlo integration errors")
    q.add_argument("--measure-omega", required=True)
    q.add_argument("--g", choices=sorted(integration.BUILTIN_INTEGRANDS), required=True)
    q.add_argument("--n-list", required=True, help="comma-separated point counts")
    q.add_argument("--seeds", type=int, default=5, help="number of Monte Carlo seeds")
    q.add_argument("--k-policy", default="scaled")
    q.add_argument("--scale-c", type=int, default=16)
    q.add_argument("--jobs", type=int, default=1, help="parallel workers over the N list")
    q.add_argument("--out", required=True, help="CSV: n,method,seed,estimate,reference,error")
    q.set_defaults(func=_cmd_bench)

    q = sub.add_parser("inverse-size", help="sample size achieving discrepancy <= eps")
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--eps", type=float, required=True)
    q.add_argument("--mode", choices=["paper", "empirical"], default="paper")
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=_cmd_inverse_size)

    q = sub.add_parser("verify", help="run invariant suites, print bound-vs-measured")
    q.add_argument("--suite", choices=["balancing", "dyadic", "selection", "measures", "all"],
                   default="all")
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=_cmd_verify)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
