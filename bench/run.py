"""Construction benchmark for nuqmc.

    python3 bench/run.py --workload scan-d1 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  With `--trace 0` the last line of standard output is a JSON object
with the end-to-end metrics; with `--trace 1` it carries the per-layer
metrics of one extra traced pass.  Every metric is also printed by name
with its unit, and the full record (environment, references, per-case
results, spans) is written under `.bench_out/`.  The exit code is 0 only
when every operation passed the correctness gate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SCAN_BUDGET = 10**8     # library default; decides which scans run
SETUP_REPEATS = 11
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_SNIPPET = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
t0 = time.perf_counter()
import nuqmc
import workloads
workloads.make_setup(workloads.WORKLOADS[{name!r}])
print(time.perf_counter() - t0)
"""


def pin_environment() -> int:
    """Fix what the library reads from the environment; returns nproc."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    os.environ["NUQMC_BUDGET"] = str(SCAN_BUDGET)
    return nproc


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def measure_setup(name: str) -> float:
    """Median seconds of `import nuqmc` plus measure/region construction,
    each in a fresh interpreter."""
    code = SETUP_SNIPPET.format(src=str(SRC), bench=str(BENCH), name=name)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return float(statistics.median(times))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "nuqmc" / "__init__.py").is_file():
        print(f"error: no nuqmc sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    nproc = pin_environment()
    sys.path[:0] = [str(SRC), str(BENCH)]
    import numpy
    import scipy

    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    env = {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "NUQMC_BUDGET": os.environ["NUQMC_BUDGET"],
        **{var: os.environ[var] for var in THREAD_VARS},
    }
    print(f"nuqmc construction benchmark: workload={workload.name} ({workload.inputs}) "
          f"seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))

    setup_s = None if args.trace else measure_setup(workload.name)
    result = harness.run(workload, args.seed, args.seconds, bool(args.trace), setup_s)
    units = harness.metric_units("per_layer" if args.trace else "end_to_end")

    for problem in result.problems:
        print(f"FAIL {problem}")
    print(f"timed passes: {len(result.pass_s)} ({', '.join(f'{t:.3f}' for t in result.pass_s)} s)")
    print(f"operations: attempted={result.attempted} failed={result.failed} "
          f"fail_rate={result.failed / result.attempted:.4g}")
    for kind, per_n in result.references.items():
        for n, value in per_n.items():
            print(f"reference {kind}[N={n}] = {value:.6g} 1")
    for name, unit in units.items():
        if name in result.metrics:
            print(f"metric {name} = {result.metrics[name]:.6g} {unit}")
    if args.trace and result.metrics:
        wall = result.metrics["trace.wall_s"]
        for layer, secs in harness.layer_split(result.metrics).items():
            print(f"split {layer} = {secs:.4g} s ({100 * secs / wall:.1f}% of traced wall_s)")
    summary = result.summary(units)

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {**summary, "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "pass_s": result.pass_s, "env": env, "references": result.references, "cases": result.cases,
              "problems": result.problems}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        spans = [dataclasses.asdict(s) for s in result.spans]
        (OUT / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(summary))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
