"""Paired benchmark runs of a parent commit against this source tree.

    python3 tools/bench_pairs.py --parent 5be1a2f --workload scan-d1 --pairs 10 --seed 100

Exports the parent ref with `git archive` into a temporary directory and
runs `bench/run.py` from both trees, one run after the other, in `--pairs`
pairs; the side that runs first alternates from pair to pair.  Pair i runs
seed `--seed + i` on both sides, for the run length BENCHMARK.json sets.
The change side is this tree as it stands on disk, so commit or stash
first to measure a commit.

Per end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles and the change's wins (ties count for neither), and checks

  gain   the change wins at least 9/10 of the pairs, and its median is
         better than the parent's by more than the parent's interquartile
         range;
  bound  the change's median is no worse than the parent's by more than the
         metric's bound, a fraction of the parent's median.  Where the
         parent's own interquartile range is wider than the bound the metric
         reads "unresolved", unless the two sides are equal in every pair or
         every run of the change is better than every run of the parent.

Each pair's line names the end-to-end metrics whose values are equal on
both sides.  It also prints the failed share of operations on each side.
The exit code is 1 when a run fails its correctness gate or prints no
summary, else 0.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GAIN_SHARE = 0.9  # share of pairs the change must win for a gain


def quartiles(values):
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(pairs, spec):
    """Verdict rows of paired runs.

    `pairs` is a list of (parent, change) dicts of metric name -> value, one
    per pair; `spec` is BENCHMARK.json's "end_to_end" list.  A metric
    missing from any run is left out."""
    rows = []
    for metric in spec:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        if not pairs or any(name not in p or name not in c for p, c in pairs):
            continue
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        p_q, c_q = quartiles(parent), quartiles(change)
        iqr = p_q[2] - p_q[0]
        gap = sign * (p_q[1] - c_q[1])  # > 0: the change's median is better
        if change == parent:
            verdict = "ok"  # equal in every pair, however the seeds spread it
        elif max(sign * v for v in change) < min(sign * v for v in parent):
            verdict = "ok"  # every run of the change is better
        elif iqr > bound * abs(p_q[1]):
            verdict = "unresolved"
        elif -gap > bound * abs(p_q[1]):
            verdict = "WORSE"
        else:
            verdict = "ok"
        rows.append({
            "name": name, "unit": metric["unit"], "better": metric["better"],
            "bound": bound, "pairs": len(pairs), "wins": wins, "losses": losses,
            "parent": p_q, "change": c_q,
            "gain": wins >= GAIN_SHARE * len(pairs) and gap > iqr,
            "verdict": verdict,
        })
    return rows


def format_rows(rows):
    lines = []
    for r in rows:
        p, c = r["parent"], r["change"]
        lines.append(
            f"{r['name']:<14} parent {p[1]:.6g} [{p[0]:.6g}, {p[2]:.6g}]  "
            f"change {c[1]:.6g} [{c[0]:.6g}, {c[2]:.6g}] {r['unit']}  "
            f"wins {r['wins']}/{r['pairs']} losses {r['losses']}  "
            f"gain {'yes' if r['gain'] else 'no'}  bound {r['bound']:g}: {r['verdict']}"
        )
    return lines


def export(ref, dest):
    """The files of `ref` in this repository, written under `dest`."""
    done = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
        tar.extractall(dest, filter="data")


def run_bench(tree, workload, seed, seconds):
    """(exit code, summary dict or None) of one benchmark run in `tree`."""
    done = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        summary = None
    if done.returncode or summary is None:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
    return done.returncode, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seed < 0:
        parser.error("--pairs must be >= 1 and --seed >= 0")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    failed = False
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        export(args.parent, parent_tree)
        sides = {"parent": parent_tree, "change": ROOT}
        for workload in args.workload:
            runs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                got = {}  # side -> summary dict, {} if the run printed none
                for side in order:
                    code, summary = run_bench(sides[side], workload, seed, seconds)
                    failed |= code != 0 or summary is None
                    got[side] = summary or {}
                values = {
                    side: {name: m["value"] for name, m in summary.get("metrics", {}).items()}
                    for side, summary in got.items()
                }
                runs.append((got, values))
                same = [
                    m["name"] for m in bench["end_to_end"]
                    if m["name"] in values["parent"]
                    and values["parent"][m["name"]] == values["change"].get(m["name"])
                ]
                print(f"{workload} pair {i} seed {seed} first {order[0]}: " + "  ".join(
                    f"{k} {values['parent'].get(k, float('nan')):.4g}/{values['change'].get(k, float('nan')):.4g}"
                    for k in ("setup_s", "wall_s", "peak_rss_mb")
                ) + f"  equal: {' '.join(same) or '-'}", flush=True)
            rows = summarize([(v["parent"], v["change"]) for _, v in runs], bench["end_to_end"])
            print(f"== {workload}: {args.pairs} pairs, {seconds:g} s runs, parent {args.parent}")
            for side in ("parent", "change"):
                att = sum(got[side].get("attempted", 0) for got, _ in runs)
                bad = sum(got[side].get("failed", 0) for got, _ in runs)
                print(f"{side} operations: attempted={att} failed={bad}")
            print("\n".join(format_rows(rows)), flush=True)
    if failed:
        print("FAIL: a run failed its correctness gate or printed no summary", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
