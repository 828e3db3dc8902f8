"""The verdicts of tools/bench_pairs.py on synthetic paired runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "disc_star", "unit": "1", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "hits", "unit": "1", "better": "higher", "bound": 0.1},
]


def test_summary_wins_gain_and_bounds():
    parent_wall = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    change_wall = [0.80, 0.82, 0.79, 0.81, 0.80, 0.83, 0.78, 0.80, 0.82, 1.05]  # loses pair 9
    pairs = [
        (
            {"wall_s": p, "disc_star": 0.01, "peak_rss_mb": 100.0, "hits": 10.0},
            # the change is 12 % worse on memory, beyond its 10 % bound, and
            # its hits tie the parent's in every pair but one
            {"wall_s": c, "disc_star": 0.01, "peak_rss_mb": 112.0, "hits": 11.0 if i == 0 else 10.0},
        )
        for i, (p, c) in enumerate(zip(parent_wall, change_wall))
    ]
    pairs[0][0]["unused"] = 1.0  # a metric BENCHMARK.json does not declare is ignored
    rows = {r["name"]: r for r in bench_pairs.summarize(pairs, SPEC)}
    assert list(rows) == ["wall_s", "disc_star", "peak_rss_mb", "hits"]

    wall = rows["wall_s"]
    assert (wall["wins"], wall["losses"], wall["pairs"]) == (9, 1, 10)
    assert wall["parent"] == pytest.approx((0.9825, 1.0, 1.0175))
    assert wall["change"][1] == pytest.approx(0.805)
    assert wall["gain"] and wall["verdict"] == "ok"

    # ties count for neither side, and no gain without wins
    disc = rows["disc_star"]
    assert (disc["wins"], disc["losses"], disc["gain"], disc["verdict"]) == (0, 0, False, "ok")
    assert rows["peak_rss_mb"]["verdict"] == "WORSE"
    hits = rows["hits"]  # higher is better: one win, nine ties
    assert (hits["wins"], hits["losses"], hits["gain"], hits["verdict"]) == (1, 0, False, "ok")

    # 8 wins of 10 is no gain, and a median gap inside the parent's IQR is none either
    eight = bench_pairs.summarize(pairs[:8] + [pairs[8][::-1], pairs[9]], SPEC)[0]
    assert eight["wins"] == 8 and not eight["gain"]
    spread = [({"wall_s": 1.0 + 0.4 * (i % 2)}, {"wall_s": 0.95 + 0.4 * (i % 2)}) for i in range(10)]
    row = bench_pairs.summarize(spread, SPEC)[0]
    assert row["wins"] == 10 and not row["gain"]
    # a parent spread wider than the bound leaves a small slow-down unresolved
    noisy = [({"wall_s": 1.0 + 0.6 * (i % 2)}, {"wall_s": 1.05 + 0.6 * (i % 2)}) for i in range(10)]
    assert bench_pairs.summarize(noisy, SPEC)[0]["verdict"] == "unresolved"
    # and a median gap beyond the bound too: the spread is tested first
    slower = [({"wall_s": 1.0 + 0.6 * (i % 2)}, {"wall_s": 1.4 + 0.6 * (i % 2)}) for i in range(10)]
    row = bench_pairs.summarize(slower, SPEC)[0]
    assert row["change"][1] - row["parent"][1] > 0.25 * row["parent"][1]
    assert row["verdict"] == "unresolved"
    # equal in every pair reads ok, although the seeds spread the parent's
    # quartiles far beyond the bound
    seeds = [0.70, 0.96, 0.72, 0.94, 0.71, 0.95, 0.73, 0.96, 0.70, 0.93]
    equal = [({"disc_star": v}, {"disc_star": v}) for v in seeds]
    row = bench_pairs.summarize(equal, SPEC)[0]
    assert row["parent"][2] - row["parent"][0] > 0.25 * row["parent"][1]
    assert (row["wins"], row["losses"], row["gain"], row["verdict"]) == (0, 0, False, "ok")
    # higher is better: a change below the parent in every run is worse
    fewer = [({"hits": 10.0 + i % 2}, {"hits": 5.0}) for i in range(10)]
    assert bench_pairs.summarize(fewer, SPEC)[0]["verdict"] == "WORSE"
    # a metric missing from a run is left out
    assert bench_pairs.summarize([({"wall_s": 1.0}, {})], SPEC) == []
    assert any("wins 9/10" in line for line in bench_pairs.format_rows([wall]))
