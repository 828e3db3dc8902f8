"""CLI subcommands, exit codes, and manifest reproducibility."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np

from conftest import pin_message
from nuqmc import cli, discrepancy
from nuqmc.balancing import TRACE_KEYS
from nuqmc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_disc_single_midpoint(tmp_path, capsys):
    p = tmp_path / "p.csv"
    p.write_text("0.5\n")
    code, out, _ = run(capsys, "disc", "--points", str(p), "--measure", "uniform", "--d", "1")
    assert code == 0
    assert float(out.strip()) == 0.5


def test_disc_refuses_nan_coordinates(tmp_path, capsys):
    # a NaN point, or a NaN atom of a discrete measure, exits 2 with no value
    p = tmp_path / "p.csv"
    p.write_text("0.2\nnan\n0.7\n")
    code, out, err = run(capsys, "disc", "--points", str(p), "--measure", "uniform", "--d", "1")
    assert (code, out) == (2, "") and "[0,1]" in err
    p.write_text("0.5\n")
    (tmp_path / "atoms.csv").write_text("0.25\nnan\n0.75\n")
    m = tmp_path / "m.json"
    m.write_text('{"type": "discrete", "points": "atoms.csv"}')
    code, out, err = run(capsys, "disc", "--points", str(p), "--measure", str(m))
    assert (code, out) == (2, "") and "[0,1]" in err


def test_disc_bracket_mode(tmp_path, capsys, monkeypatch):
    # over the budget the exact scan is refused, and disc prints the
    # bracket "lower upper" on the largest grid the budget holds
    p = tmp_path / "p.csv"
    rng = np.random.default_rng(1)
    np.savetxt(p, rng.random((40, 2)), delimiter=",")
    code, exact_out, _ = run(capsys, "disc", "--points", str(p), "--measure", "uniform",
                             "--d", "2")
    assert code == 0
    report = tmp_path / "r.json"
    # the refused exact scan leaves its sort to the bracket
    sorts, grid = [], discrepancy._grid

    def counted(points):
        sorts.append(points.shape)
        return grid(points)

    monkeypatch.setattr(discrepancy, "_grid", counted)
    code, out, _ = run(capsys, "disc", "--points", str(p), "--measure", "uniform",
                       "--d", "2", "--budget", "200", "--report", str(report))
    assert code == 0 and sorts == [(40, 2)]
    lower, upper = map(float, out.split())
    assert lower <= float(exact_out.strip()) <= upper
    rep = json.loads(report.read_text())
    assert rep["mode"] == "bracket" and rep["grid"] == [10, 10]
    assert (rep["value"], rep["upper"]) == (lower, upper)
    assert json.loads((tmp_path / "r.json.manifest.json").read_text())["scan_budget"] == 200


def test_disc_manifest_times_the_scan(tmp_path, capsys, monkeypatch):
    # the manifest's wall time covers the scan: a fake clock moves 5 s while
    # the scan runs
    clock = [100.0]
    monkeypatch.setattr(cli.time, "time", lambda: clock[0])
    scan = cli.exact_star_discrepancy

    def slow_scan(*args, **kwargs):
        clock[0] += 5.0
        return scan(*args, **kwargs)

    monkeypatch.setattr(cli, "exact_star_discrepancy", slow_scan)
    p = tmp_path / "p.csv"
    p.write_text("0.5\n")
    report = tmp_path / "r.json"
    code, _, _ = run(capsys, "disc", "--points", str(p), "--measure", "uniform", "--d", "1",
                     "--report", str(report))
    assert code == 0
    assert json.loads((tmp_path / "r.json.manifest.json").read_text())["wall_time_s"] == 5.0


def test_inverse_size_paper(capsys):
    code, out, _ = run(capsys, "inverse-size", "--d", "1", "--eps", "0.5", "--mode", "paper")
    assert code == 0
    assert out.strip() == "268435456"


def test_gen_disc_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "m.json"
    cfg.write_text('{"type": "product", "cdfs": [{"type": "power", "theta": 2.0}]}')
    out_csv = tmp_path / "pts.csv"
    cert = tmp_path / "cert.json"
    code, _, _ = run(
        capsys, "gen", "--measure", str(cfg), "--n", "16", "--seed", "1",
        "--out", str(out_csv), "--certificate", str(cert),
    )
    assert code == 0
    code, out, _ = run(capsys, "disc", "--points", str(out_csv), "--measure", str(cfg))
    assert code == 0
    value = float(out.strip())
    bound = json.loads(cert.read_text())["bound"]
    assert value <= bound


def test_gen_refuses_infinite_theta(tmp_path, capsys):
    # JSON's Infinity parses to a float; the measure is refused with exit 2
    cfg = tmp_path / "m.json"
    cfg.write_text('{"type": "product", "cdfs": [{"type": "power", "theta": Infinity}]}')
    out_csv = tmp_path / "pts.csv"
    code, _, err = run(capsys, "gen", "--measure", str(cfg), "--n", "4", "--out", str(out_csv))
    assert code == 2 and "theta" in err and not out_csv.exists()


def test_manifest_reproducibility(tmp_path, capsys):
    cfg = tmp_path / "m.json"
    cfg.write_text('{"type": "uniform", "d": 1}')
    hashes = []
    for rep in ("a", "b"):
        out_csv = tmp_path / f"pts_{rep}.csv"
        code, _, _ = run(
            capsys, "gen", "--measure", str(cfg), "--n", "8", "--seed", "3",
            "--out", str(out_csv),
        )
        assert code == 0
        manifest = json.loads((tmp_path / f"pts_{rep}.csv.manifest.json").read_text())
        assert manifest["seed"] == 3
        assert set(manifest["versions"]) == {"python", "numpy", "scipy"}
        hashes.append(sha(out_csv))
    assert hashes[0] == hashes[1]


def test_manifest_records_the_scan_budget(tmp_path, capsys, monkeypatch):
    # the same argv certifies a measured sampling term under one scan budget
    # and a bracketed one under a smaller: the manifest tells them apart
    modes = {}
    for budget in (10**8, 10**6):
        monkeypatch.setenv("NUQMC_BUDGET", str(budget))
        out_csv, cert = tmp_path / f"pts_{budget}.csv", tmp_path / f"cert_{budget}.json"
        code, _, _ = run(capsys, "gen", "--measure", "uniform", "--d", "2", "--n", "16",
                         "--seed", "0", "--out", str(out_csv), "--certificate", str(cert))
        assert code == 0
        manifest = json.loads((tmp_path / f"pts_{budget}.csv.manifest.json").read_text())
        assert manifest["scan_budget"] == budget
        modes[budget] = json.loads(cert.read_text())["sampling_mode"]
    assert modes == {10**8: "measured", 10**6: "bracket"}


def test_seq_command(tmp_path, capsys):
    out_csv = tmp_path / "seq.csv"
    cert = tmp_path / "env.json"
    code, _, _ = run(
        capsys, "seq", "--measure", "uniform", "--d", "1", "--count", "6",
        "--seed", "2", "--out", str(out_csv), "--certificate", str(cert),
    )
    assert code == 0
    envs = json.loads(cert.read_text())["prefix_envelopes"]
    assert len(envs) == 6
    pts = np.loadtxt(out_csv, delimiter=",").reshape(-1, 1)
    assert pts.shape == (6, 1)


def test_select_command(tmp_path, capsys):
    z = tmp_path / "z.csv"
    rng = np.random.default_rng(0)
    np.savetxt(z, rng.random((100, 2)), delimiter=",")
    out_csv = tmp_path / "sel.csv"
    code, out, _ = run(capsys, "select", "--points", str(z), "--n", "10",
                       "--out", str(out_csv))
    assert code == 0
    sel = np.loadtxt(out_csv, delimiter=",")
    assert sel.shape == (10, 2)


def test_round_command(tmp_path, capsys):
    h = tmp_path / "h.json"
    h.write_text('{"n": 4, "edges": [[0, 1, 2, 3]]}')
    beta = tmp_path / "beta.json"
    beta.write_text("[0.5, 0.5, 0.5, 0.5]")
    out = tmp_path / "res.json"
    code, text, _ = run(capsys, "round", "--hypergraph", str(h), "--beta", str(beta),
                        "--out", str(out))
    assert code == 0
    res = json.loads(out.read_text())
    assert res["guaranteed_bound"] == 1.0
    assert res["achieved_error"] <= 1.0


def test_round_command_output_unchanged(tmp_path, capsys):
    # an empty edge and unsorted edges; apart from the engine counters the
    # output is pinned byte for byte to that of the LP-jump walk
    h = tmp_path / "h.json"
    h.write_text(
        '{"n": 10, "edges": [[3, 1, 2], [], [9, 0, 5, 7], [8, 6, 4, 2, 0], [5, 1], '
        "[7, 3, 9, 6, 1, 0], [2, 4, 6, 8, 9, 5, 3]]}"
    )
    beta = tmp_path / "beta.json"
    beta.write_text("[0.25, 0.5, 0.75, 0.125, 0.625, 0.375, 0.875, 0.3, 0.6, 0.9]")
    out = tmp_path / "res.json"
    code, _, _ = run(capsys, "round", "--hypergraph", str(h), "--beta", str(beta),
                     "--out", str(out))
    assert code == 0
    res = json.loads(out.read_text())
    trace = {k: res.pop(k) for k in TRACE_KEYS}
    assert all(isinstance(v, int) for v in trace.values())
    expected = {
        "b": [0, 0, 1, 0, 1, 0, 1, 1, 0, 1],
        "achieved_error": 0.875,
        "guaranteed_bound": 5.0,
        "engine": "beck_fiala",
        "fallback": False,
    }
    want = json.dumps({**expected, **trace}, indent=2) + "\n"
    assert out.read_text() == want, pin_message("rounding")


def test_round_refuses_float_vertex_ids(tmp_path, capsys):
    # the id 2.5 is refused, not truncated to 2 and rounded over [0, 2]
    h = tmp_path / "h.json"
    h.write_text('{"n": 3, "edges": [[0, 2.5], [1]]}')
    beta = tmp_path / "beta.json"
    beta.write_text("[0.5, 0.5, 0.5]")
    out = tmp_path / "res.json"
    code, _, err = run(capsys, "round", "--hypergraph", str(h), "--beta", str(beta),
                       "--out", str(out))
    assert code == 2
    assert "integers" in err
    assert not out.exists()


def test_integrate_command(tmp_path, capsys):
    omega = tmp_path / "omega.json"
    omega.write_text('{"boxes": [[[0.0, 0.0], [0.5, 1.0]], [[0.5, 0.0], [1.0, 0.5]]]}')
    pts = tmp_path / "p.csv"
    np.savetxt(pts, [[0.25, 0.25], [0.1, 0.8], [0.7, 0.2]], delimiter=",")
    code, out, _ = run(capsys, "integrate", "--measure-omega", str(omega),
                       "--g", "const", "--points", str(pts))
    assert code == 0
    assert "estimate 1" in out


def test_bench_command(tmp_path, capsys):
    omega = tmp_path / "omega.json"
    omega.write_text('{"boxes": [[[0.0, 0.0], [0.5, 1.0]], [[0.5, 0.0], [1.0, 0.5]]]}')
    out = tmp_path / "bench.csv"
    code, _, _ = run(capsys, "bench", "--measure-omega", str(omega), "--g", "linear-sum",
                     "--n-list", "4,8", "--seeds", "2", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,method,seed,estimate,reference,error"
    assert len(lines) == 1 + 2 * (1 + 2)


def test_bench_jobs_deterministic(tmp_path, capsys):
    omega = tmp_path / "omega.json"
    omega.write_text('{"boxes": [[[0.0], [0.5]]]}')
    outs = []
    for jobs, name in ((1, "a.csv"), (2, "b.csv")):
        out = tmp_path / name
        code, _, _ = run(capsys, "bench", "--measure-omega", str(omega), "--g", "const",
                         "--n-list", "4,8", "--seeds", "2", "--jobs", str(jobs),
                         "--out", str(out))
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_bench_jobs_capped_at_the_n_list(tmp_path, capsys, monkeypatch):
    # a pool gets at most one worker per N, none for a single N, and --jobs
    # below 1 is refused; the stand-in pool maps in-process
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
    omega = tmp_path / "omega.json"
    omega.write_text('{"boxes": [[[0.0], [0.5]]]}')
    out = tmp_path / "bench.csv"
    for jobs, n_list, pools, code in (
        (64, "4,8", [2], 0), (64, "4", [], 0), (2, "4,8,16", [2], 0), (0, "4,8", [], 2), (-3, "4", [], 2),
    ):
        sizes.clear()
        got = run(capsys, "bench", "--measure-omega", str(omega), "--g", "const",
                  "--n-list", n_list, "--seeds", "1", "--jobs", str(jobs), "--out", str(out))
        assert (got[0], sizes) == (code, pools)
        if code:
            assert "--jobs" in got[2]


def test_verify_balancing_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "balancing", "--seed", "1")
    assert code == 0
    assert "PASS" in out
    assert "beck-fiala" in out


def test_verify_selection_suite(capsys):
    # the suite measures every selection's discrepancy from its row indices
    code, out, _ = run(capsys, "verify", "--suite", "selection", "--seed", "1")
    assert code == 0
    assert "PASS" in out
    assert "selection d=2" in out


def test_exit_code_usage_error(capsys):
    code, _, err = run(capsys, "gen", "--measure", "uniform")
    assert code == 1  # missing required arguments


def test_exit_code_precondition(tmp_path, capsys):
    z = tmp_path / "z.csv"
    np.savetxt(z, np.random.default_rng(0).random((10, 1)), delimiter=",")
    code, _, err = run(capsys, "select", "--points", str(z), "--n", "9",
                       "--out", str(tmp_path / "s.csv"))
    assert code == 2  # 9 > sqrt(10)
    assert "sqrt" in err
    for k in ("-4", "0"):  # refused by name before any isqrt
        code, _, err = run(capsys, "gen", "--measure", "uniform", "--d", "1", "--n", "2",
                           "--k-policy", f"K={k}", "--out", str(tmp_path / "g.csv"))
        assert code == 2 and f"K={k}" in err and "isqrt" not in err


def test_refused_scale_seeds_and_coordinate_free_region(tmp_path, capsys):
    # each exits 2 with the option named, not with a traceback
    code, _, err = run(capsys, "gen", "--measure", "uniform", "--d", "1", "--n", "2",
                       "--scale-c", "-3", "--out", str(tmp_path / "g.csv"))
    assert code == 2 and "scale_c=-3" in err and "isqrt" not in err
    omega = tmp_path / "omega.json"
    omega.write_text('{"boxes": [[[0.0], [0.5]]]}')
    for seeds in ("0", "-2"):
        code, _, err = run(capsys, "bench", "--measure-omega", str(omega), "--g", "const",
                           "--n-list", "4", "--seeds", seeds, "--out", str(tmp_path / "b.csv"))
        assert code == 2 and "--seeds" in err
    pts = tmp_path / "p.csv"
    np.savetxt(pts, [[0.25], [0.7]], delimiter=",")
    for boxes in ("[[[], []]]", "[[[0.1]]]"):  # no coordinates; no hi corner
        omega.write_text(f'{{"boxes": {boxes}}}')
        code, _, err = run(capsys, "integrate", "--measure-omega", str(omega), "--g", "const",
                           "--points", str(pts))
        assert code == 2 and "coordinate" in err
        code, _, err = run(capsys, "bench", "--measure-omega", str(omega), "--g", "const",
                           "--n-list", "4", "--out", str(tmp_path / "b.csv"))
        assert code == 2 and "coordinate" in err
    assert not (tmp_path / "b.csv").exists()


def test_exit_code_budget(tmp_path, capsys, monkeypatch):
    p = tmp_path / "p.csv"
    np.savetxt(p, np.random.default_rng(0).random((50, 2)), delimiter=",")
    # below d steps not even a one-corner bracket fits; above, a bracket runs
    code, _, err = run(capsys, "disc", "--points", str(p), "--measure", "uniform",
                       "--d", "2", "--budget", "1")
    assert code == 3
    assert "budget" in err
    code, out, _ = run(capsys, "disc", "--points", str(p), "--measure", "uniform",
                       "--d", "2", "--budget", "10")
    assert code == 0 and len(out.split()) == 2


def test_exit_code_lattice_budget_before_sampling(tmp_path, capsys, monkeypatch):
    # the fourth block of the sequence has N=16384 in d=2: its lattice is
    # refused (code 3) before its K = 2^32 points are sampled; the paper
    # policy at N=4 is refused before its K = 2^30 points are sampled
    from nuqmc.measures import ProductExtensionMeasure, ProductMeasure

    for cls in (ProductExtensionMeasure, ProductMeasure):
        def guarded(self, seed, count, sample=cls.sample):
            assert count <= 1 << 20, f"sampled {count} points"
            return sample(self, seed, count)

        monkeypatch.setattr(cls, "sample", guarded)
    for argv, reason in (
        (["seq", "--count", "70"], "lattice"),
        (["gen", "--n", "4", "--k-policy", "paper"], "sample budget"),
    ):
        code, _, err = run(capsys, *argv, "--measure", "uniform", "--d", "1",
                           "--out", str(tmp_path / "out.csv"))
        assert code == 3
        assert reason in err


def test_budget_env_override(tmp_path, capsys, monkeypatch):
    p = tmp_path / "p.csv"
    np.savetxt(p, np.random.default_rng(0).random((50, 2)), delimiter=",")
    monkeypatch.setenv("NUQMC_BUDGET", "1")
    code, _, _ = run(capsys, "disc", "--points", str(p), "--measure", "uniform", "--d", "2")
    assert code == 3
    monkeypatch.setenv("NUQMC_BUDGET", "10")
    code, out, _ = run(capsys, "disc", "--points", str(p), "--measure", "uniform", "--d", "2")
    assert code == 0 and len(out.split()) == 2
    monkeypatch.setenv("NUQMC_BUDGET", "100000000")
    code, out, _ = run(capsys, "disc", "--points", str(p), "--measure", "uniform", "--d", "2")
    assert code == 0 and len(out.split()) == 1


def test_help_documents_formats(capsys):
    code = main(["disc", "--help"])
    assert code == 0
    out = capsys.readouterr().out
    assert "csv" in out.lower()


# Runs in a fresh interpreter: what the test process has already imported says nothing.
_COLD_START = """
import sys
from pathlib import Path

import nuqmc
import nuqmc.cli
from nuqmc import PowerCdf, ProductMeasure, construct_point_set, exact_star_discrepancy

tmp = Path(sys.argv[1])
mu = ProductMeasure([PowerCdf(2.0)])
pts = mu.sample(0, 64)
exact_star_discrepancy(pts, mu)
pts.to_csv(tmp / "p.csv")
(tmp / "omega.json").write_text('{"boxes": [[[0.0, 0.0], [0.5, 1.0]], [[0.5, 0.0], [1.0, 0.5]]]}')
(tmp / "q.csv").write_text("0.25,0.25\\n0.1,0.8\\n0.7,0.2\\n")
for argv in (
    ["disc", "--points", str(tmp / "p.csv"), "--measure", "uniform", "--d", "1",
     "--report", str(tmp / "r.json")],
    ["disc", "--points", str(tmp / "p.csv"), "--measure", "uniform", "--d", "1",
     "--budget", "32"],
    ["integrate", "--measure-omega", str(tmp / "omega.json"), "--g", "const",
     "--points", str(tmp / "q.csv")],
    ["inverse-size", "--d", "1", "--eps", "0.5", "--mode", "paper"],
    ["verify", "--suite", "measures"],
):
    assert nuqmc.cli.main(argv) == 0, argv
    assert "scipy" not in sys.modules, f"scipy loaded by {argv[0]}"

_, cert = construct_point_set(mu, 64)
assert "scipy" in sys.modules
assert cert["selection"]["rounding"]["engine_trace"]["lp_jumps"] >= 1
"""


def test_scipy_loads_at_the_first_lp_jump(tmp_path):
    # import, exact scans, disc (exact and bracketed), integrate, inverse-size
    # and verify --suite measures stay scipy-free; a construction loads scipy at its LP jump
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    done = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "r.json.manifest.json").exists()
