"""Self-tests of the construction benchmark: span arithmetic, patching,
correctness gate, and metric names and units on a tiny input.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import harness  # noqa: E402
import nuqmc.dyadic  # noqa: E402
import nuqmc.pipeline  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

TINY = workloads.Workload("tiny", 1, ((16, 1),), False, "d=1, N=16")


def test_self_time_subtracts_union_of_clipped_children():
    parent = Span(0, "p", 0.0, 10.0)
    kids = [
        Span(1, "a", 1.0, 3.0, parent=0),
        Span(2, "b", 2.0, 5.0, parent=0),    # overlaps a: union [1, 5]
        Span(3, "c", 9.0, 12.0, parent=0),   # clipped to [9, 10]
        Span(4, "g", 1.5, 2.5, parent=1),    # grandchild: only a's self time
    ]
    st = self_times([parent, *kids])
    assert st[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert st[1] == pytest.approx(2.0 - 1.0)
    assert st[2] == pytest.approx(3.0)
    assert st[3] == pytest.approx(3.0)
    assert st[4] == pytest.approx(1.0)


def test_tracer_nests_spans_and_self_times_partition_the_root():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap(lambda: None, "leaf")

    def middle():
        leaf()
        leaf()

    tracer.wrap(middle, "middle")()
    root, first, second = tracer.spans
    assert (first.parent, second.parent, root.parent) == (root.id, root.id, None)
    st = self_times(tracer.spans)
    assert sum(st.values()) == pytest.approx(root.end - root.start)


def test_tracer_records_errors_and_reraises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    (span,) = tracer.spans
    assert span.error == "ValueError" and span.end is not None
    assert tracer._stack == []


def test_patches_restore_originals():
    setup = workloads.make_setup(TINY)
    before = nuqmc.dyadic.build_scheme, nuqmc.pipeline.select_subset
    with spans.patched(Tracer(), measures=[setup.mu]):
        assert nuqmc.dyadic.build_scheme is not before[0]
        assert "sample" in vars(setup.mu)
    assert (nuqmc.dyadic.build_scheme, nuqmc.pipeline.select_subset) == before
    assert "sample" not in vars(setup.mu)


@pytest.fixture(scope="module")
def tiny_runs():
    plain = harness.run(TINY, seed=3, seconds=0.01, trace=False, setup_s=0.5)
    traced = harness.run(TINY, seed=3, seconds=0.01, trace=True)
    return plain, traced


def test_end_to_end_run_reports_every_declared_metric(tiny_runs):
    plain, _ = tiny_runs
    assert plain.correct and plain.attempted >= 1
    units = harness.metric_units("end_to_end")
    summary = plain.summary(units)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == units
    values = {k: v["value"] for k, v in summary["metrics"].items()}
    assert all(v > 0 for v in values.values())
    assert values["disc_star"] <= values["cert_bound"]
    assert set(plain.references) == {"iid_median_disc", "sobol_median_disc"}
    json.dumps(summary)


def test_traced_run_reports_every_declared_metric_and_counts(tiny_runs):
    _, traced = tiny_runs
    assert traced.correct
    units = harness.metric_units("per_layer")
    summary = traced.summary(units)
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == units
    m = traced.metrics
    assert m["selection.cells"] == 16
    assert m["dyadic.build_scheme_calls"] == m["dyadic.build_scheme_distinct"] == 1
    assert m["dyadic.degree"] == 5                      # (log2 16 + 1)^1
    assert m["dyadic.edges"] == 31                      # 2^(m+1) - 1
    assert m["discrepancy.scans_attempted"] == 2
    assert m["discrepancy.scans_refused"] == 0
    assert m["integration.integrate_s"] == m["integration.omega_disc_s"] == 0.0
    assert abs(m["trace.unaccounted_s"]) < 0.05 * m["trace.wall_s"]
    split = harness.layer_split(m)
    assert sum(split.values()) == pytest.approx(m["trace.wall_s"])


def test_gate_flags_wrong_size_loose_bound_and_changed_hash():
    setup = workloads.make_setup(TINY)
    _, (out,) = harness.run_pass(setup, workloads.cases(TINY, 0))
    assert harness.check_case(setup, out)[0] == []
    out.cert = {**out.cert, "bound": 0.0}
    out.n = 17
    problems, _ = harness.check_case(setup, out)
    assert len(problems) == 2
    again = harness.Outcome(out.n, out.seed, digest="0" * 64)
    assert harness.check_repeat(out, again, "traced")
