"""Self-test of the benchmark: the smallest rung of every workload passes
its exact check, and a wrong answer, an exception or a timeout is
counted as a failed op without stopping the run.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Ops of the smallest rung of each workload, by name prefix.
SMALLEST = {
    "fox_covers": ("vk3.0.", "sphere4.", "trefoil.unbranched.6", "trefoil.branched.6", "hopf.unbranched.2x2"),
    "germ_faces": ("x2y3.",),
    "global_curves": ("conic6.", "sextic_delta.cyclic_cover_h1.6", "ladder.general12.n6."),
    "cli_batch": ("cli.lct",),
}
# One op per workload whose answer is replaced by a plausible wrong one.
WRONG = {
    "fox_covers": ("trefoil.branched.6", 3),
    "germ_faces": ("x2y3.lct_threshold", 1),
    "global_curves": ("ladder.general12.n6.superabundance", 1),
    "cli_batch": ("cli.lct", (0, b"threshold: 1\n")),
}


def smallest_rung(name: str, seed: int = 0):
    workload = workloads.build(name, seed)
    ops = [op for op in workload.ops if op.name.startswith(SMALLEST[name])]
    assert ops
    return workload, ops


def run_ops(workload, ops):
    with workloads.work_dir(workload.files):
        return run.run_pass(ops, {}, time.perf_counter())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smallest_rung_passes_its_checks(name):
    workload, ops = smallest_rung(name)
    records = run_ops(workload, ops)
    assert [r.status for r in records] == ["ok"] * len(ops), [r for r in records if r.status != "ok"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_wrong_answer_is_flagged_and_counted(name):
    workload, ops = smallest_rung(name)
    target, wrong = WRONG[name]
    (op,) = [op for op in ops if op.name == target]
    op.run = lambda ctx: wrong
    records = run_ops(workload, ops)
    statuses = {r.op: r.status for r in records}
    assert statuses.pop(target) == "wrong"
    assert set(statuses.values()) <= {"ok"}


def test_exception_and_timeout_are_failed_ops(monkeypatch):
    monkeypatch.setattr(run, "OP_CAP_S", 0.2)

    def spin(ctx):
        while True:
            pass

    ops = [
        workloads.Op("raises", lambda ctx: 1 // 0, lambda v: True),
        workloads.Op("spins", spin, lambda v: True),
        workloads.Op("fine", lambda ctx: 2, lambda v: v == 2),
    ]
    records = run.run_pass(ops, {}, time.perf_counter())
    assert [r.status for r in records] == ["error", "timeout", "ok"]
    assert records[1].seconds < 5


def test_pass_cut_by_run_limit_keeps_the_times_of_the_first(monkeypatch):
    def sleep(ctx):
        time.sleep(0.05)
        return 0

    ops = [workloads.Op(f"op{i}", sleep, lambda v: v == 0) for i in range(4)]
    first = run.run_pass(ops, {}, time.perf_counter())
    # the run limit falls after the first op of the second pass
    monkeypatch.setattr(run, "RUN_LIMIT_S", 0.02)
    second = run.run_pass(ops, {}, time.perf_counter())
    assert [r.status for r in second] == ["ok", "skipped", "skipped", "skipped"]
    op_ms, attempted, failed = run.summarize([first, second])
    assert (attempted, failed) == (5, 0)
    assert op_ms[0] == (first[0].scaled + second[0].scaled) / 2 * 1000
    assert op_ms[1:] == [r.scaled * 1000 for r in first[1:]]
    assert min(op_ms) > 0


def test_unrun_and_timed_out_ops_fail_and_count_the_cap(monkeypatch):
    monkeypatch.setattr(run, "OP_CAP_S", 0.2)
    ok = run.Record("fine", None, 0.001, "ok")
    timeout = run.Record("spins", None, 0.19, "timeout")
    skipped = run.Record("late", None, 0.0, "skipped")
    op_ms, attempted, failed = run.summarize([[ok, timeout, skipped]])
    assert (attempted, failed) == (3, 2)
    assert op_ms == [1.0, 200.0, 200.0]


def test_times_are_scaled_to_the_reference_speed():
    slow_host = run.Record("op", None, 0.3, "ok", ref=2 * run.REFERENCE_S)
    assert slow_host.scaled == 0.15
    assert 0 < harness.reference() < 1


def test_checks_hold_on_another_seed():
    workload, ops = smallest_rung("germ_faces", seed=12345)
    assert {r.status for r in run_ops(workload, ops)} == {"ok"}


def test_tracer_counts_calls_and_restores_originals():
    import alexinv.linalg
    import alexinv.polytope

    original = alexinv.linalg.rational_rank
    workload, ops = smallest_rung("germ_faces")
    tracer = tracing.Tracer()
    tracer.install(workloads)
    try:
        assert alexinv.polytope.rational_rank is not original
        records = run_ops(workload, ops)
    finally:
        tracer.uninstall()
    assert alexinv.linalg.rational_rank is original and alexinv.polytope.rational_rank is original
    assert {r.status for r in records} == {"ok"}
    metrics = tracer.metrics()
    assert metrics["resolution.resolve.calls"] == 1
    assert metrics["quasiadj.polytopes_and_faces.calls"] == 1
    assert metrics["linalg.rational_rank.calls"] > 0
    assert metrics["polytope.faces.calls_per_reported_face"] > 0


def test_galois_orbit_identifies_conjugate_characters():
    from fractions import Fraction as F

    assert tracing.galois_orbit([F(1, 6)]) == tracing.galois_orbit([F(5, 6)])
    assert tracing.galois_orbit([F(1, 6)]) != tracing.galois_orbit([F(1, 3)])
    assert tracing.galois_orbit([F(1, 4), F(1, 2)]) == tracing.galois_orbit([F(3, 4), F(1, 2)])
