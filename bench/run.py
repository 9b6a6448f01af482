#!/usr/bin/env python3
"""Benchmark of the alexinv package: one workload per invocation.

    python3 bench/run.py --workload fox_covers --seed 1 --seconds 26 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The workload's ops run in this process and thread, one after the other
(a closed loop with one client); ``cli_batch`` runs each op as a
``python -m alexinv.cli`` child.  Whole passes over the op list repeat
while the next one still fits in ``--seconds``, and at least twice when
the second fits in the run limit of 140 s.

Times are reported at the reference speed: a fixed computation
(``harness.reference``) is timed before and after each op and each
set-up probe, and the op's time is scaled by ``REFERENCE_S`` over the
mean of the two.  A shared
host changes speed by up to 1.9x over seconds to minutes, and the scaled
times follow the program, not the host.  Each op counts with its median
scaled time over the passes.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` it carries the per-layer metrics: an untraced pass, a pass
with wrappers counting calls and self time of the public functions of
each module, and another untraced pass.  Set-up time is measured in
fresh interpreters.

Stdout ends with a summary table, one JSON line describing the run
environment, and the result as one JSON object on the last line.  An op
that raised, timed out, returned a wrong answer or never ran counts as
failed and makes ``correct`` false.  The exit code is 0 when the run
completed, even if ops failed; set-up errors, such as a missing
``src/alexinv``, exit 2 without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from harness import REFERENCE_S, OpTimeout, reference, time_cap

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

OP_CAP_S = 30.0  # an op running longer is stopped and counted as failed
RUN_LIMIT_S = 140.0  # no op starts after this, and no pass that would end after it
MIN_PASSES = 2  # each op counts with at least two passes, even when the second overruns --seconds
SETUP_PROBES = 5
IMPORT_PROBES = 3

SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import alexinv, workloads\n"
    "workloads.build(sys.argv[3], int(sys.argv[4]))\n"
    "print(time.perf_counter() - t0)\n"
)
IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[1:2]\n"
    "import alexinv.cli\n"
    "print(time.perf_counter() - t0)\n"
)


@dataclass
class Record:
    op: str
    subcommand: Optional[str]
    seconds: float
    status: str  # ok, wrong, error, timeout, skipped
    detail: str = ""
    ref: float = REFERENCE_S  # mean seconds of the reference timed before and after the op

    @property
    def scaled(self) -> float:
        """The op's seconds at the reference speed."""
        return self.seconds * REFERENCE_S / self.ref


class SetupError(Exception):
    pass


def probe(code: str, *args: str) -> float:
    """Seconds a fresh interpreter reports for ``code``, at the reference
    speed."""
    before = reference()
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    if done.returncode != 0:
        raise SetupError(f"set-up probe failed:\n{done.stderr.strip()}")
    ref = (before + reference()) / 2
    return float(done.stdout.strip().splitlines()[-1]) * REFERENCE_S / ref


def run_op(op, ctx: dict) -> Record:
    start = perf_counter()
    try:
        with time_cap(OP_CAP_S):
            start = perf_counter()
            result = op.run(ctx)
            seconds = perf_counter() - start
    except OpTimeout:
        return Record(op.name, op.subcommand, perf_counter() - start, "timeout")
    except Exception as exc:  # a failed op is a result of the run
        return Record(op.name, op.subcommand, perf_counter() - start, "error", f"{type(exc).__name__}: {exc}")
    try:
        ok = bool(op.check(result))
    except Exception as exc:
        return Record(op.name, op.subcommand, seconds, "wrong", f"check raised {type(exc).__name__}: {exc}")
    return Record(op.name, op.subcommand, seconds, "ok" if ok else "wrong", "" if ok else repr(result)[:200])


def run_pass(ops, ctx: dict, run_start: float) -> List[Record]:
    """Each op between two timings of the reference; the op's ``ref`` is
    their mean."""
    records = []
    before = reference()
    for op in ops:
        if perf_counter() - run_start > RUN_LIMIT_S:
            records.append(Record(op.name, op.subcommand, 0.0, "skipped"))
            continue
        record = run_op(op, ctx)
        after = reference()
        record.ref = (before + after) / 2
        records.append(record)
        before = after
    return records


def summarize(passes: List[List[Record]]):
    """Each op's median time in ms at the reference speed over the passes,
    ops attempted, ops failed.

    A skipped record (the run limit came first) is no measurement: the op
    counts with the passes in which it ran.  An op skipped in every pass,
    and an op that timed out, count as failed and with at least the cap,
    so that a slower program never reads faster."""
    op_ms: List[float] = []
    attempted = failed = 0
    for records in zip(*passes):
        ran = [r for r in records if r.status != "skipped"]
        attempted += len(ran) or 1
        failed += sum(r.status != "ok" for r in ran) if ran else 1
        times = [max(r.scaled, OP_CAP_S) if r.status == "timeout" else r.scaled for r in ran]
        op_ms.append(statistics.median(times or [OP_CAP_S]) * 1000)
    return op_ms, attempted, failed


def quantile(values: List[float], q: int) -> float:
    """The q-th percentile, q a multiple of 10."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "alexinv").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "not a git checkout"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def environment(args, workload, passes: List[List[Record]]) -> dict:
    import sympy

    refs = [r.ref for records in passes for r in records if r.status != "skipped"]

    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "ops_per_pass": len(workload.ops),
        "passes": len(passes),
        "op_cap_s": OP_CAP_S,
        # the host's speed during the run: 5 ms at its base speed
        "reference_ms_median": statistics.median(refs) * 1000 if refs else None,
        # wall_s before scaling: the sum of each op's median raw time
        "raw_wall_s": sum(statistics.median(r.seconds for r in records if r.status != "skipped")
                          for records in zip(*passes) if any(r.status != "skipped" for r in records)),
        "input_sizes": workload.sizes,
    }


def measure(args, workload, tracer_factory) -> dict:
    """Run whole passes; return per-pass walls and records, the peak RSS
    of every child, set-up times, and in trace mode the per-layer values.

    Set-up probes run two before the first pass and one after each pass,
    so that they sample the host over the whole run, as the passes do."""
    import workloads

    def setup_probe():
        return probe(SETUP_PROBE, str(SRC), str(BENCH), args.workload, str(args.seed))

    run_start = perf_counter()
    walls: List[float] = []
    passes: List[List[Record]] = []
    rss: List[int] = []
    setup: List[float] = []
    trace_metrics: Dict[str, float] = {}

    def one_pass():
        ctx: dict = {"child_rss_kb": []}
        start = perf_counter()
        passes.append(run_pass(workload.ops, ctx, run_start))
        walls.append(perf_counter() - start)
        rss.extend(ctx["child_rss_kb"])

    if args.trace:
        # untraced, traced, untraced: the traced pass is compared with the
        # faster untraced one, so a cold first pass does not hide overhead
        one_pass()
        tracer = tracer_factory()
        tracer.install(workloads)
        try:
            one_pass()
        finally:
            tracer.uninstall()
        one_pass()
        trace_metrics = tracer.metrics()
        scaled = [sum(r.scaled for r in records) for records in passes]
        untraced = min(scaled[0], scaled[2])
        trace_metrics.update({
            "trace.untraced_wall_s": untraced,
            "trace.wall_s": scaled[1],
            "trace.overhead_s": scaled[1] - untraced,
        })
    else:
        setup += [setup_probe(), setup_probe()]
        while True:
            one_pass()
            if len(setup) < SETUP_PROBES:
                setup.append(setup_probe())
            elapsed = perf_counter() - run_start
            if elapsed + walls[-1] > RUN_LIMIT_S or (
                len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > args.seconds
            ):
                break
    while not args.trace and len(setup) < SETUP_PROBES:
        setup.append(setup_probe())
    return {"walls": walls, "passes": passes, "child_rss_kb": rss, "setup": setup, "trace": trace_metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "alexinv" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'alexinv'}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for this process and every child, so that an op or a CLI
    # child runs on the CPU the reference around it was timed on: the two
    # CPUs of a shared host slow down independently.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        import tracing
        import workloads

        workload = workloads.build(args.workload, args.seed)
        with workloads.work_dir(workload.files):
            result = measure(args, workload, tracing.Tracer)
    except (SetupError, ValueError, OSError, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    records = [r for recs in result["passes"] for r in recs]
    op_ms, attempted, failed = summarize(result["passes"])
    correct = failed == 0
    if result["child_rss_kb"]:
        peak_kb = max(result["child_rss_kb"])
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    metrics: Dict[str, tuple] = {}
    if args.trace:
        import_s = statistics.median(probe(IMPORT_PROBE, str(SRC)) for _ in range(IMPORT_PROBES))
        values = dict(result["trace"], **{"cli.import_s": import_s})
        for sub in tracing.CLI_SUBCOMMANDS:
            times = [r.scaled for r in records if r.subcommand == sub and r.status == "ok"]
            values[f"cli.{sub}.p50_s"] = statistics.median(times) if times else 0.0
        for name, unit in tracing.PER_LAYER:
            metrics[name] = (values[name], unit)
    else:
        metrics = {
            "setup_s": (statistics.median(result["setup"]), "s"),
            "wall_s": (sum(op_ms) / 1000, "s"),
            "op_p50_ms": (quantile(op_ms, 50), "ms"),
            "op_p90_ms": (quantile(op_ms, 90), "ms"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }

    for r in records:
        if r.status != "ok":
            print(f"{'NOT RUN' if r.status == 'skipped' else 'FAILED'} {r.op}: {r.status} {r.detail}")
    summary = dict(metrics, fail_ratio=(failed / attempted, "ratio"))
    print(f"{args.workload}: {attempted} ops in {len(result['walls'])} pass(es), "
          f"{len(workload.ops)} ops per pass, {failed} failed")
    for name, (value, unit) in summary.items():
        print(f"  {name:<48} {value:>14.6f} {unit}")
    print(json.dumps({"environment": environment(args, workload, result["passes"])}, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
