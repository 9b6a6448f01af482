"""Per-op time cap, host-speed reference and the child-process runner
used by the benchmark.

All work in the one thread of the benchmark process: the cap is a
SIGALRM timer whose handler raises ``OpTimeout`` wherever the op is, the
reference is a fixed computation timed between the ops, and a child
is reaped with ``os.wait4`` so that its own peak RSS is known.
"""

from __future__ import annotations

import os
import signal
import subprocess
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import List, Tuple

# About the seconds the reference takes on a 2-vCPU host at its base
# speed.  A time scaled by REFERENCE_S / reference() reads as seconds at
# the speed at which the reference takes REFERENCE_S.
REFERENCE_S = 0.005


class OpTimeout(BaseException):
    """Raised inside an op that ran past its cap.  A BaseException, so that
    ``except Exception`` in the code under test cannot swallow it."""


@contextmanager
def time_cap(seconds: float):
    def on_alarm(signum, frame):
        raise OpTimeout(f"op ran past its cap of {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def reference() -> float:
    """Seconds for a fixed computation of the kind the ops do: Fraction
    arithmetic on growing integers and an interpreted integer loop.  On a
    shared host the interpreter's speed changes by up to 1.9x over
    seconds to minutes, and the ratio of an op's time to the reference
    timed around it moves much less than either (see NOTES.md)."""
    start = perf_counter()
    x = Fraction(1, 3)
    for i in range(1, 400):
        x = (x * Fraction(i, i + 7) + Fraction(1, i)) % 97
    s = 0
    for i in range(20000):
        s += i * i % 7
    return perf_counter() - start


def run_child(argv: List[str], root: Path, stdout_path: Path) -> Tuple[int, bytes, int]:
    """Run argv in ``root`` with ``PYTHONPATH=src``; return its exit code,
    its stdout and its peak RSS in KiB.  An ``OpTimeout`` arriving while
    waiting kills and reaps the child before it propagates."""
    with open(stdout_path, "wb") as out:
        proc = subprocess.Popen(argv, cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")),
                                stdout=out, stderr=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout_path.read_bytes(), usage.ru_maxrss
