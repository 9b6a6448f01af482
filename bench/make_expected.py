#!/usr/bin/env python3
"""Write the pinned reports that ``cli_batch`` compares byte for byte.

    python3 bench/make_expected.py

Run from the root of a checkout, only when a change to the reports is
intended; the reports do not depend on the seed, which ``cli_batch``
checks on every run.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    workloads.EXPECTED_DIR.mkdir(exist_ok=True)
    with workloads.work_dir(workloads.cli_files(random.Random(0))) as work_dir:
        for name, args in workloads.CLI_CALLS:
            code, out, _ = harness.run_child(workloads.cli_argv(args), ROOT, work_dir / f"{name}.stdout")
            if code != 0:
                print(f"{name}: exit code {code}", file=sys.stderr)
                return 1
            (workloads.EXPECTED_DIR / f"{name}.out").write_bytes(out)
            print(f"{name}: {len(out)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
