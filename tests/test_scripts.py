"""Smoke test of the reproduction scripts in ``scripts/``: each one runs to
the end in its own interpreter and prints a known line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import alexinv

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
# lines a script prints besides the one its case pins
LABELS = {
    "run_zariski_sextics.py": [
        "nine points off a conic (positions only: no sextic over Q has nine rational cusps):",
    ],
    # every row of both tables: any moved Betti number or depth fails here
    "run_cover_table.py": [
        "    n1 = 1: [2, 3, 4, 5]",
        "    n1 = 2: [3, 5, 7, 9]",
        "    n1 = 3: [4, 7, 10, 13]",
        "    n1 = 4: [5, 9, 13, 17]",
        "    n =  2: depths [0], unbranched b_1 = 1, branched b_1 = 0",
        "    n =  3: depths [0, 0], unbranched b_1 = 1, branched b_1 = 0",
        "    n =  5: depths [0, 0, 0, 0], unbranched b_1 = 1, branched b_1 = 0",
        "    n = 12: depths [0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0], unbranched b_1 = 3, branched b_1 = 2",
    ],
}


@pytest.mark.parametrize(
    "script, line",
    [
        (
            "run_zariski_sextics.py",
            "    Alexander polynomial: t^6 - 3*t^5 + 6*t^4 - 7*t^3 + 6*t^2 - 3*t + 1",
        ),
        ("run_local_invariants.py", "    Alexander (total linking) = t^2 - t + 1"),
        (
            "run_cover_table.py",
            "    n =  6: depths [1, 0, 0, 0, 1], unbranched b_1 = 3, branched b_1 = 2",
        ),
    ],
)
def test_script_runs(script, line):
    # the child imports the same alexinv as this process
    env = {**os.environ, "PYTHONPATH": str(Path(alexinv.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / script)], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    printed = out.stdout.splitlines()
    for expected in [line, *LABELS.get(script, [])]:
        assert expected in printed
