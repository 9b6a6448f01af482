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
