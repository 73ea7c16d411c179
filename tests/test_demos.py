"""Every demo runs, and the plot and table files it writes match the committed ones.

Each script runs from a copy of demos/ in a temporary directory, so it
writes its demo_output/ there and never over the committed files.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))
# the deterministic files each demo writes under demo_output/
COMMITTED = {
    "04_closed_loop_tracking.py": ["tracking_q1.csv", "tracking_q2.csv", "tracking_q3.csv"],
    "05_predictor_comparison.py": ["comparison/comparison.csv", "comparison/plot_compare.csv"],
}


def test_every_demo_is_found():
    assert len(SCRIPTS) == 5 and set(COMMITTED) <= set(SCRIPTS)


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_runs_and_matches_committed_output(tmp_path, script):
    shutil.copytree(ROOT / "demos", tmp_path / "demos")
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "demos" / script)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for name in COMMITTED.get(script, []):
        written = (tmp_path / "demo_output" / name).read_bytes()
        assert written == (ROOT / "demo_output" / name).read_bytes(), f"{name} differs"
