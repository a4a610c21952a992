"""Smoke tests: the scripts under scripts/ run to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _assert_script_exits_zero(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_scan_pathology_report_runs():
    out = _assert_script_exits_zero("scan_pathology_report.py")
    # neighbor distances in time order: grid-adjacent cells at most one row (or column) apart, not in scan order
    rows = [line.split() for line in out.splitlines() if line[:2].isdigit()]
    assert len(rows) == 12
    for grid, _, max_dist, *_ in rows:
        assert int(max_dist) == int(grid.split("x")[0])


def test_run_toy_pipeline_runs(tmp_path):
    _assert_script_exits_zero(
        "run_toy_pipeline.py", "--steps", "2", "--scenes", "1", "--channels", "8", "--workdir", str(tmp_path)
    )
