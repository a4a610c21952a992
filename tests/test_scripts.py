"""Smoke tests: the scripts under scripts/ run to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _assert_script_exits_zero(name: str, *args: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


def test_scan_pathology_report_runs():
    _assert_script_exits_zero("scan_pathology_report.py")


def test_run_toy_pipeline_runs(tmp_path):
    _assert_script_exits_zero(
        "run_toy_pipeline.py", "--steps", "2", "--scenes", "1", "--channels", "8", "--workdir", str(tmp_path)
    )
