"""Smoke test of tools/same_reports.py: the checkout replayed against itself
on one benchmark job list finds no differing job."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_same_reports_finds_no_difference_against_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same_reports.py"), str(ROOT), "--workloads", "frame-sums", "--seeds", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert "0 differing job(s) over 1 job list(s)" in proc.stderr
