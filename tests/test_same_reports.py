"""tools/same_reports.py: its line format on fixed jobs, and a smoke test in
which the checkout replayed against itself on one benchmark job list finds
no differing job."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("same_reports", ROOT / "tools" / "same_reports.py")
same_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_reports)


def test_job_line_reads_other_checkout_then_this_one():
    parent = {"id": 4, "kind": "verify-jp", "rc": 0, "digest": "aa", "wrong": None}
    change = {"id": 4, "kind": "verify-jp", "rc": 0, "digest": "bb", "wrong": None}
    assert same_reports.job_line("frame-sums seed 1", parent, change) == (
        "frame-sums seed 1 job 4 (verify-jp): digest 'aa' -> 'bb'"
    )
    failed = dict(change, rc=1, wrong="q_t")
    assert same_reports.job_line("w seed 2", parent, failed) == (
        "w seed 2 job 4 (verify-jp): rc 0 -> 1; digest 'aa' -> 'bb'; wrong None -> 'q_t'"
    )
    assert same_reports.job_line("w seed 2", parent, dict(parent)) is None


def test_same_reports_finds_no_difference_against_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same_reports.py"), str(ROOT), "--workloads", "frame-sums", "--seeds", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert "0 differing job(s) over 1 job list(s)" in proc.stderr
