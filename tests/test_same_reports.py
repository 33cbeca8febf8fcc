"""tools/same_reports.py: its line format and float changes on fixed jobs,
the pass that keeps the reports, and a smoke test in which the checkout
replayed against itself on one benchmark job list finds no differing
job."""

import hashlib
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


def test_float_change_reads_floats_only():
    there = {"ok": True, "rows": [{"xi": 0.5, "Q_T": 0.75}, {"xi": 0.25, "Q_T": 2.0}], "n": 3}
    here = {"ok": True, "rows": [{"xi": 0.5, "Q_T": 0.7500000000000001}, {"xi": 0.25, "Q_T": 1.5}], "n": 3}
    assert same_reports.float_change(there, there) == (0.0, 0.0)
    assert same_reports.float_change(there, here) == (0.25, 0.5)
    for other in (dict(here, n=4), dict(here, ok=False), dict(here, rows=here["rows"][:1]), dict(here, n=3.0)):
        assert same_reports.float_change(there, other) is None
    assert same_reports.float_change([1.0], [float("inf")]) == (float("inf"), float("inf"))


def test_job_line_gives_the_float_change_of_kept_reports():
    parent = {"id": 4, "kind": "verify-jp", "rc": 0, "digest": "aa", "wrong": None, "report": '{"x": 1.0, "k": 2}'}
    change = dict(parent, digest="bb", report='{"x": 1.5, "k": 2}')
    assert same_reports.job_line("w seed 1", parent, change) == (
        "w seed 1 job 4 (verify-jp): digest 'aa' -> 'bb'; floats only: max relative 0.33, max absolute 0.5"
    )
    moved = dict(change, report='{"x": 1.0, "k": 3}')
    assert same_reports.job_line("w seed 1", parent, moved).endswith("; non-float fields differ")
    failed = dict(moved, rc=1)
    assert same_reports.job_line("w seed 1", parent, failed) == (
        "w seed 1 job 4 (verify-jp): rc 0 -> 1; digest 'aa' -> 'bb'"
    )


def test_pass_with_reports_keeps_each_report_text(tmp_path):
    """The pass writes each job's report next to the worker's own result:
    every text hashes to the job's digest."""
    same_reports._python(same_reports.HERE, str(same_reports.WORKER), "generate", "frame-sums", "1", str(tmp_path))
    jobs = same_reports._jobs(same_reports.HERE, str(tmp_path / "jobs.json"), tmp_path / "result.json")
    assert len(jobs) == 27
    for job in jobs:
        assert hashlib.sha256(job["report"].encode()).hexdigest() == job["digest"], job["id"]


def test_same_reports_finds_no_difference_against_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same_reports.py"), str(ROOT), "--workloads", "frame-sums", "--seeds", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert "0 differing job(s) over 1 job list(s)" in proc.stderr
