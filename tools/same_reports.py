"""Replay the benchmark's job lists on two checkouts and list the jobs whose
reports differ.

    python tools/same_reports.py OTHER_CHECKOUT [--workloads W ...] [--seeds S ...]

This checkout is the one that holds this script.  For each workload and
seed, ``bench/worker.py generate`` writes the job list and its inputs once,
into a temporary directory; then ``bench/worker.py pass`` runs that list once
with each checkout's ``src`` first on PYTHONPATH.  A job differs when its
exit code (``rc``), its report digest (``digest``) or its report check
(``wrong``) differs.  Every such job is printed, each differing field as
the other checkout's value -> this checkout's, so a run from a change
against its parent reads parent -> change.  The exit code is 1 if there is
such a job, else 0.  The defaults are the three workloads at seed 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
WORKER = HERE / "bench" / "worker.py"
WORKLOADS = ("stage-reduce", "tile-sweep", "frame-sums")
COMPARED = ("rc", "digest", "wrong")


def _worker(checkout: Path, *args: str) -> None:
    """bench/worker.py with ``checkout``'s package first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, str(WORKER), *args], env=env, stdout=subprocess.DEVNULL, check=True)


def _jobs(checkout: Path, job_list: str, result: Path) -> list[dict]:
    _worker(checkout, "pass", job_list, str(result))
    return json.loads(result.read_text(encoding="utf-8"))["jobs"]


def job_line(label: str, there: dict, here: dict) -> str | None:
    """The line for one job, each differing field as ``there`` (the other
    checkout's pass) -> ``here`` (this checkout's); None when none differs."""
    moved = [f"{key} {there.get(key)!r} -> {here.get(key)!r}" for key in COMPARED if there.get(key) != here.get(key)]
    return f"{label} job {here['id']} ({here['kind']}): " + "; ".join(moved) if moved else None


def differences(other: Path, workload: str, seed: int) -> list[str]:
    """One line per job of the (workload, seed) list whose rc, digest or
    wrong differs between this checkout and ``other``."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _worker(HERE, "generate", workload, str(seed), str(work))
        job_list = str(work / "jobs.json")
        here = _jobs(HERE, job_list, work / "here.json")
        there = _jobs(other, job_list, work / "other.json")
    if [j["id"] for j in here] != [j["id"] for j in there]:
        return [f"{workload} seed {seed}: the two passes ran different jobs"]
    lines = (job_line(f"{workload} seed {seed}", t, h) for t, h in zip(there, here))
    return [line for line in lines if line]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="the checkout to compare with")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    args = parser.parse_args(argv)
    other = args.other.resolve()
    if not (other / "src" / "spectralforge").is_dir():
        parser.error(f"no package source under {other / 'src'}")
    lines = [line for w in args.workloads for s in args.seeds for line in differences(other, w, s)]
    for line in lines:
        print(line)
    runs = len(args.workloads) * len(args.seeds)
    print(f"{len(lines)} differing job(s) over {runs} job list(s)", file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
