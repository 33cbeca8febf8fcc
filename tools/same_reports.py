"""Replay the benchmark's job lists on two checkouts and list the jobs whose
reports differ.

    python tools/same_reports.py OTHER_CHECKOUT [--workloads W ...] [--seeds S ...]

This checkout is the one that holds this script.  For each workload and
seed, ``bench/worker.py generate`` writes the job list and its inputs once,
into a temporary directory; then the worker's pass runs that list once with
each checkout's ``src`` first on PYTHONPATH, and keeps each job's report.  A
job differs when its exit code (``rc``), its report digest (``digest``) or
its report check (``wrong``) differs.  Every such job is printed, each
differing field as the other checkout's value -> this checkout's, so a run
from a change against its parent reads parent -> change.  A differing job
whose exit codes and non-float report fields agree also gets the largest
relative and absolute change among its float fields, so a move by rounding
alone shows as such.  The exit code is 1 if there is such a job, else 0.
The defaults are the three workloads at seed 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
WORKER = HERE / "bench" / "worker.py"
WORKLOADS = ("stage-reduce", "tile-sweep", "frame-sums")
COMPARED = ("rc", "digest", "wrong")
# A pass of bench/worker.py that also writes each job's report: the worker's
# report check is wrapped to keep the text it reads.
_PASS_WITH_REPORTS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import checks, worker
reports, check = {}, checks.check
def keep(job, rc, text):
    reports[job["id"]] = text
    return check(job, rc, text)
checks.check = keep
with open(sys.argv[2], encoding="utf-8") as fh:
    results = worker.run_pass(json.load(fh)["jobs"])
for res in results:
    res["report"] = reports.get(res["id"])
with open(sys.argv[3], "w", encoding="utf-8") as fh:
    json.dump({"jobs": results}, fh)
"""


def _python(checkout: Path, *args: str) -> None:
    """Python with ``args``, with ``checkout``'s package first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, *args], env=env, stdout=subprocess.DEVNULL, check=True)


def _jobs(checkout: Path, job_list: str, result: Path) -> list[dict]:
    """The worker's results for the job list on ``checkout``, each with its
    report text."""
    _python(checkout, "-c", _PASS_WITH_REPORTS, str(WORKER.parent), job_list, str(result))
    return json.loads(result.read_text(encoding="utf-8"))["jobs"]


def float_change(there, here) -> tuple[float, float] | None:
    """(largest relative, largest absolute) change from ``there`` to
    ``here`` over the float fields of two parsed reports, or None when
    anything else differs: a non-float value, a key, a length or a type."""
    if type(there) is not type(here):
        return None
    if isinstance(there, float):
        if there == here:
            return 0.0, 0.0
        if not (math.isfinite(there) and math.isfinite(here)):
            return math.inf, math.inf
        gap = abs(here - there)
        return gap / max(abs(there), abs(here)), gap
    if isinstance(there, dict):
        if there.keys() != here.keys():
            return None
        pairs = [(there[k], here[k]) for k in there]
    elif isinstance(there, list):
        if len(there) != len(here):
            return None
        pairs = list(zip(there, here))
    else:
        return (0.0, 0.0) if there == here else None
    worst = (0.0, 0.0)
    for pair in pairs:
        change = float_change(*pair)
        if change is None:
            return None
        worst = (max(worst[0], change[0]), max(worst[1], change[1]))
    return worst


def job_line(label: str, there: dict, here: dict) -> str | None:
    """The line for one job, each differing field as ``there`` (the other
    checkout's pass) -> ``here`` (this checkout's); None when none differs.
    When both passes kept the job's report, the exit codes agree and only
    floats differ, the line ends with their largest changes."""
    moved = [f"{key} {there.get(key)!r} -> {here.get(key)!r}" for key in COMPARED if there.get(key) != here.get(key)]
    if not moved:
        return None
    line = f"{label} job {here['id']} ({here['kind']}): " + "; ".join(moved)
    if there.get("report") is not None and here.get("report") is not None and there["rc"] == here["rc"]:
        change = float_change(json.loads(there["report"]), json.loads(here["report"]))
        if change is None:
            line += "; non-float fields differ"
        else:
            line += "; floats only: max relative %.2g, max absolute %.2g" % change
    return line


def differences(other: Path, workload: str, seed: int) -> list[str]:
    """One line per job of the (workload, seed) list whose rc, digest or
    wrong differs between this checkout and ``other`` (job_line)."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _python(HERE, str(WORKER), "generate", workload, str(seed), str(work))
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
