"""spectralforge benchmark: seeded CLI job mixes, one closed-loop client.

    python3 bench/run.py --workload stage-reduce --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The inputs come from --seed alone.  Every
job is an in-process ``spectralforge.cli.main(argv)`` call inside a fresh
worker interpreter, so the package's module caches start cold, as they do
for a CLI user.  A run makes a fixed number of passes over the job list,
chosen from --seconds and the nominal pass time of the workload (at least
two, so that every job has more than one sample), so both sides of a
comparison time the same work.  Every report is checked.

--trace 0 prints the end-to-end metrics.  --trace 1 replaces the last pass
by a traced one and prints the per-layer metrics; its spans go to
.bench_run/<workload>-<seed>/spans.json.  The last stdout line is one
JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = tuple(workloads.GENERATORS)
# Untraced seconds per pass on a 2-core x86 container; they only set the
# pass count, so both commits of a comparison run the same number of passes.
NOMINAL_PASS_S = {"stage-reduce": 9.5, "tile-sweep": 10.5, "frame-sums": 19.0}
MIN_PASSES = 2
SETUP_PROBES = 2  # before each pass and after the last, to spread them over the run
RUN_LIMIT_S = 170.0  # a run that cannot finish in time gives no result
MIN_TAIL_JOBS = 20
TAIL_BEYOND = 10
UNITS = {"total_s": "s", "self_s": "s", "distinct_ratio": "ratio", "unattributed_share": "ratio"}


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list[str], timeout: float = RUN_LIMIT_S) -> float:
    """Run a worker to completion; return seconds from spawn to its
    ``ready`` line, i.e. interpreter start plus ``import spectralforge.cli``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.communicate(timeout=max(1.0, timeout - ready))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {args[0]} did not finish in time") from None
    code = proc.returncode
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"worker {args[0]} failed (exit {code}, first line {line.strip()!r})")
    return ready


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least
    TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (ROOT / "src" / "spectralforge" / "cli.py").is_file():
        raise BenchError(f"no package source under {ROOT / 'src'}")
    work = ROOT / ".bench_run" / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rel = os.path.relpath(work, ROOT)
    deadline = time.monotonic() + RUN_LIMIT_S

    def worker(*args: str) -> float:
        return spawn(list(args), deadline - time.monotonic())

    worker("probe")  # untimed: compiles bytecode once per checkout
    worker("generate", workload, str(seed), rel)
    jobs_path = os.path.join(rel, "jobs.json")

    passes = max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))
    untraced = passes - 1 if trace else passes
    setups: list[float] = []
    results = []
    for i in range(untraced):
        setups += [worker("probe") for _ in range(SETUP_PROBES)]
        out = os.path.join(rel, f"pass{i}.json")
        setups.append(worker("pass", jobs_path, out))
        results.append(json.loads((ROOT / out).read_text()))
    setups += [worker("probe") for _ in range(SETUP_PROBES)]
    traced = None
    if trace:
        out = os.path.join(rel, "traced.json")
        worker("pass", jobs_path, out, "--trace", os.path.join(rel, "spans.json"))
        traced = json.loads((ROOT / out).read_text())

    jobs = [j for r in results for j in r["jobs"]]
    wrong = [j for j in jobs if j.get("wrong")]
    failed = [j for j in jobs if not j["ran"] or j["error"] or j.get("wrong")]
    latencies = [j["latency"] for j in jobs if j["ran"]]
    walls = [sum(j["latency"] for j in r["jobs"] if j["ran"]) for r in results]
    per_job: dict[int, list[float]] = {}
    for j in jobs:
        if j["ran"]:
            per_job.setdefault(j["id"], []).append(j["latency"])
    # Time to finish the job list: each job's median over the passes, summed,
    # so a burst of host load during one pass moves only its own samples.
    wall = sum(statistics.median(v) for v in per_job.values())
    problems = [f"job {j['id']} ({j['kind']}): {j['wrong']}" for j in wrong]
    for j in failed:
        if not j.get("wrong"):
            print(f"failed: job {j['id']} ({j['kind']}): {j.get('error')}", file=sys.stderr)

    digests = [{j["id"]: (j.get("error"), j.get("digest")) for j in r["jobs"]} for r in results]
    if any(d != digests[0] for d in digests[1:]):
        problems.append("reports differ between untraced passes of one job list")

    if len(latencies) < MIN_TAIL_JOBS:
        raise BenchError(f"only {len(latencies)} jobs ran; job latency percentiles need {MIN_TAIL_JOBS}")
    p50 = statistics.median(latencies)
    tail_value, tail_pct = tail(latencies)
    fail_ratio = len(failed) / len(jobs)
    summary = {
        "workload": workload, "seed": seed, "passes": len(results), "jobs": len(jobs),
        "failed": len(failed), "fail_ratio": fail_ratio, "wall_s_per_pass": walls,
        "setup_s_samples": setups, "cpu_s_per_pass": [r["cpu_s"] for r in results],
        "job_p50_s": p50, "job_tail_s": tail_value,
        "job_tail": f"p{tail_pct:.1f} of {len(latencies)} jobs",
    }
    if trace:
        metrics = {name: {"value": value, "unit": UNITS.get(name.rsplit(".", 1)[-1], "count")}
                   for name, value in traced["trace"].items()}
        # Job latency is cli.main latency; these come from the untraced passes.
        metrics["cli.main.p50_s"] = {"value": p50, "unit": "s"}
        metrics["cli.main.tail_s"] = {"value": tail_value, "unit": "s"}
        traced_wall = sum(j["latency"] for j in traced["jobs"] if j["ran"])
        metrics["trace.overhead_s"] = {"value": traced_wall - wall, "unit": "s"}
        metrics["fail_ratio"] = {"value": fail_ratio, "unit": "ratio"}
        tdig = {j["id"]: (j.get("error"), j.get("digest")) for j in traced["jobs"]}
        if tdig != digests[0]:
            problems.append("traced and untraced passes gave different reports")
        if traced["leaf_violations"]:
            problems.append(f"functions listed as leaves had wrapped children: {traced['leaf_violations']}")
        summary["traced_wall_s"] = traced_wall
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in results), "unit": "MB"},
        }
    summary["problems"] = problems
    return {
        "summary": summary,
        "result": {"correct": not problems, "attempted": len(jobs), "failed": len(failed), "metrics": metrics},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for line in out["summary"].get("problems", []):
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps(out["summary"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
