"""Run the benchmark on two checkouts in alternated pairs and summarise each
end-to-end metric.

    python tools/paired_bench.py OTHER_CHECKOUT --workload W --pairs N [--first-seed S]

This checkout, the one that holds this script, is the change; OTHER_CHECKOUT
is what it is compared with, as a rule its parent commit.  Compare two
``git archive`` copies, each of a commit, never a working tree: stale
``__pycache__`` files and uncommitted edits load differently from a fresh
copy of the same code, so either side that holds a ``.git`` entry is a
usage error.  Pair i (from 1) runs ``bench/run.py --workload W
--seed S+i-1 --seconds 25 --trace 0`` in each checkout, from its own
directory and on its own ``src``: the other checkout first in odd pairs,
this one first in even pairs.  Each run's environment lacks
PYTHONDONTWRITEBYTECODE, so the run's untimed probe writes its checkout's
bytecode and both sides load from it alike.  Every run's
metrics are printed as it ends, then, per metric, the q1 / median / q3 of
each side, the pairs this checkout wins (ties count for neither) and
whether a gain may be claimed: at least ten pairs, wins in at least nine
tenths of them, and a median better by more than the other side's
interquartile range.
The metrics and the direction that is better come from BENCHMARK.json.
One more line gives each side's median CPU time per pass, from the summary
line of ``bench/run.py`` (each run's median over its passes): evidence
only, since the gain rule reads the BENCHMARK.json metrics alone.
The exit code is 1 if a run fails or reads wrong reports, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SECONDS = 25
CPU = "cpu_s_per_pass"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), by linear interpolation between the sorted values."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(other: list[float], here: list[float], better: str) -> dict:
    """One metric over the pairs (other[i], here[i]): each side's quartiles,
    the pairs this side wins, and whether the gain rule holds."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (o - h) > 0 for o, h in zip(other, here))
    q_other, q_here = quartiles(other), quartiles(here)
    gap = sign * (q_other[1] - q_here[1])
    gain = len(other) >= 10 and 10 * wins >= 9 * len(other) and gap > q_other[2] - q_other[0]
    return {"other": q_other, "here": q_here, "wins": wins, "pairs": len(other), "gain": gain}


def bench_env() -> dict[str, str]:
    """This process's environment without PYTHONDONTWRITEBYTECODE."""
    return {name: value for name, value in os.environ.items() if name != "PYTHONDONTWRITEBYTECODE"}


def run_values(stdout: str) -> dict[str, float] | None:
    """The end-to-end metrics of a run, read off its last two stdout lines
    (the summary, then the result), and under CPU the median of the
    summary's ``cpu_s_per_pass``; None when a line is missing or a job
    failed or read wrong."""
    lines = stdout.splitlines()[-2:]
    if len(lines) < 2:
        return None
    summary, result = map(json.loads, lines)
    if not result["correct"] or result["failed"]:
        return None
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    values[CPU] = statistics.median(summary["cpu_s_per_pass"])
    return values


def cpu_line(other: list[float], here: list[float]) -> str:
    """The median of each side's CPU seconds per pass, marked as evidence."""
    return (f"{CPU} (evidence only, no gain rule): median {statistics.median(other):.4f} -> "
            f"{statistics.median(here):.4f}")


def bench(checkout: Path, workload: str, seed: int) -> dict[str, float]:
    """``run_values`` of one untraced benchmark run in ``checkout``."""
    argv = ["bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run([sys.executable, *argv], cwd=checkout, capture_output=True, text=True, env=bench_env())
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: bench/run.py seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    values = run_values(proc.stdout)
    if values is None:
        raise RuntimeError(f"{checkout}: seed {seed} gave no result, or wrong or failed jobs: {proc.stderr.strip()}")
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="the checkout to compare with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    other = args.other.resolve()
    if not (other / "bench" / "run.py").is_file():
        parser.error(f"no bench/run.py under {other}")
    for side in (HERE, other):
        if (side / ".git").exists():
            parser.error(f"{side} holds .git: compare two git archive copies, not a working tree")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    better = {m["name"]: m["better"] for m in json.loads((HERE / "BENCHMARK.json").read_text())["end_to_end"]}
    runs: dict[str, list[dict[str, float]]] = {"other": [], "here": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("other", "here") if i % 2 == 0 else ("here", "other")
        try:
            for side in order:
                runs[side].append(bench(other if side == "other" else HERE, args.workload, seed))
        except RuntimeError as exc:
            print(f"run failed: {exc}", file=sys.stderr)
            return 1
        moved = "; ".join(f"{name} {runs['other'][-1][name]:.4f} -> {runs['here'][-1][name]:.4f}" for name in better)
        first = "other" if order[0] == "other" else "this checkout"
        print(f"pair {i + 1} seed {seed} ({first} first): {moved}", flush=True)
    print(f"{args.workload}, {args.pairs} pair(s) from seed {args.first_seed}: other -> this checkout")
    for name, direction in better.items():
        s = summary([r[name] for r in runs["other"]], [r[name] for r in runs["here"]], direction)
        spread = " / ".join(f"{v:.4f}" for v in s["other"]), " / ".join(f"{v:.4f}" for v in s["here"])
        print(f"{name} ({direction} is better): q1 / median / q3 {spread[0]} -> {spread[1]}; "
              f"this checkout wins {s['wins']}/{s['pairs']}; gain rule {'holds' if s['gain'] else 'does not hold'}")
    print(cpu_line([r[CPU] for r in runs["other"]], [r[CPU] for r in runs["here"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
