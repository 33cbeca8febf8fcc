"""Tests of the benchmark itself: seeding, report checks and the tracer.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

Scratch files go to .bench_run/tests under the checkout root.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run as bench
import tracer

ROOT = bench.ROOT
SCRATCH = ROOT / ".bench_run" / "tests"


def _fresh(name: str) -> Path:
    path = SCRATCH / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _generate(workload: str, seed: int, name: str) -> Path:
    work = _fresh(name)
    bench.spawn(["generate", workload, str(seed), os.path.relpath(work, ROOT)])
    return work


def _pass(work: Path, jobs: list[dict] | None = None, trace: bool = False) -> dict:
    rel = os.path.relpath(work, ROOT)
    jobs_path = os.path.join(rel, "jobs.json")
    if jobs is not None:
        (ROOT / jobs_path).write_text(json.dumps({"jobs": jobs}))
    out = os.path.join(rel, "traced.json" if trace else "plain.json")
    args = ["pass", jobs_path, out] + (["--trace", os.path.join(rel, "spans.json")] if trace else [])
    bench.spawn(args)
    return json.loads((ROOT / out).read_text())


def _outcomes(result: dict) -> dict:
    return {j["id"]: (j.get("error"), j.get("digest")) for j in result["jobs"]}


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_same_seed_gives_same_job_list(workload):
    def inputs(seed, name):
        """Job list and input files, with the scratch directory name masked."""
        work = _generate(workload, seed, name)
        return {p.name: p.read_text().replace(name, "W") for p in sorted(work.iterdir())}

    first = inputs(5, f"seed-a-{workload}")
    assert first == inputs(5, f"seed-b-{workload}")
    assert any(first != inputs(seed, f"seed-{seed}-{workload}") for seed in (6, 7, 8))
    assert len(json.loads(first["jobs.json"])["jobs"]) >= bench.MIN_TAIL_JOBS


def test_z72_vanishing_counts():
    """reduce-kstage --k 2 on the Z_72 pair (unit 1), then validate-form on
    its output: 10,996 exact vanishing tests each."""
    from spectralforge import cli, cm_tiling
    from spectralforge.digitsets import DigitSet

    import workloads

    work = _fresh("z72")
    rel = os.path.relpath(work, ROOT)
    parts = [DigitSet(72, s) for s in (workloads.Z72_A, workloads.Z72_B)]
    staged = os.path.join(rel, "staged.json")
    (ROOT / staged).write_text(json.dumps(cli.k_stage_to_json(cm_tiling.cm_regular_product_triple(72, parts))))
    one = os.path.join(rel, "one.json")
    jobs = [
        {"id": 0, "kind": "reduce-kstage", "argv": ["reduce-kstage", "--spec", staged, "--k", "2"],
         "check": {"staged": staged, "k": 2}, "stage": None},
        {"id": 1, "kind": "validate-form", "argv": ["validate-form", "--spec", one], "check": {},
         "stage": {"from": 0, "field": ["one_stage"], "path": one}},
    ]
    result = _pass(work, jobs, trace=True)
    assert all(j["ran"] and j["error"] is None and j["wrong"] is None for j in result["jobs"])
    spans = json.loads((work / "spans.json").read_text())
    vanishing = spans["names"].index("cyclotomic.vanishing_sum_test")
    per_job = [sum(1 for s in spans["spans"] if s[0] == vanishing and s[4] == job) for job in (0, 1)]
    assert per_job == [10_996, 10_996]
    assert result["trace"]["cyclotomic.vanishing_sum_test.calls"] == 21_992


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_reports_equal_untraced(workload):
    work = _generate(workload, 3, f"traced-{workload}")
    plain = _pass(work)
    traced = _pass(work, trace=True)
    assert _outcomes(plain) == _outcomes(traced)
    assert all(j.get("wrong") is None for j in plain["jobs"])
    assert traced["leaf_violations"] == []
    names = {n.rsplit(".", 1)[0] for n in traced["trace"]}
    assert set(tracer.NAMES) <= names


def test_tracer_patches_every_binding():
    code = (
        "import spectralforge.cli, spectralforge.productform as pf, spectralforge.hadamard as h, "
        "spectralforge.cyclotomic as c, tracer; t = tracer.Tracer(); t.install(); "
        "assert pf.check_triple is h.check_triple; assert h.vanishing_sum_test is c.vanishing_sum_test; "
        "assert spectralforge.cli.check_triple is h.check_triple; "
        "assert h.check_triple.__name__ == 'traced'"
    )
    env = bench._env()
    env["PYTHONPATH"] = str(bench.BENCH) + os.pathsep + env["PYTHONPATH"]
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT, env=env)


def test_tail_leaves_ten_beyond():
    values = [float(i) for i in range(40)]
    value, pct = bench.tail(values)
    assert value == 29.0 and sum(v > value for v in values) == 10
    assert math.isclose(pct, 75.0)


def _tile_job(n, digits, must_tile=False):
    return {"kind": "check-tile", "check": {"base": n, "digits": digits, "must_tile": must_tile}}


def test_checks_reject_wrong_reports():
    ok = {"tiles": True, "witness": ["0", "2"]}
    assert checks.check(_tile_job(4, [0, 1]), 0, json.dumps(ok)) is None
    bad = {"tiles": True, "witness": ["0", "1"]}
    assert checks.check(_tile_job(4, [0, 1]), 0, json.dumps(bad))
    refused = {"tiles": False, "witness": None}
    assert checks.check(_tile_job(4, [0, 1], must_tile=True), 1, json.dumps(refused))

    find = {"kind": "find-spectrum", "check": {"base": 4, "digits": [0, 2]}}
    assert checks.check(find, 0, json.dumps({"count": 1, "spectra": [["0", "1"]]})) is None
    assert checks.check(find, 0, json.dumps({"count": 1, "spectra": [["0", "2"]]}))
    assert checks.check(find, 1, json.dumps({"count": 1, "spectra": [["0", "1"]]}))

    for kind, flag in (("classify-paq", "form_ok"), ("validate-form", "ok"), ("verify-jp", "bessel_and_monotone")):
        job = {"kind": kind, "check": {}}
        assert checks.check(job, 0, json.dumps({flag: True})) is None
        assert checks.check(job, 0, json.dumps({flag: False}))
        assert checks.check(job, 1, json.dumps({flag: True}))


def test_check_reduce_and_factor_recompute_from_inputs():
    work = _fresh("checks")
    staged = {"base": 4, "ells": [1], "E0": ["0", "2"], "layers": [{"constant": ["0", "1"]}], "Ls": [["0", "1"], ["0", "2"]]}
    (work / "staged.json").write_text(json.dumps(staged))
    job = {"kind": "reduce-kstage", "check": {"staged": str(work / "staged.json"), "k": None}}
    # k = 1: the one-stage form over base 4 must expand to {0, 2, 4, 6}
    good = {"one_stage": {"base": 4, "r": 1, "A": ["0", "2"], "Bs": {"0": ["0", "1"], "2": ["0", "1"]}}}
    assert checks.check(job, 0, json.dumps(good)) is None
    good["one_stage"]["Bs"]["2"] = ["0", "3"]
    assert checks.check(job, 0, json.dumps(good))

    fm = {"kind": "factor-mask", "check": {"digits": [0, 1, 16, 17], "output": str(work / "fm.json")}}
    (work / "fm.json").write_text(json.dumps({"factors": [[2, 1], [32, 1]], "residual": {"0": 1}}))
    assert checks.check(fm, 0, "") is None
    (work / "fm.json").write_text(json.dumps({"factors": [[2, 1], [16, 1]], "residual": {"0": 1}}))
    assert checks.check(fm, 0, "")


def test_run_refuses_a_tree_without_the_package():
    bare = _fresh("bare")
    shutil.copytree(bench.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tile-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
