"""Golden reports: a fixed job list run through ``cli.main`` in process and
checked against ``tests/golden_reports.json``.

The exact commands must print the same bytes: the SHA-256 of stdout and
the exit code are compared.  The float commands (verify-jp, check-lemma42,
weakly-periodic) must give the same exit code and the same non-float
fields, and each float within a relative 1e-9 (absolute 1e-12), since libm
results may differ between hosts by an ulp.

A change that moves a report regenerates the file with

    PYTHONPATH=src python tests/test_golden_reports.py

which prints each job whose row it changes, with the largest absolute
float move when only floats moved, and lists each changed job and its
reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"
FLOAT_COMMANDS = ("verify-jp", "check-lemma42", "weakly-periodic")


def _digits(base, digits):
    return {"base": base, "digits": [str(d) for d in digits]}


def _inputs() -> dict:
    """File name -> JSON content, written to the working directory."""
    from spectralforge.cli import k_stage_to_json, one_stage_to_json
    from spectralforge.cm_tiling import paq_type_generator
    from spectralforge.digitsets import DigitSet
    from spectralforge.productform import build_four_digit_form, k_stage_form, one_stage_form

    _, f83 = build_four_digit_form(24, 1, 4, 1, 1)
    b4 = one_stage_form(4, 1, (0, 1), {0: DigitSet(4, (0, 2)), 1: DigitSet(4, (0, 6))}, (0, 2), (0, 1))
    unequal = one_stage_form(4, 1, (0, 1), {0: DigitSet(4, (0, 2)), 1: DigitSet(4, (0, 1, 2))}, (0, 2), (0, 1))
    # the weakly-periodic scan flags xi = 1/2 on this form
    b6 = one_stage_form(6, 1, (0, 2), {0: DigitSet(6, (0, 6)), 2: DigitSet(6, (0, 6))}, (0, 1), (0, 1))
    return {
        "d4.json": _digits(4, (0, 2)),
        "l4.json": _digits(4, (0, 1)),
        "l24.json": _digits(24, (0, 1)),
        "d24.json": _digits(24, (0, 1, 16, 17)),
        "d12.json": _digits(12, (0, 1, 5)),
        "d10.json": _digits(10, (0, 3, 6)),
        "deg.json": _digits(2, (0, 3, 7, 12, 40)),
        "f83.json": one_stage_to_json(f83),
        "b4.json": one_stage_to_json(b4),
        "unequal.json": one_stage_to_json(unequal),
        "b6.json": one_stage_to_json(b6),
        "k.json": k_stage_to_json(paq_type_generator(2, 3, 2, "i").form),
        # a staged form with a keyed ("map") layer, and one whose prefix product fails
        "kmap.json": k_stage_to_json(paq_type_generator(2, 3, 2, "i", zshifts={(1, 0, 0): 1}).form),
        "kfail.json": k_stage_to_json(k_stage_form(6, (1,), (0, 1), [DigitSet(6, (0, 3))], [(0, 3), (0, 1)])),
        # a staged form whose stage scales skip a power of N (ells [2, 1]), and
        # a one-stage gapped form (ells [2]) whose expansion collides
        "kii.json": k_stage_to_json(paq_type_generator(2, 3, 2, "ii").form),
        "kclash.json": k_stage_to_json(k_stage_form(2, (2,), (0, 4), [DigitSet(2, (0, 1))], [(0, 1), (0, 1)])),
        # a staged form with no stages (ells [])
        "kzero.json": k_stage_to_json(k_stage_form(4, (), (0, 1), [], [(0, 2)])),
        "zshifts.json": [{"stage": 1, "parent": 0, "e": 0, "z": 1}],
        # keys variant ii's stage-1 layer, so its nested shape is never compared
        "zshifts_ii.json": [{"stage": 1, "parent": 2, "e": 27, "z": 1}],
        "broken.json": '{"base": 4, "digits": [',
    }


def _paq(p, q, alpha, variant, *extra):
    return ["classify-paq", "--p", str(p), "--q", str(q), "--alpha", str(alpha), "--variant", variant, *extra]


JOBS = [
    ["check-hadamard", "--base", "4", "--digits", "d4.json", "--spectrum", "l4.json"],
    ["check-hadamard", "--base", "4", "--digits", "l4.json", "--spectrum", "l4.json"],
    ["check-hadamard", "--base", "24", "--digits", "d24.json", "--spectrum", "l4.json"],
    ["check-hadamard", "--base", "24", "--digits", "d24.json", "--spectrum", "l24.json"],
    ["find-spectrum", "--base", "4", "--digits", "d4.json"],
    ["find-spectrum", "--base", "24", "--digits", "d24.json"],
    ["find-spectrum", "--base", "12", "--digits", "d12.json", "--limit", "3"],
    ["validate-form", "--spec", "f83.json"],
    ["validate-form", "--spec", "b4.json"],
    ["validate-form", "--spec", "unequal.json"],
    ["validate-form", "--spec", "k.json"],
    ["validate-form", "--spec", "kmap.json"],
    ["validate-form", "--spec", "kfail.json"],
    ["gen-product-form", "--spec", "f83.json"],
    ["gen-product-form", "--spec", "k.json"],
    ["reduce-kstage", "--spec", "k.json"],
    ["reduce-kstage", "--spec", "k.json", "--k", "3"],
    ["reduce-kstage", "--spec", "kii.json"],
    ["reduce-kstage", "--spec", "kii.json", "--k", "4"],
    ["reduce-kstage", "--spec", "kclash.json"],
    ["reduce-kstage", "--spec", "kzero.json"],
    ["reduce-kstage", "--spec", "kzero.json", "--k", "0"],
    _paq(2, 3, 2, "i"),
    _paq(2, 3, 2, "iii"),
    _paq(3, 2, 2, "ii", "--params", "1"),
    _paq(2, 3, 2, "i", "--zshifts", "zshifts.json"),
    _paq(3, 2, 2, "ii", "--zshifts", "zshifts_ii.json"),
    ["check-t1t2", "--base", "24", "--digits", "d24.json"],
    ["check-t1t2", "--base", "4", "--digits", "d4.json"],
    ["check-t1t2", "--base", "12", "--digits", "d12.json"],
    ["check-tile", "--base", "4", "--digits", "d4.json"],
    ["check-tile", "--base", "12", "--digits", "d12.json"],
    ["check-tile", "--base", "10", "--digits", "d10.json"],
    ["factor-mask", "--digits", "d24.json"],
    ["factor-mask", "--digits", "deg.json"],
    # input errors
    ["check-tile", "--base", "4"],
    ["check-t1t2", "--base", "4", "--digits", "missing.json"],
    ["check-t1t2", "--base", "4", "--digits", "broken.json"],
    ["reduce-kstage", "--spec", "f83.json"],
    ["reduce-kstage", "--spec", "k.json", "--k", "1"],
    ["verify-jp", "--form", "k.json"],
    ["verify-jp", "--form", "f83.json", "--scale", "0"],
    ["weakly-periodic", "--form", "k.json"],
    # options the numeric commands no longer take: their settings are constants
    ["verify-jp", "--form", "f83.json", "--window", "128"],
    ["check-lemma42", "--form", "f83.json", "--grid", "16"],
    ["weakly-periodic", "--form", "f83.json", "--window", "8"],
    ["weakly-periodic", "--form", "f83.json", "--resolution", "256"],
    # float reports
    ["verify-jp", "--form", "f83.json", "--levels", "3", "--grid", "4", "--scale", "3"],
    ["verify-jp", "--form", "f83.json", "--scale", "5"],
    ["verify-jp", "--form", "b4.json", "--levels", "3", "--grid", "4"],
    ["verify-jp", "--form", "b4.json", "--levels", "2", "--grid", "4", "--scale", "1/2"],
    ["check-lemma42", "--form", "f83.json", "--p", "2"],
    ["check-lemma42", "--form", "b4.json", "--p", "2"],
    ["check-lemma42", "--form", "f83.json", "--p", "3"],
    ["check-lemma42", "--form", "b4.json", "--p", "3"],
    ["weakly-periodic", "--form", "f83.json"],
    ["weakly-periodic", "--form", "b4.json"],
    ["weakly-periodic", "--form", "b6.json"],
]


def _run_jobs(workdir: Path) -> list[dict]:
    from spectralforge.cli import main

    for name, obj in _inputs().items():
        text = obj if isinstance(obj, str) else json.dumps(obj)
        (workdir / name).write_text(text, encoding="utf-8")
    results = []
    with _chdir(workdir):
        for argv in JOBS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            text = out.getvalue()
            row = {"argv": argv, "code": code}
            if argv[0] in FLOAT_COMMANDS and code != 2:
                row["report"] = json.loads(text)
            else:
                row["sha256"] = hashlib.sha256(text.encode()).hexdigest()
            results.append(row)
    return results


@contextlib.contextmanager
def _chdir(path: Path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def _same(want, got, where: str) -> list[str]:
    """Where ``got`` differs from ``want``: floats by math.isclose, all else exactly."""
    if isinstance(want, float) and isinstance(got, float):
        return [] if math.isclose(want, got, rel_tol=1e-9, abs_tol=1e-12) else [f"{where}: {want} != {got}"]
    if isinstance(want, dict) and isinstance(got, dict) and want.keys() == got.keys():
        return [m for k in want for m in _same(want[k], got[k], f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        return [m for i, (a, b) in enumerate(zip(want, got)) for m in _same(a, b, f"{where}[{i}]")]
    return [] if type(want) is type(got) and want == got else [f"{where}: {want!r} != {got!r}"]


def test_reports_equal_the_golden_file(tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))["jobs"]
    got = _run_jobs(tmp_path)
    assert [row["argv"] for row in want] == JOBS, "job list and golden file disagree; regenerate the file"
    mismatches = [m for w, g in zip(want, got) for m in _same(w, g, " ".join(w["argv"]))]
    assert mismatches == []


def test_numeric_reports_reach_no_oracle(tmp_path, monkeypatch):
    """mask_value, mask_value_rational, TruncatedMeasure.mu_hat and
    TruncatedMeasure.mu_hat_rational are the tests' oracles alone: with
    each patched to raise, the numeric jobs still give their golden
    reports."""
    from spectralforge import measure

    def oracle(*args, **kwargs):
        raise AssertionError("a numeric command reached an oracle")

    for name in ("mask_value", "mask_value_rational"):
        monkeypatch.setattr(measure, name, oracle)
    for name in ("mu_hat", "mu_hat_rational"):
        monkeypatch.setattr(measure.TruncatedMeasure, name, oracle)
    want = [row for row in json.loads(GOLDEN.read_text(encoding="utf-8"))["jobs"] if row["argv"][0] in FLOAT_COMMANDS]
    got = [row for row in _run_jobs(tmp_path) if row["argv"][0] in FLOAT_COMMANDS]
    assert want and [row["argv"] for row in got] == [row["argv"] for row in want]
    assert [m for w, g in zip(want, got) for m in _same(w, g, " ".join(w["argv"]))] == []


def _change_line(old: dict | None, new: dict, float_change) -> str | None:
    """How the row of one job moved from ``old`` to ``new``; None if it did
    not.  ``float_change`` is tools/same_reports.py's."""
    job = " ".join(new["argv"])
    if old is None:
        return f"{job}: new job"
    if old == new:
        return None
    if old["code"] != new["code"]:
        return f"{job}: exit code {old['code']} -> {new['code']}"
    if "report" in old and "report" in new:
        change = float_change(old["report"], new["report"])
        return f"{job}: non-float fields differ" if change is None else f"{job}: floats moved by at most {change[1]:.2g}"
    return f"{job}: stdout differs"


if __name__ == "__main__":
    import importlib.util
    import tempfile

    spec = importlib.util.spec_from_file_location("same_reports", GOLDEN.parent.parent / "tools" / "same_reports.py")
    same_reports = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_reports)
    before = json.loads(GOLDEN.read_text(encoding="utf-8"))["jobs"] if GOLDEN.exists() else []
    old_rows = {json.dumps(row["argv"]): row for row in before}
    with tempfile.TemporaryDirectory() as tmp:
        rows = _run_jobs(Path(tmp))
    for row in rows:
        line = _change_line(old_rows.pop(json.dumps(row["argv"]), None), row, same_reports.float_change)
        if line:
            print(line)
    for row in old_rows.values():
        print(f"{' '.join(row['argv'])}: job dropped")
    GOLDEN.write_text(json.dumps({"jobs": rows}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} jobs to {GOLDEN}", file=sys.stderr)
