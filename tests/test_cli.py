import ast
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from spectralforge import cli, cm_tiling, cyclotomic, hadamard, measure, productform
from spectralforge.cli import (
    FIXTURES,
    digitset_from_json,
    digitset_to_json,
    k_stage_from_json,
    k_stage_to_json,
    main,
    one_stage_from_json,
    one_stage_to_json,
)
from spectralforge.cm_tiling import paq_type_generator
from spectralforge.digitsets import DigitSet
from spectralforge.errors import InputError
from spectralforge.productform import (
    build_four_digit_form,
    expand_k_stage,
    expand_one_stage,
    k_stage_form,
    k_stage_to_one_stage,
)

# The environment of a child interpreter: the package from this checkout.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _run(argv):
    return main(argv)


def test_digitset_json_roundtrip_uses_strings():
    d = DigitSet(24, (0, 3, 48, 51))
    obj = digitset_to_json(d)
    assert obj["digits"] == ["0", "3", "48", "51"]
    assert digitset_from_json(obj).digits == d.digits
    # huge digits survive
    big = DigitSet(72, (0, 72**3 + 1))
    assert digitset_from_json(digitset_to_json(big)).digits == big.digits


def test_form_json_roundtrips():
    mult, f83 = build_four_digit_form(24, 1, 4, 1, 1)
    again = one_stage_from_json(one_stage_to_json(f83))
    assert expand_one_stage(again).digits == expand_one_stage(f83).digits

    res = paq_type_generator(2, 3, 2, "i")
    again_k = k_stage_from_json(k_stage_to_json(res.form))
    assert expand_k_stage(again_k).digits == expand_k_stage(res.form).digits


def test_check_hadamard_exit_codes(tmp_path, capsys):
    d = _write(tmp_path, "d.json", {"base": 4, "digits": ["0", "2"]})
    l = _write(tmp_path, "l.json", {"base": 4, "digits": ["0", "1"]})
    bad = _write(tmp_path, "bad.json", {"base": 4, "digits": ["0", "1"]})
    assert _run(["check-hadamard", "--base", "4", "--digits", d, "--spectrum", l]) == 0
    assert _run(["check-hadamard", "--base", "4", "--digits", bad, "--spectrum", bad]) == 1
    capsys.readouterr()


def test_check_hadamard_on_a_large_prime_base_is_fast(tmp_path, capsys):
    """The prime base 10^12 + 39 with the digit -1 mod it: the vanishing
    test sees both digits in one class of fewer than p groups and stops
    there, so the cost does not follow p."""
    base = 10**12 + 39
    d = _write(tmp_path, "d.json", {"digits": ["0", str(base - 1)]})
    l = _write(tmp_path, "l.json", {"digits": ["0", "1"]})
    t0 = time.perf_counter()
    code = _run(["check-hadamard", "--base", str(base), "--digits", d, "--spectrum", l])
    took = time.perf_counter() - t0
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["failure"]["kind"] == "OrthogonalityFailure"
    assert took < 2.0, took


def test_check_hadamard_on_a_base_of_a_thousand_primes(tmp_path, capsys):
    """N the product of the first 1,000 primes, D = {0, N/2}, L = {0, 1}:
    the vanishing test takes the primes of N one at a time, a thousand
    deep, and ends in a verdict, not a RecursionError report."""
    primes = cyclotomic._primes_upto(7919)
    assert len(primes) == 1000
    n = math.prod(primes)
    d = _write(tmp_path, "d.json", {"digits": ["0", str(n // 2)]})
    l = _write(tmp_path, "l.json", {"digits": ["0", "1"]})
    code = _run(["check-hadamard", "--base", str(n), "--digits", d, "--spectrum", l])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["valid"], report.get("error")


def test_find_spectrum_exit_codes(tmp_path, capsys):
    d24 = _write(tmp_path, "d24.json", {"base": 24, "digits": ["0", "1", "16", "17"]})
    assert _run(["find-spectrum", "--base", "24", "--digits", d24]) == 1
    d = _write(tmp_path, "d.json", {"base": 4, "digits": ["0", "2"]})
    assert _run(["find-spectrum", "--base", "4", "--digits", d]) == 0
    capsys.readouterr()


def test_find_spectrum_without_limit_stops_at_the_cap(tmp_path):
    """{0, 512, 1024, 1536} mod 2,048 has 512^3 spectra; without --limit the
    whole process ends soon, exit 1, with one report naming the cap."""
    d = _write(tmp_path, "d.json", {"base": 2048, "digits": ["0", "512", "1024", "1536"]})
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "spectralforge.cli", "find-spectrum", "--base", "2048", "--digits", d],
        capture_output=True, text=True, timeout=60, env=CHILD_ENV,
    )
    took = time.perf_counter() - t0
    assert proc.returncode == 1
    message = f"search stopped at SPECTRA_CAP = {hadamard.SPECTRA_CAP} spectra"
    assert json.loads(proc.stdout)["error"] == {"type": "SearchLimitReached", "message": message}
    assert took < 5.0, took


def test_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"base": 4, "digits": [')
    assert _run(["check-t1t2", "--base", "4", "--digits", str(bad)]) == 2
    assert _run(["check-t1t2", "--base", "4", "--digits", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_check_t1t2_reports(tmp_path, capsys):
    d24 = _write(tmp_path, "d24.json", {"base": 24, "digits": ["0", "1", "16", "17"]})
    code = _run(["check-t1t2", "--base", "24", "--digits", d24])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["t1"] is False and out["prime_power_indices"] == [2]

    d = _write(tmp_path, "d.json", {"base": 4, "digits": ["0", "2"]})
    code = _run(["check-t1t2", "--base", "4", "--digits", d])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["spectrum"] == ["0", "1"]


def test_factor_mask_output(tmp_path, capsys):
    """The factorization reads no base, so a file with none is factored too."""
    d24 = _write(tmp_path, "d24.json", {"base": 24, "digits": ["0", "1", "16", "17"]})
    bare = _write(tmp_path, "no-base.json", {"digits": ["0", "1", "16", "17"]})
    for path in (d24, bare):
        code = _run(["factor-mask", "--digits", path])
        out = json.loads(capsys.readouterr().out)
        assert code == 0, path
        assert out["factors"] == [[2, 1], [32, 1]] and out["residual"] == {"0": 1}, path


def test_validate_and_reduce_roundtrip(tmp_path, capsys):
    res = paq_type_generator(2, 3, 2, "i")
    spec = _write(tmp_path, "k.json", k_stage_to_json(res.form))
    assert _run(["validate-form", "--spec", spec]) == 0
    capsys.readouterr()
    assert _run(["reduce-kstage", "--spec", spec]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["one_stage"]["base"] == 144


def test_verify_jp_accepts_a_nonzero_shift(tmp_path, capsys):
    """gamma = 7 needs the lattice shift 1, which moves the levels off the
    plain aggregate mod N^q; the candidate is still a valid one."""
    obj = {"base": 8, "r": 1, "A": ["0", "4"], "Bs": {"0": ["0", "23"], "4": ["0", "23"]},
           "L1": ["0", "3"], "L2": ["0", "4"]}
    assert measure.build_spectrum(one_stage_from_json(obj), levels=3).shifts[-1] == (7, 1)
    spec = _write(tmp_path, "f8.json", obj)
    assert _run(["verify-jp", "--form", spec, "--levels", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["bessel_and_monotone"] is True


def test_verify_jp_deterministic(tmp_path, capsys):
    mult, f83 = build_four_digit_form(24, 1, 4, 1, 1)
    spec = _write(tmp_path, "f83.json", one_stage_to_json(f83))
    argv = ["verify-jp", "--form", spec, "--levels", "2", "--grid", "3", "--scale", "3"]
    assert _run(argv) == 0
    first = capsys.readouterr().out
    assert _run(argv) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-identical report for identical config
    report = json.loads(first)
    assert report["bessel_and_monotone"] is True


def test_verify_jp_many_samples_stay_fast(tmp_path, capsys):
    """Float samples enter exactly, as dyadic fractions, so 4,096 sample
    rows share one power-of-two denominator, not one that grows with the
    grid."""
    mult, f83 = build_four_digit_form(24, 1, 4, 1, 1)
    spec = _write(tmp_path, "f83.json", one_stage_to_json(f83))
    t0 = time.perf_counter()
    code = _run(["verify-jp", "--form", spec, "--levels", "1", "--grid", "4096", "--scale", "3"])
    took = time.perf_counter() - t0
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 2 * 4096
    assert took < 2.0, took


def test_weakly_periodic_deterministic(tmp_path, capsys):
    mult, f83 = build_four_digit_form(24, 1, 4, 1, 1)
    spec = _write(tmp_path, "f83.json", one_stage_to_json(f83))
    argv = ["weakly-periodic", "--form", spec]
    assert _run(argv) == 0
    first = capsys.readouterr().out
    assert _run(argv) == 0
    assert capsys.readouterr().out == first  # byte-identical report for identical config


def test_check_lemma42_cli(tmp_path, capsys):
    f = {
        "base": 4,
        "r": 1,
        "A": ["0", "1"],
        "Bs": {"0": ["0", "2"], "1": ["0", "6"]},
        "L1": ["0", "2"],
        "L2": ["0", "1"],
    }
    spec = _write(tmp_path, "f14.json", f)
    assert _run(["check-lemma42", "--form", spec, "--p", "2"]) == 0
    capsys.readouterr()


def test_weakly_periodic_cli(tmp_path, capsys):
    mult, f83 = build_four_digit_form(24, 1, 4, 1, 1)
    spec = _write(tmp_path, "f83.json", one_stage_to_json(f83))
    assert _run(["weakly-periodic", "--form", spec]) == 0
    capsys.readouterr()


def test_check_tile_congruent_digits(tmp_path, capsys):
    """Digits congruent mod N cannot sit in a direct sum: {0, 4} does not
    tile Z_4, and the summary names the pair."""
    d = _write(tmp_path, "d04.json", {"base": 4, "digits": ["0", "4"]})
    assert _run(["check-tile", "--base", "4", "--digits", d]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert (report["verdict"], report["tiles"], report["witness"]) == (
        "NotTileByCongruentDigits", False, None
    )
    assert "digits 0 and 4 are congruent mod 4" in captured.err


def test_check_tile_search_cap_is_reported(tmp_path, capsys, monkeypatch):
    from spectralforge import cm_tiling

    d15 = (0, 1, 6, 7, 8, 13, 14, 15, 21, 22, 23, 29, 30, 37, 44)
    digits = [str(x) for x in d15 + tuple(x + 45 for x in d15)]
    d = _write(tmp_path, "d90.json", {"base": 90, "digits": digits})
    assert _run(["check-tile", "--base", "90", "--digits", d]) == 1
    assert json.loads(capsys.readouterr().out)["tiles"] is False

    monkeypatch.setattr(cm_tiling, "SEARCH_STATE_CAP", 2)
    assert _run(["check-tile", "--base", "90", "--digits", d]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert (report["verdict"], report["tiles"], report["witness"]) == ("Unknown", None, None)
    assert "SEARCH_STATE_CAP = 2" in captured.err


def test_output_file_written(tmp_path, capsys):
    d = _write(tmp_path, "d.json", {"base": 4, "digits": ["0", "2"]})
    l = _write(tmp_path, "l.json", {"base": 4, "digits": ["0", "1"]})
    out_path = tmp_path / "report.json"
    code = _run(
        ["check-hadamard", "--base", "4", "--digits", d, "--spectrum", l, "--output", str(out_path)]
    )
    assert code == 0
    on_disk = json.loads(out_path.read_text())
    printed = json.loads(capsys.readouterr().out)
    assert on_disk == printed
    assert on_disk["schema"].startswith("spectralforge-report/")


def test_bad_common_options_are_input_errors(tmp_path, capsys):
    _, f83 = build_four_digit_form(24, 1, 4, 1, 1)
    spec = _write(tmp_path, "f83.json", one_stage_to_json(f83))
    d = _write(tmp_path, "d.json", {"base": 4, "digits": ["0", "2"]})
    l = _write(tmp_path, "l.json", {"base": 4, "digits": ["0", "1"]})
    d04 = _write(tmp_path, "d04.json", {"base": 4, "digits": ["0", "4"]})
    for argv in (
        ["verify-jp", "--form", spec, "--levels", "1", "--grid", "0"],
        ["check-tile", "--base", "0", "--digits", d],
        ["check-hadamard", "--base", "0", "--digits", d, "--spectrum", l],
        ["find-spectrum", "--base", "4", "--digits", d04],
        ["check-t1t2", "--base", "1", "--digits", d],
        ["find-spectrum", "--base", "-3", "--digits", d],
        # the tolerances are constants, and factor-mask reads its file's base
        ["verify-jp", "--form", spec, "--tolerance", "1e-9"],
        ["check-lemma42", "--form", spec, "--tolerance", "1e-9"],
        ["factor-mask", "--base", "4", "--digits", d],
    ):
        assert _run(argv) == 2, argv
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "InputError", argv


def test_each_command_takes_only_its_options():
    """The options of every subcommand, --output among them and --help
    not: 41 settable values.  The numeric probe's settings (the scan's
    window and Chebyshev count, the shift search's window, check-lemma42's
    samples) and the tolerances are module constants, not options."""
    want = {
        "check-hadamard": {"--base", "--digits", "--spectrum"},
        "find-spectrum": {"--base", "--digits", "--limit"},
        "validate-form": {"--spec"},
        "gen-product-form": {"--spec"},
        "reduce-kstage": {"--spec", "--k"},
        "check-t1t2": {"--base", "--digits"},
        "check-tile": {"--base", "--digits"},
        "classify-paq": {"--p", "--q", "--alpha", "--variant", "--params", "--zshifts"},
        "factor-mask": {"--digits"},
        "verify-jp": {"--form", "--levels", "--grid", "--scale"},
        "check-lemma42": {"--form", "--p"},
        "weakly-periodic": {"--form"},
        "run-all-fixtures": set(),
    }
    got = {
        name: {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
        for name, parser in cli.build_parser().commands.items()
    }
    assert got == {name: options | {"--output"} for name, options in want.items()}
    assert sum(map(len, got.values())) == 41


def test_fixture_corpus_shape():
    listing = FIXTURES
    assert len(listing) >= 6
    assert all({"id", "note", "expect"} <= set(f) for f in listing)
    ids = [f["id"] for f in listing]
    assert len(ids) == len(set(ids))


def test_run_all_fixtures_subprocess():
    def run():
        return subprocess.run(
            [sys.executable, "-m", "spectralforge.cli", "run-all-fixtures"],
            capture_output=True,
            text=True,
            timeout=60,
            env=CHILD_ENV,
        )

    proc = run()
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["ok"] is True
    assert len(report["results"]) == len(FIXTURES)
    # the report holds no wall-clock time, so a second run prints the same bytes
    assert run().stdout == proc.stdout


def _malformed_inputs(tmp_path):
    """(name, argv) pairs that must each end with exit 2 and a JSON error report."""
    _, f83 = build_four_digit_form(24, 1, 4, 1, 1)
    form = one_stage_to_json(f83)
    spec = _write(tmp_path, "f83.json", form)
    bs_list = _write(tmp_path, "bs-list.json", {**form, "Bs": list(form["Bs"].values())})
    staged = k_stage_to_json(paq_type_generator(2, 3, 2, "i").form)
    assert sum(staged["ells"]) == 2
    staged_path = _write(tmp_path, "staged.json", staged)
    str_layer = _write(tmp_path, "str-layer.json",
                       {**staged, "layers": ["abc", *staged["layers"][1:]]})
    zshifts = _write(tmp_path, "zshifts.json", [{"stage": 1, "e": 0, "z": 1}])
    d = _write(tmp_path, "d.json", {"base": 4, "digits": ["0", "2"]})
    d24 = _write(tmp_path, "d24.json", {"base": 24, "digits": ["0", "1", "16", "17"]})
    no_parent = _write(tmp_path, "no-parent.json", {
        "base": 4, "ells": [1], "E0": ["0", "1"], "layers": [{"map": {"0": ["0", "2"]}}],
        "Ls": [["0", "2"], ["0", "1"]],
    })
    zero_stage = _write(tmp_path, "zero-stage.json", {
        "base": 4, "ells": [], "E0": ["0", "1"], "layers": [], "Ls": [["0", "2"]],
    })
    # a valid staged form: (4, {0, 2}, {0, 1}) at level 0, (4, {0, 1}, {0, 2}) at N^1
    good_staged = {"base": 4, "ells": [1], "E0": ["0", "2"], "layers": [{"constant": ["0", "1"]}],
                   "Ls": [["0", "1"], ["0", "2"]]}
    l01 = _write(tmp_path, "l01.json", {"base": 4, "digits": ["0", "1"]})
    # B_0 = {2, 4} holds no 0
    unnormalized = _write(tmp_path, "unnormalized.json", {
        "base": 4, "r": 1, "A": ["0", "1"], "Bs": {"0": ["2", "4"], "1": ["0", "6"]}, "L1": ["0", "2"], "L2": ["0", "1"],
    })
    return [
        ("list-Bs", ["validate-form", "--spec", bs_list]),
        ("digits-bare-list", ["check-tile", "--base", "4", "--digits", _write(tmp_path, "bare.json", ["0", "2"])]),
        ("jp-staged", ["verify-jp", "--form", staged_path]),
        ("lemma42-staged", ["check-lemma42", "--form", staged_path]),
        ("periodic-staged", ["weakly-periodic", "--form", staged_path]),
        ("jp-unnormalized", ["verify-jp", "--form", unnormalized]),
        ("lemma42-unnormalized", ["check-lemma42", "--form", unnormalized]),
        ("string-layer", ["validate-form", "--spec", str_layer]),
        ("layer-no-parent", ["validate-form", "--spec", no_parent]),
        ("layer-no-parent-reduce", ["reduce-kstage", "--spec", no_parent]),
        ("scale-abc", ["verify-jp", "--form", spec, "--scale", "abc"]),
        ("scale-0", ["verify-jp", "--form", spec, "--scale", "0"]),
        ("levels-negative", ["verify-jp", "--form", spec, "--levels", "-1"]),
        ("k-below-stages", ["reduce-kstage", "--spec", staged_path, "--k", "0"]),
        ("k-0-zero-stage", ["reduce-kstage", "--spec", zero_stage, "--k", "0"]),
        ("zshift-no-parent", ["classify-paq", "--p", "2", "--q", "3", "--alpha", "2",
                              "--variant", "i", "--zshifts", zshifts]),
        ("output-missing-dir", ["check-hadamard", "--base", "4", "--digits", d, "--spectrum", d,
                                "--output", str(tmp_path / "missing" / "report.json")]),
        ("usage-error", ["check-tile", "--base", "4"]),
        ("file-base-1", ["check-t1t2", "--base", "4", "--digits",
                         _write(tmp_path, "b1.json", {"base": 1, "digits": ["0", "1"]})]),
        ("file-no-digits", ["check-t1t2", "--base", "4", "--digits",
                            _write(tmp_path, "empty.json", {"base": 4, "digits": []})]),
        # a file whose base is not --base, one row per command that reads one
        ("base-mismatch-hadamard", ["check-hadamard", "--base", "24", "--digits", d24, "--spectrum", d]),
        ("base-mismatch-find-spectrum", ["find-spectrum", "--base", "4", "--digits", d24]),
        ("base-mismatch-t1t2", ["check-t1t2", "--base", "4", "--digits", d24]),
        ("base-mismatch-tile", ["check-tile", "--base", "12", "--digits", d]),
        # counts that would empty or invert a check
        ("lemma42-p-0", ["check-lemma42", "--form", spec, "--p", "0"]),
        ("jp-grid-0", ["verify-jp", "--form", spec, "--levels", "1", "--grid", "0"]),
        # generator parameters that name no tile
        ("paq-alpha-0", ["classify-paq", "--p", "2", "--q", "3", "--alpha", "0", "--variant", "i"]),
        ("paq-p-equals-q", ["classify-paq", "--p", "2", "--q", "2", "--alpha", "1", "--variant", "i"]),
        ("paq-params-count", ["classify-paq", "--p", "2", "--q", "3", "--alpha", "2",
                              "--variant", "ii", "--params", "1", "1"]),
        ("paq-params-variant-iii", ["classify-paq", "--p", "2", "--q", "3", "--alpha", "2",
                                    "--variant", "iii", "--params", "1"]),
        # file values that are not integers
        ("form-r-fraction", ["validate-form", "--spec",
                             _write(tmp_path, "r-frac.json", {**form, "r": 2.5})]),
        ("file-base-fraction", ["factor-mask", "--digits",
                                _write(tmp_path, "base-frac.json", {"base": 2.5, "digits": ["0", "1"]})]),
        ("digit-true", ["factor-mask", "--digits",
                        _write(tmp_path, "digit-true.json", {"base": 4, "digits": ["0", True]})]),
        # a digit list that is not a JSON list, where reading its characters
        # or keys as digits would pass
        ("digits-string", ["check-hadamard", "--base", "4", "--spectrum", l01, "--digits",
                           _write(tmp_path, "digits-str.json", {"base": 4, "digits": "02"})]),
        ("digits-object", ["check-hadamard", "--base", "4", "--spectrum", l01, "--digits",
                           _write(tmp_path, "digits-obj.json", {"base": 4, "digits": {"0": 1, "2": 5}})]),
        ("ells-string", ["validate-form", "--spec", _write(tmp_path, "ells-str.json", {**good_staged, "ells": "1"})]),
        ("Ls-string", ["validate-form", "--spec",
                       _write(tmp_path, "ls-str.json", {**good_staged, "Ls": [["0", "1"], "02"]})]),
    ]


def test_malformed_input_is_a_json_input_error(tmp_path, capsys):
    for name, argv in _malformed_inputs(tmp_path):
        code = _run(argv)
        captured = capsys.readouterr()
        assert code == 2, name
        report = json.loads(captured.out)  # exactly one JSON document
        assert {"schema", "command", "error"} <= set(report), name
        assert report["error"]["type"] == "InputError" and report["error"]["message"], name
        assert "Traceback" not in captured.err, name


def _over_limit_inputs(tmp_path):
    """(name, argv, size, limit) rows whose point sets, digit sets or scales
    exceed a module limit: each must end with exit 1 and a JSON error report
    naming the size and the limit."""
    _, f83 = build_four_digit_form(24, 1, 4, 1, 1)  # |L1 (+) L2| = 4, |L2| = 2
    spec = _write(tmp_path, "f83.json", one_stage_to_json(f83))
    # 24 digits per stage over 5 levels; classify-paq emits this form
    paq = _write(tmp_path, "paq.json", k_stage_to_json(paq_type_generator(2, 3, 3, "ii", (1, 2)).form))
    small = _write(tmp_path, "k.json", k_stage_to_json(paq_type_generator(2, 3, 2, "i").form))
    # every set holds one digit, so DIGIT_LIMIT passes at any k
    single = _write(tmp_path, "one.json", {
        "base": 2, "ells": [1], "E0": ["0"], "layers": [{"constant": ["0"]}], "Ls": [["0"], ["0"]]
    })
    # 20 stages of {0, 1} over E0 = {0, 1}: a file under 1 KB that expands to 2^21 digits
    deep = _write(tmp_path, "deep.json", {
        "base": 2, "ells": [1] * 20, "E0": ["0", "1"], "layers": [{"constant": ["0", "1"]}] * 20,
        "Ls": [["0"]] * 21,
    })
    # spectra of 2,000 digits over one-digit sets: 4,000,000 points in the
    # spectrum sum (unsized, validate-form takes 2 s and 450 MB on them on a
    # 2-core x86 container)
    wide_l = [[str(i) for i in range(2000)], [str(2000 * i) for i in range(2000)]]
    wide_one = _write(tmp_path, "wide-one.json", {
        "base": 4, "r": 1, "A": ["0", "1"], "Bs": {"0": ["0", "2"], "1": ["0", "2"]}, "L1": wide_l[0], "L2": wide_l[1]
    })
    wide_staged = _write(tmp_path, "wide-staged.json", {
        "base": 2, "ells": [1], "E0": ["0"], "layers": [{"constant": ["0"]}], "Ls": wide_l
    })
    # four stages of {0} with L_i = {0, 10^(20 i)}: a file under 1 KB whose
    # reduction lifts L1 (+) L2 to (2^5)^4 points
    spread = _write(tmp_path, "spread.json", {
        "base": 2, "ells": [1] * 4, "E0": ["0"], "layers": [{"constant": ["0"]}] * 4,
        "Ls": [["0", str(10 ** (20 * i))] for i in range(5)],
    })
    huge = str(10**30)
    far = _write(tmp_path, "far.json", {**one_stage_to_json(f83), "r": huge})
    far_staged = _write(tmp_path, "far-staged.json", {
        "base": 2, "ells": [huge], "E0": ["0"], "layers": [{"constant": ["0"]}], "Ls": [["0"], ["0"]]
    })
    d01 = _write(tmp_path, "d01.json", {"digits": ["0", "1"]})
    l05 = _write(tmp_path, "l05.json", {"digits": ["0", "5"]})
    d20001 = _write(tmp_path, "d20001.json", {"base": 2, "digits": ["0", "20001"]})
    # the base alone sets the scan grid; the base-1,728 form that reduce-kstage
    # emits for (2,3,2,ii) has the same 1728^2 rational points
    wide = _write(tmp_path, "wide.json", {**one_stage_to_json(f83), "base": 1728})
    points = "POINT_LIMIT = 2^17"
    samples = "SAMPLE_LIMIT = 2^20"
    digits = "DIGIT_LIMIT = 2^15"
    base = "BASE_LIMIT = 2^256"
    tiles = "PAQ_LIMIT = 2^12"
    scale = "PAQ_SCALE_LIMIT = 2^128"
    trial = "FACTOR_LIMIT = 2^20"
    degree = "FACTOR_DEGREE_LIMIT = 10000"
    search = "SEARCH_BASE_LIMIT = 2^11"
    tiling = "TILE_BASE_LIMIT = 2^20"
    rows = "JP_ROW_LIMIT = 2^14"
    grid = "SCAN_POINT_LIMIT = 2^18"
    mersenne = str(2**61 - 1)

    def classify(p, q, alpha, variant, *params):
        argv = ["classify-paq", "--p", str(p), "--q", str(q), "--alpha", str(alpha), "--variant", variant]
        return argv + (["--params", *map(str, params)] if params else [])

    return [
        ("lemma42-p-10", ["check-lemma42", "--form", spec, "--p", "10"], "4^10 points", points),
        ("lemma42-p-huge", ["check-lemma42", "--form", spec, "--p", str(10**9)], f"4^{10**9} points", points),
        ("jp-levels-9", ["verify-jp", "--form", spec, "--levels", "9"], "2 * 4^9 points", points),
        ("jp-levels-huge", ["verify-jp", "--form", spec, "--levels", str(10**9)], f"2 * 4^{10**9} points", points),
        ("lemma42-p-8", ["check-lemma42", "--form", spec, "--p", "8"], "4^8 points for 64 samples", samples),
        ("jp-grid-1024", ["verify-jp", "--form", spec, "--levels", "5", "--grid", "1024"],
         "2 * 4^5 points for 1024 samples", samples),
        ("jp-grid-2^20", ["verify-jp", "--form", spec, "--grid", str(2**20)], f"2 * 4^4 points for {2**20} samples",
         samples),
        ("jp-grid-2^70", ["verify-jp", "--form", spec, "--grid", str(2**70)], f"2 * 4^4 points for {2**70} samples",
         samples),
        ("jp-rows-2^19", ["verify-jp", "--form", spec, "--levels", "0", "--grid", str(2**19)],
         f"1 * {2**19} rows", rows),
        ("jp-rows-just-above", ["verify-jp", "--form", spec, "--levels", "1", "--grid", "8193"], "2 * 8193 rows",
         rows),
        ("weakly-periodic-base-1728", ["weakly-periodic", "--form", wide], "1728^2 + 4096 points", grid),
        ("reduce-paq-ii-1-2", ["reduce-kstage", "--spec", paq], "24^5 digits", digits),
        ("reduce-k-huge", ["reduce-kstage", "--spec", small, "--k", str(10**9)], f"12^{10**9} digits", digits),
        ("validate-staged-20-stages", ["validate-form", "--spec", deep], f"{2**21} digits", digits),
        ("gen-staged-20-stages", ["gen-product-form", "--spec", deep], f"{2**21} digits", digits),
        ("validate-one-stage-spectra", ["validate-form", "--spec", wide_one], "2000 * 2000 points", digits),
        ("jp-one-stage-spectra", ["verify-jp", "--form", wide_one], "2000 * 2000 points", digits),
        ("lemma42-one-stage-spectra", ["check-lemma42", "--form", wide_one], "2000 * 2000 points", digits),
        ("validate-staged-spectra", ["validate-form", "--spec", wide_staged], "4000000 points", digits),
        ("reduce-staged-spectra", ["reduce-kstage", "--spec", wide_staged], "4000000 points", digits),
        ("reduce-spread-spectra", ["reduce-kstage", "--spec", spread], "32^4 points", digits),
        ("reduce-one-digit-k-1000", ["reduce-kstage", "--spec", single, "--k", "1000"], "2^1000", base),
        ("validate-one-stage-r-10^30", ["validate-form", "--spec", far], f"24^{huge}", base),
        ("gen-one-stage-r-10^30", ["gen-product-form", "--spec", far], f"24^{huge}", base),
        ("weakly-periodic-r-10^30", ["weakly-periodic", "--form", far], f"24^{huge}", base),
        ("validate-staged-ell-10^30", ["validate-form", "--spec", far_staged], f"2^{huge}", base),
        ("gen-staged-ell-10^30", ["gen-product-form", "--spec", far_staged], f"2^{huge}", base),
        ("paq-i-alpha-huge", classify(2, 3, 10**6, "i"), f"2^{10**6} * 3 digits", tiles),
        ("paq-iii-alpha-huge", classify(2, 3, 10**6, "iii"), f"2^{10**6} * 3 digits", tiles),
        ("paq-just-above", classify(2, 2053, 1, "i"), "2^1 * 2053 digits", tiles),
        ("paq-prime-huge", classify(mersenne, 3, 1, "i"), f"{mersenne}^1 * 3 digits", tiles),
        ("paq-ii-shift-huge", classify(2, 3, 2, "ii", 10**9), f"12^{10**9 + 2}", scale),
        ("paq-ii-shift-just-above", classify(2, 3, 2, "ii", 34), "12^36", scale),
        ("hadamard-base-mersenne", ["check-hadamard", "--base", mersenne, "--digits", d01, "--spectrum", l05],
         mersenne, trial),
        ("t1t2-base-mersenne", ["check-t1t2", "--base", mersenne, "--digits", d01], mersenne, trial),
        ("factor-mask-degree-20001", ["factor-mask", "--digits", d20001], "degree 20001", degree),
        ("find-spectrum-base-10^6", ["find-spectrum", "--base", str(10**6), "--digits", d01], "Z_1000000", search),
        ("tile-base-10^12", ["check-tile", "--base", str(10**12), "--digits", d01], f"Z_{10**12}", tiling),
        ("tile-base-2^70", ["check-tile", "--base", str(2**70), "--digits", d01], f"Z_{2**70}", tiling),
    ]


def test_over_limit_point_sets_are_refused_before_any_work(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the size check")

    rows = _over_limit_inputs(tmp_path)  # builds its forms before the patches
    monkeypatch.setattr(measure.TruncatedMeasure, "mu_hat", no_work)
    monkeypatch.setattr(measure.TruncatedMeasure, "mu_hat_rational", no_work)
    monkeypatch.setattr(measure, "_split_phase_abs", no_work)
    monkeypatch.setattr(measure, "chebyshev_grid", no_work)
    monkeypatch.setattr(measure, "_scan_grid", no_work)
    monkeypatch.setattr(productform, "_expand_layers", no_work)
    monkeypatch.setattr(cm_tiling, "_scaled", no_work)
    monkeypatch.setattr(cm_tiling, "generate_modulo_product_form", no_work)
    monkeypatch.setattr(cm_tiling, "modulo_to_k_stage", no_work)
    monkeypatch.setattr(cm_tiling, "is_prime", no_work)
    monkeypatch.setattr(cm_tiling, "_duplicate_residue", no_work)
    monkeypatch.setattr(hadamard, "zero_set", no_work)
    monkeypatch.setattr(cyclotomic, "_admissible_indices", no_work)
    for name, argv, size, limit in rows:
        t0 = time.perf_counter()
        code = _run(argv)
        took = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert code == 1, name
        error = json.loads(captured.out)["error"]
        assert error["type"] == "PointLimitExceeded", name
        assert f" {size}" in error["message"], name
        assert limit in error["message"], name
        assert took < 1.0, (name, took)
    # the frame-sums benchmark inputs (--p 3 with 64 samples, --levels 5
    # with --grid 8) stay far below
    assert 64 * 2 * 4**5 <= measure.POINT_LIMIT
    assert 4**3 * 64 <= measure.SAMPLE_LIMIT and 2 * 4**5 * 8 <= measure.SAMPLE_LIMIT
    # with (5 + 1) * 8 report rows; weakly-periodic runs at N <= 48
    assert 64 * 6 * 8 <= cli.JP_ROW_LIMIT
    assert 32 * (48**2 + measure.SCAN_RESOLUTION) <= measure.SCAN_POINT_LIMIT
    # and so do the benchmark's and acceptance 6's reductions (Z_72 at k = 2)
    # and the invalid N = 12 form of the tier-1 tests (12^4 digits)
    assert 72**2 < 12**4 <= productform.DIGIT_LIMIT
    assert (12**4) ** 16 <= productform.BASE_LIMIT
    # and the classify-paq shapes of the benchmark and the tests (N <= 50,
    # with a variant ii top stage at most N^5)
    assert 64 * 50 <= cm_tiling.PAQ_LIMIT
    assert 50**5 <= cm_tiling.PAQ_SCALE_LIMIT
    # and the benchmark's find-spectrum (N <= 60) and check-tile (N < 4,000) jobs
    assert 60 <= hadamard.SEARCH_BASE_LIMIT
    assert 4000 <= cm_tiling.TILE_BASE_LIMIT


def test_every_named_limit_has_an_over_limit_row(tmp_path):
    """Each public module-level *_LIMIT of the package, read from its source
    with ``ast``, is the limit named by some row of _over_limit_inputs."""
    named = {limit.split(" = ")[0] for *_, limit in _over_limit_inputs(tmp_path)}
    limits = set()
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "spectralforge").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            limits.update(
                t.id for t in targets if isinstance(t, ast.Name) and t.id.endswith("_LIMIT") and not t.id.startswith("_")
            )
    assert "FACTOR_DEGREE_LIMIT" in limits
    assert limits - named == set()


def test_unexpected_exception_is_a_json_report(tmp_path, capsys, monkeypatch):
    from spectralforge import cm_tiling

    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(cm_tiling, "check_tile_zn", boom)
    d = _write(tmp_path, "d.json", {"base": 4, "digits": ["0", "2"]})
    out_path = tmp_path / "report.json"
    code = _run(["check-tile", "--base", "4", "--digits", d, "--output", str(out_path)])
    captured = capsys.readouterr()
    assert code == 1
    report = json.loads(captured.out)
    assert report["command"] == "check-tile"
    assert report["error"] == {"type": "RuntimeError", "message": "injected"}
    assert json.loads(out_path.read_text()) == report
    assert "Traceback" not in captured.err

    # a ValueError from inside a library call is a fault of the package, not
    # bad input: exit 1 with its type and where it was raised; the arguments
    # these calls refuse raise InputError themselves
    def bad_value(*args, **kwargs):
        raise ValueError("injected")

    _, f83 = build_four_digit_form(24, 1, 4, 1, 1)
    form = _write(tmp_path, "f83.json", one_stage_to_json(f83))
    staged = _write(tmp_path, "k.json", k_stage_to_json(paq_type_generator(2, 3, 2, "i").form))
    for module, name, argv in [
        (hadamard, "zero_set", ["find-spectrum", "--base", "4", "--digits", d]),
        (productform, "stacked_digits", ["reduce-kstage", "--spec", staged]),
        (measure, "form_measure", ["verify-jp", "--form", form]),
        (measure, "form_measure", ["check-lemma42", "--form", form]),
    ]:
        monkeypatch.setattr(module, name, bad_value)
        code = _run(argv)
        captured = capsys.readouterr()
        assert code == 1, argv
        assert json.loads(captured.out)["error"] == {"type": "ValueError", "message": "injected"}, argv
        assert "(ValueError at " in captured.err and "Traceback" not in captured.err, argv


_CALLS_IN_ONE_PROCESS = """
import contextlib, io, json, sys
from spectralforge.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_parser_reuse_matches_fresh_processes(tmp_path):
    """main() builds its parser once per process: a usage error and then a
    valid command give the exit codes, usage text and reports of two fresh
    processes."""
    d = _write(tmp_path, "d.json", {"base": 4, "digits": ["0", "2"]})
    calls = [["check-tile", "--base", "4"], ["check-tile", "--base", "4", "--digits", d]]
    fresh = []
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-m", "spectralforge.cli", *argv], capture_output=True, text=True, timeout=60,
            env=CHILD_ENV,
        )
        fresh.append([proc.returncode, proc.stdout, proc.stderr])
    proc = subprocess.run(
        [sys.executable, "-c", _CALLS_IN_ONE_PROCESS, json.dumps(calls)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
        env=CHILD_ENV,
    )
    assert json.loads(proc.stdout) == fresh
    assert [code for code, _, _ in fresh] == [2, 0]
    assert fresh[0][2].startswith("usage: spectralforge check-tile")


def _parse_outcome(parse, argv, capsys):
    """The namespace ``parse(argv)`` gives, or its usage error or exit, with
    what it printed."""
    try:
        outcome = ("args", vars(parse(argv)))
    except InputError as exc:
        outcome = ("error", str(exc))
    except SystemExit as exc:  # --help
        outcome = ("exit", exc.code)
    return outcome, capsys.readouterr()


def test_command_dispatch_parses_like_the_full_parser(capsys):
    """main() hands an argv that starts with a command name to that
    command's subparser.  Over every golden argv and the edge shapes, its
    parse gives the namespace, the usage error and the printed text of a
    fresh parser's parse_args."""
    golden = json.loads((Path(__file__).resolve().parent / "golden_reports.json").read_text())
    argvs = [job["argv"] for job in golden["jobs"]]
    tile = ["check-tile", "--base", "4", "--digits", "d.json"]
    argvs += [
        [],
        ["no-such-command"],
        ["--output", "x", *tile],
        [*tile, "--bogus"],
        [*tile, "extra", "--bogus", "1"],
        ["check-tile", "--base", "4"],
        ["check-tile", "--base", "0", "--digits", "d.json"],
        ["check-tile", "--base"],
        ["check-tile", "--", "--base", "4"],
        ["-h"],
        ["check-tile", "-h"],
    ]
    for argv in argvs:
        got = _parse_outcome(cli._parse, argv, capsys)
        assert got == _parse_outcome(cli.build_parser().parse_args, argv, capsys), argv
    commands = cli.build_parser().commands
    assert sum(bool(argv) and argv[0] in commands for argv in argvs) == len(golden["jobs"]) + 7


def test_closed_stdout_ends_quietly_with_the_exit_code():
    """A reader that leaves early, as `| head -3` does, costs no traceback:
    the child writes its report to a pipe whose read end is already closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "spectralforge.cli",
             "classify-paq", "--p", "2", "--q", "3", "--alpha", "3", "--variant", "i"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
            env=CHILD_ENV,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "generated 24 digits, multiplier 1\n"
    assert proc.returncode == 0


def test_malformed_form_subprocess_has_no_traceback(tmp_path):
    _, f83 = build_four_digit_form(24, 1, 4, 1, 1)
    form = one_stage_to_json(f83)
    spec = _write(tmp_path, "bs-list.json", {**form, "Bs": list(form["Bs"].values())})
    proc = subprocess.run(
        [sys.executable, "-m", "spectralforge.cli", "validate-form", "--spec", spec],
        capture_output=True,
        text=True,
        timeout=60,
        env=CHILD_ENV,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "InputError"
    assert "Traceback" not in proc.stderr


def test_gen_product_form_expands_both_kinds(tmp_path, capsys):
    _, f83 = build_four_digit_form(24, 1, 4, 1, 1)
    staged = paq_type_generator(2, 3, 2, "i").form
    for form, expand, to_json in ((f83, expand_one_stage, one_stage_to_json),
                                  (staged, expand_k_stage, k_stage_to_json)):
        spec = _write(tmp_path, "form.json", to_json(form))
        assert _run(["gen-product-form", "--spec", spec]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["digits"] == digitset_to_json(expand(form))
        assert report["count"] == len(expand(form))


def test_zshift_form_with_keyed_layers_reduces(tmp_path, capsys):
    """classify-paq --zshifts emits parent-keyed "map" layers; reduce-kstage
    reads them back and gives the reduction of the generated form."""
    zshifts = _write(tmp_path, "zshifts.json", [{"stage": 1, "parent": 0, "e": 0, "z": 1}])
    argv = ["classify-paq", "--p", "2", "--q", "3", "--alpha", "2", "--variant", "i", "--zshifts", zshifts]
    assert _run(argv) == 0
    form = json.loads(capsys.readouterr().out)["form"]
    assert any("map" in layer for layer in form["layers"])
    spec = _write(tmp_path, "staged.json", form)
    assert _run(["reduce-kstage", "--spec", spec]) == 0
    one = json.loads(capsys.readouterr().out)["one_stage"]
    direct = paq_type_generator(2, 3, 2, "i", zshifts={(1, 0, 0): 1}).form
    assert one == one_stage_to_json(k_stage_to_one_stage(direct))


def test_validate_form_reports_a_staged_collision(tmp_path, capsys):
    """E0 = {0, 4} and the layer {0, 1} at scale 4 both give 4."""
    spec = _write(tmp_path, "collide.json", {
        "base": 4, "ells": [1], "E0": ["0", "4"], "layers": [{"constant": ["0", "1"]}], "Ls": [["0", "2"], ["0", "1"]],
    })
    assert _run(["validate-form", "--spec", spec]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks[-1]["name"] == "expansion collision-free" and checks[-1]["ok"] is False
    assert "4" in checks[-1]["detail"]


def test_reduce_and_validate_name_the_same_collision_stage(tmp_path, capsys):
    """E0 = {0, 4} and the one layer {0, 1}, at scale 2^2, both give 4: the
    reduction and the validation name the form's own stage 1."""
    form = k_stage_form(2, (2,), (0, 4), [DigitSet(2, (0, 1))], [(0, 1), (0, 1)])
    spec = _write(tmp_path, "gapped.json", k_stage_to_json(form))
    assert _run(["reduce-kstage", "--spec", spec]) == 1
    reduced = json.loads(capsys.readouterr().out)["error"]
    assert _run(["validate-form", "--spec", spec]) == 1
    validated = json.loads(capsys.readouterr().out)["checks"][-1]
    assert reduced["type"] == "OverlapError" and validated["name"] == "expansion collision-free"
    assert reduced["message"] == validated["detail"] == "digit collision at stage 1: 4 produced by (0, 1) and (4, 0)"


def test_verify_jp_scale_not_dividing_the_digits_reaches_the_shift_search(tmp_path, capsys, monkeypatch):
    """The scale 5 does not divide the expansion digit 6, and is valid: the
    shift search, which does not depend on the scale, runs and fails on
    this form at SHIFT_WINDOW 0 (gamma = 3), at scale 5 as at scale 1."""
    monkeypatch.setattr(measure, "SHIFT_WINDOW", 0)
    spec = _write(tmp_path, "f.json", {
        "base": 4, "r": 1, "A": ["0", "6"], "Bs": {"0": ["0", "9"], "6": ["0", "11"]}, "L1": ["0", "1"], "L2": ["0", "2"],
    })
    for scale in ("5", "1"):
        assert _run(["verify-jp", "--form", spec, "--levels", "1", "--scale", scale]) == 1
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "ShiftSearchFailure"


def test_digits_past_a_double_are_refused_before_any_work(tmp_path, capsys, monkeypatch):
    """A digit d whose phase 2*pi*d no double holds, or a tail that no depth
    within the doubles bounds (huge digits, candidate points past the
    doubles), ends in TailBoundUnavailable (exit 1) before a float mask or
    the kernel runs, not in an OverflowError inside them."""
    form = {"base": 4, "r": 1, "A": ["0", "1"], "Bs": {"0": ["0", "2"], "1": ["0", "6"]},
            "L1": ["0", "2"], "L2": ["0", "1"]}
    spec = _write(tmp_path, "f.json", form)
    far = _write(tmp_path, "far.json", {**form, "Bs": {"0": ["0", "2"], "1": ["0", str(4 * 10**300)]}})
    past = _write(tmp_path, "past.json", {**form, "Bs": {"0": ["0", "2"], "1": ["0", str(6 * 10**320)]}})
    # base 2^255: the level-5 candidate reaches 2^1275
    wide = _write(tmp_path, "wide.json", {**form, "base": str(2**255), "Bs": {"0": ["0", "2"], "1": ["0", "2"]},
                                          "L1": ["0", str(2**253)], "L2": ["0", str(2**254)]})
    rows = [
        ("jp-scale-1/10^320", ["verify-jp", "--form", spec, "--levels", "1", "--grid", "2", "--scale", f"1/{10**320}"]),
        ("periodic-digit-4e300", ["weakly-periodic", "--form", far]),
        ("lemma42-digit-6e320", ["check-lemma42", "--form", past, "--p", "1"]),
        ("periodic-digit-6e320", ["weakly-periodic", "--form", past]),
        ("jp-points-2^1275", ["verify-jp", "--form", wide, "--levels", "5", "--grid", "2"]),
    ]

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the refusal")

    for name in ("mask_value", "_split_phase_abs"):
        monkeypatch.setattr(measure, name, no_work)
    for name, argv in rows:
        assert _run(argv) == 1, name
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "TailBoundUnavailable", name


def test_each_numeric_job_expands_its_form_once(tmp_path, capsys, monkeypatch):
    """verify-jp, check-lemma42 (every depth) and weakly-periodic each expand
    the form once, inside the one library call that needs it."""
    calls = []
    expand = productform.expand_one_stage

    def counted(form):
        calls.append(form)
        return expand(form)

    for module in (cli, measure):
        monkeypatch.setattr(module, "expand_one_stage", counted)
    _, f83 = build_four_digit_form(24, 1, 4, 1, 1)
    spec = _write(tmp_path, "f83.json", one_stage_to_json(f83))
    for argv in (
        ["verify-jp", "--form", spec, "--levels", "5", "--grid", "8", "--scale", "3"],
        ["check-lemma42", "--form", spec, "--p", "3"],
        ["weakly-periodic", "--form", spec],
    ):
        calls.clear()
        assert _run(argv) == 0, argv
        capsys.readouterr()
        assert len(calls) == 1, argv
