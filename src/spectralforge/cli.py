"""Unified command-line front end.

One binary, many subcommands; every command reads/writes JSON (digits as
decimal strings, so arbitrary-precision values survive the round trip),
prints a machine-readable report to stdout, and keeps the human summary on
stderr.  Exit codes: 0 pass/valid/found, 1 fail/invalid/none or an error in
the package, 2 input error; an error gets a report too, naming it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
import traceback
from fractions import Fraction
from typing import Any, Sequence

from . import cm_tiling, measure
from .cyclotomic import cyclotomic_factorization, MaskPolynomial
from .digitsets import DigitSet
from .errors import InputError, InvalidVariantParams, PointLimitExceeded, SpectralForgeError, refuse_above
from .hadamard import check_triple, find_spectra
from .productform import (
    KStageForm,
    OneStageForm,
    build_four_digit_form,
    expand_k_stage,
    expand_one_stage,
    k_stage_form,
    k_stage_to_one_stage,
    one_stage_form,
    validate_k_stage,
    validate_one_stage,
)

REPORT_SCHEMA = "spectralforge-report/1"


# ---------------------------------------------------------------------------
# JSON helpers.


def _digits_to_json(ds: Sequence[int]) -> list[str]:
    return [str(d) for d in ds]


_INT_TEXT = re.compile(r"[+-]?[0-9]+")


def _int(raw) -> int:
    """A JSON integer (not a bool) or a decimal string; ValueError otherwise."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str) and _INT_TEXT.fullmatch(raw):
        return int(raw)
    raise ValueError(f"expected an integer, got {raw!r}")


def _digits_from_json(raw) -> tuple[int, ...]:
    """A JSON list of integers; ValueError on anything else, so a string
    or an object is never read as the sequence of its characters or keys."""
    if not isinstance(raw, list):
        raise ValueError(f"expected a list of integers, got a {type(raw).__name__}")
    return tuple(_int(x) for x in raw)


def digitset_to_json(d: DigitSet) -> dict:
    return {"base": d.base, "digits": _digits_to_json(d.digits)}


def digitset_from_json(obj, base: int | None = None) -> DigitSet:
    """The digit set in ``obj``; with ``base`` given, a "base" other than it
    is refused (ValueError), and an object with none takes it."""
    if not isinstance(obj, dict):
        raise InputError("expected an object")
    own = _int(obj["base"]) if "base" in obj else base or 0
    if base is not None and own != base:
        raise ValueError(f"its base {own} is not --base {base}")
    return DigitSet(own, _digits_from_json(obj["digits"]))


def _digit_set_map(raw: dict, base: int) -> dict[int, DigitSet]:
    """{key: digit set} from a JSON map of digit lists, each distinct list
    parsed once and its set shared.  Lists are keyed by their repr, not by
    equality: 1 == 1.0 == True, but the parse accepts only the first."""
    parsed: dict[str, DigitSet] = {}
    out = {}
    for k, v in raw.items():
        key = _int(k)
        text = repr(v)
        if text not in parsed:
            parsed[text] = DigitSet(base, _digits_from_json(v))
        out[key] = parsed[text]
    return out


def one_stage_to_json(f: OneStageForm) -> dict:
    return {
        "base": f.base,
        "r": f.r,
        "A": _digits_to_json(f.a_set.digits),
        "Bs": {str(a): _digits_to_json(b.digits) for a, b in f.b_sets},
        "L1": _digits_to_json(f.l1.digits),
        "L2": _digits_to_json(f.l2.digits),
    }


def one_stage_from_json(obj: dict) -> OneStageForm:
    base = _int(obj["base"])
    b_map = _digit_set_map(obj["Bs"], base)
    return one_stage_form(
        base,
        _int(obj.get("r", 1)),
        _digits_from_json(obj["A"]),
        b_map,
        _digits_from_json(obj["L1"]),
        _digits_from_json(obj["L2"]),
    )


def k_stage_to_json(f: KStageForm) -> dict:
    layers = []
    for layer in f.layers:
        if isinstance(layer, DigitSet):
            layers.append({"constant": _digits_to_json(layer.digits)})
        else:
            layers.append({"map": {str(k): _digits_to_json(v.digits) for k, v in layer}})
    return {
        "base": f.base,
        "ells": list(f.ells),
        "E0": _digits_to_json(f.e0.digits),
        "layers": layers,
        "Ls": [_digits_to_json(s.digits) for s in f.spectra],
    }


def k_stage_from_json(obj: dict) -> KStageForm:
    base = _int(obj["base"])
    layers = []
    for layer in obj["layers"]:
        if "constant" in layer:
            layers.append(DigitSet(base, _digits_from_json(layer["constant"])))
        else:
            layers.append(_digit_set_map(layer["map"], base))
    return k_stage_form(
        base,
        _digits_from_json(obj["ells"]),
        _digits_from_json(obj["E0"]),
        layers,
        [_digits_from_json(s) for s in obj["Ls"]],
    )


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise InputError(f"{path}: invalid JSON: {exc}") from exc


# Anything a file can hold makes one of these when the package builds its
# objects from it: a missing key, a wrong type, or a value the constructors
# reject (base < 2, no digits, repeated digits, ...).
_BUILD_ERRORS = (SpectralForgeError, LookupError, TypeError, ValueError, AttributeError)


def _load(path: str, what: str, build):
    """build(obj) on the JSON in ``path``; a failure to build is an input
    error, except a size above a named limit, which stays PointLimitExceeded."""
    obj = load_json(path)
    try:
        return build(obj)
    except PointLimitExceeded:
        raise
    except _BUILD_ERRORS as exc:
        raise InputError(f"{path}: bad {what}: {exc}") from exc


def _form_from_json(obj) -> OneStageForm | KStageForm:
    if not isinstance(obj, dict):
        raise InputError("expected an object")
    return k_stage_from_json(obj) if "ells" in obj else one_stage_from_json(obj)


def load_form(path: str) -> OneStageForm | KStageForm:
    return _load(path, "form", _form_from_json)


def _one_stage(path: str, command: str) -> OneStageForm:
    form = load_form(path)
    if not isinstance(form, OneStageForm):
        raise InputError(f"{command} expects a one-stage form")
    return form


def load_digitset(path: str, base: int) -> DigitSet:
    return _load(path, "digit set", lambda obj: digitset_from_json(obj, base))


def _mask_from_json(obj) -> MaskPolynomial:
    """The mask of a digit set's digits translated to min 0.  The
    factorization reads no base, so the object may hold none; one it holds
    must still make a digit set."""
    if isinstance(obj, dict) and "base" not in obj:
        digits = _digits_from_json(obj["digits"])
    else:
        digits = digitset_from_json(obj).digits
    low = min(digits, default=0)
    return MaskPolynomial.from_digits(sorted(x - low for x in digits))


def _zshifts_from_json(raw) -> dict:
    return {(_int(r["stage"]), _int(r["parent"]), _int(r["e"])): _int(r["z"]) for r in raw}


def emit(report: dict, output: str | None):
    report = {"schema": REPORT_SCHEMA, **report}
    text = json.dumps(report, indent=2, sort_keys=True)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text, flush=True)


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (passed, report fields, summary); main()
# turns that into the report, the summary on stderr and the exit code.

Outcome = tuple[bool, dict, str]


def cmd_check_hadamard(args) -> Outcome:
    d = load_digitset(args.digits, args.base)
    l = load_digitset(args.spectrum, args.base)
    rep = check_triple(args.base, d, l)
    ok = rep is None
    fields = {
        "base": args.base,
        "valid": ok,
        "failure": None if ok else {"kind": rep.kind, "detail": str(rep)},
    }
    return ok, fields, "valid Hadamard triple" if ok else f"invalid: {rep}"


def cmd_find_spectrum(args) -> Outcome:
    d = load_digitset(args.digits, args.base)
    found = find_spectra(args.base, d, limit=args.limit)
    fields = {
        "base": args.base,
        "count": len(found),
        "spectra": [_digits_to_json(s.digits) for s in found],
    }
    return bool(found), fields, f"{len(found)} spectrum (spectra) found"


def cmd_validate_form(args) -> Outcome:
    form = load_form(args.spec)
    one = isinstance(form, OneStageForm)
    report = validate_one_stage(form) if one else validate_k_stage(form)
    fields = {
        "kind": "one-stage" if one else "k-stage",
        "ok": report.ok,
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in report.checks],
    }
    return report.ok, fields, str(report)


def cmd_gen_product_form(args) -> Outcome:
    form = load_form(args.spec)
    digits = expand_one_stage(form) if isinstance(form, OneStageForm) else expand_k_stage(form)
    fields = {"digits": digitset_to_json(digits), "count": len(digits)}
    return True, fields, f"expanded to {len(digits)} digits"


def cmd_reduce_kstage(args) -> Outcome:
    form = load_form(args.spec)
    if not isinstance(form, KStageForm):
        raise InputError("reduce-kstage expects a staged form (with 'ells')")
    one = k_stage_to_one_stage(form, k_target=args.k)
    summary = f"reduced to a one-stage form over base {one.base}"
    return True, {"one_stage": one_stage_to_json(one)}, summary


def cmd_check_t1t2(args) -> Outcome:
    d = load_digitset(args.digits, args.base)
    prof = cm_tiling.cm_profile(d, args.base)
    fields = {
        "base": args.base,
        "prime_power_indices": list(prof.s_indices),
        "t1": prof.t1,
        "t2": prof.t2,
        "t1_detail": prof.t1_detail,
        "t2_detail": prof.t2_detail,
        "spectrum": None
        if prof.tiling_spectrum is None
        else _digits_to_json(prof.tiling_spectrum.digits),
    }
    if prof.t1 and prof.t2:
        return True, fields, "both tiling conditions hold; spectrum emitted"
    return False, fields, "T1 failure" if not prof.t1 else "T2 failure"


def cmd_check_tile(args) -> Outcome:
    d = load_digitset(args.digits, args.base)
    verdict = cm_tiling.check_tile_zn(d, args.base)
    fields = {
        "base": args.base,
        "verdict": verdict.verdict,
        "tiles": verdict.tiles,
        "witness": None if verdict.witness is None else _digits_to_json(verdict.witness.digits),
    }
    summary = f"{verdict.verdict}; tiles={verdict.tiles}"
    return verdict.tiles, fields, f"{summary} ({verdict.detail})" if verdict.detail else summary


def cmd_classify_paq(args) -> Outcome:
    zshifts = _load(args.zshifts, "zshifts", _zshifts_from_json) if args.zshifts else None
    try:
        res = cm_tiling.paq_type_generator(
            args.p,
            args.q,
            args.alpha,
            args.variant,
            m_values=args.params,
            zshifts=zshifts,
        )
    except InvalidVariantParams as exc:
        raise InputError(str(exc)) from exc
    fields = {
        "multiplier": res.multiplier,
        "digits": digitset_to_json(res.digits),
        "generated": digitset_to_json(res.generated),
        "form": k_stage_to_json(res.form),
        "form_ok": res.report.ok,
        "congruences": [
            {"label": c.label, "ok": c.ok} for c in res.congruences
        ],
    }
    return res.report.ok, fields, f"generated {len(res.digits)} digits, multiplier {res.multiplier}"


def cmd_factor_mask(args) -> Outcome:
    fac = cyclotomic_factorization(_load(args.digits, "digit set", _mask_from_json))
    fields = {
        "factors": [[idx, mult] for idx, mult in fac.factors],
        "residual": dict((str(e), c) for e, c in fac.residual.terms),
    }
    lines = [f"Phi_{idx} ^ {mult}" for idx, mult in fac.factors]
    lines += [f"residual: {fac.residual}", f"{len(fac.factors)} cyclotomic factor(s)"]
    return True, fields, "\n".join(lines)


# Most rows a verify-jp report may hold: one per level 0..levels and sample.
# In process on fd24-1-4-1-1 with --scale 3 (2-core x86), 2^14 rows
# (--levels 1 --grid 8192) take 0.25 s and print 2.6 MB; --levels 0 --grid
# 2^19 takes 11 s and prints 83 MB with this limit lifted.
JP_ROW_LIMIT = 1 << 14
# verify-jp passes when every Q_T is at most 1 + BESSEL_TOLERANCE (the
# Bessel bound), check-lemma42 when the identity's largest deviation over
# its IDENTITY_SAMPLES Chebyshev points is below IDENTITY_TOLERANCE.
BESSEL_TOLERANCE = 1e-9
IDENTITY_TOLERANCE = 1e-9
IDENTITY_SAMPLES = 64


def cmd_verify_jp(args) -> Outcome:
    form = _one_stage(args.form, args.command)
    measure.check_frame_sum_size(form, args.levels, args.grid, candidate=True)
    refuse_above(
        "JP_ROW_LIMIT", JP_ROW_LIMIT, f"the report would hold {args.levels + 1} * {args.grid} rows",
        args.levels + 1, factor=args.grid,
    )
    cand = measure.build_spectrum(form, levels=args.levels, scale=args.scale)
    xi = [0.0] + measure.chebyshev_grid(args.grid - 1)
    rows_by_level = measure.jp_levels(cand, xi)
    # each level's Q_T sums a prefix of the next level's nonnegative terms
    # (jp_levels), so the growth is monotone by construction
    ok = all(r.q_t <= 1 + BESSEL_TOLERANCE for rows in rows_by_level for r in rows)
    fields = {
        "levels": args.levels,
        "scale": str(args.scale),
        "bessel_and_monotone": ok,
        "rows": [
            {
                "level": k,
                "xi": r.xi,
                "Q_T": r.q_t,
                "target": r.target,
                "deficiency": r.deficiency,
            }
            for k, rows in enumerate(rows_by_level)
            for r in rows
        ],
    }
    return ok, fields, "Bessel bound and monotone growth hold" if ok else "violation found"


def cmd_check_lemma42(args) -> Outcome:
    form = _one_stage(args.form, args.command)
    # the library checks this too, but only once it has the samples
    measure.check_frame_sum_size(form, args.p, IDENTITY_SAMPLES)
    worst = measure.finite_level_identity_check(form, args.p, measure.chebyshev_grid(IDENTITY_SAMPLES))
    fields = {"max_p": args.p, "max_deviation": worst}
    return worst < IDENTITY_TOLERANCE, fields, f"max deviation {worst:.3e}"


def cmd_weakly_periodic(args) -> Outcome:
    form = _one_stage(args.form, args.command)
    rep = measure.weakly_periodic_check(form)
    fields = {
        "min_max": rep.min_max,
        "argmin_xi": rep.argmin_xi,
        "flagged": list(rep.flagged),
        "excluded": rep.excluded,
    }
    return not rep.flagged, fields, f"min over the grid of the windowed max: {rep.min_max:.3e}"


# ---------------------------------------------------------------------------
# Fixture corpus.


def _fx_cantor():
    d = DigitSet(4, (0, 2))
    l = DigitSet(4, (0, 1))
    return check_triple(4, d, l) is None


def _fx_no_spectrum_24():
    return find_spectra(24, DigitSet(24, (0, 1, 16, 17))) == []


def _fx_one_stage_expand():
    f = one_stage_form(4, 1, (0, 1), {0: DigitSet(4, (0, 2)), 1: DigitSet(4, (0, 6))}, (0, 2), (0, 1))
    return expand_one_stage(f).digits == (0, 1, 8, 25) and validate_one_stage(f).ok


def _fx_interval_pair():
    f = one_stage_form(4, 1, (0, 1), {0: DigitSet(4, (0, 2)), 1: DigitSet(4, (0, 2))}, (0, 2), (0, 1))
    return expand_one_stage(f).digits == (0, 1, 8, 9) and validate_one_stage(f).ok


def _fx_mask_24():
    fac = cyclotomic_factorization(MaskPolynomial.from_digits((0, 1, 16, 17)))
    return dict(fac.factors) == {2: 1, 32: 1} and fac.residual.is_one


def _fx_t1_failure_24():
    prof = cm_tiling.cm_profile(DigitSet(24, (0, 1, 16, 17)), 24)
    return (not prof.t1) and prof.s_indices == (2,)


def _fx_four_digit_form():
    mult, form = build_four_digit_form(24, 1, 4, 1, 1)
    return (
        mult == 3
        and form.l1.digits == (0, 12)
        and expand_one_stage(form).digits == (0, 3, 48, 51)
        and validate_one_stage(form).ok
    )


def _fx_cm_pair_72():
    a = DigitSet(72, (0, 8, 16, 18, 26, 34))
    b = DigitSet(72, (0, 5, 6, 9, 12, 29, 33, 36, 42, 48, 53, 57))
    form = cm_tiling.cm_regular_product_triple(72, [a, b])
    return validate_k_stage(form).ok


def _fx_paq_variants():
    for variant in ("i", "ii", "iii"):
        res = cm_tiling.paq_type_generator(2, 3, 2, variant)
        if not res.report.ok:
            return False
    return True


def _fx_lemma42():
    f = one_stage_form(4, 1, (0, 1), {0: DigitSet(4, (0, 2)), 1: DigitSet(4, (0, 6))}, (0, 2), (0, 1))
    dev = measure.finite_level_identity_check(f, 2, measure.chebyshev_grid(16))
    return dev < IDENTITY_TOLERANCE


FIXTURES = [
    {
        "id": "cantor-fourth-triple",
        "note": "classical middle-fourth digit pair with its two-point spectrum",
        "expect": "valid",
        "run": _fx_cantor,
    },
    {
        "id": "four-digit-24-no-spectrum",
        "note": "four digits spanning two powers of two admit no spectrum mod 24",
        "expect": "none",
        "run": _fx_no_spectrum_24,
    },
    {
        "id": "one-stage-expansion",
        "note": "two equivalent pairs at scale 4 expand to {0,1,8,25}",
        "expect": "valid",
        "run": _fx_one_stage_expand,
    },
    {
        "id": "interval-pair-form",
        "note": "the union [0,1] u [2,3] as a one-stage form, digits {0,1,8,9}",
        "expect": "valid",
        "run": _fx_interval_pair,
    },
    {
        "id": "four-digit-24-mask",
        "note": "mask of {0,1,16,17} factors as Phi_2 * Phi_32 exactly",
        "expect": "factors",
        "run": _fx_mask_24,
    },
    {
        "id": "four-digit-24-t1-failure",
        "note": "32 does not divide 24, so the size condition fails",
        "expect": "t1-failure",
        "run": _fx_t1_failure_24,
    },
    {
        "id": "four-digit-24-form",
        "note": "scaled four-digit set {0,3,48,51} as a validated one-stage form",
        "expect": "valid",
        "run": _fx_four_digit_form,
    },
    {
        "id": "cm-pair-72",
        "note": "classical 6x12 complement pair tiling Z_72, two-level form",
        "expect": "valid",
        "run": _fx_cm_pair_72,
    },
    {
        "id": "paq-12-variants",
        "note": "all three tile digit shapes for 12 = 2^2 * 3, with certificates",
        "expect": "valid",
        "run": _fx_paq_variants,
    },
    {
        "id": "finite-level-identity",
        "note": "depth-2 averaged mask identity on the scale-4 fixture form",
        "expect": "valid",
        "run": _fx_lemma42,
    },
]


def cmd_run_all_fixtures(args) -> Outcome:
    """The report holds each fixture's verdict, the same bytes on every run;
    its time goes to the summary on stderr."""
    results = []
    lines = []
    for f in FIXTURES:
        start = time.time()
        try:
            ok = bool(f["run"]())
        except SpectralForgeError as exc:
            ok = False
            lines.append(f"{f['id']}: error {exc}")
        took = time.time() - start
        results.append({"id": f["id"], "ok": ok})
        lines.append(f"[{'PASS' if ok else 'FAIL'}] {f['id']} ({took:.2f}s)")
    all_ok = all(r["ok"] for r in results)
    return all_ok, {"ok": all_ok, "results": results}, "\n".join(lines)


# ---------------------------------------------------------------------------
# Parser.


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError, so main() reports them like any other."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(f"{self.prog}: {message}")


def _checked(convert, ok, what: str):
    """An argparse type: ``convert`` the text, then require ``ok(value)``."""

    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except (ValueError, ZeroDivisionError):  # 'abc', '1/0'
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")

    return parse


_BASE = _checked(int, lambda v: v >= 2, "an integer >= 2")
_POSITIVE = _checked(int, lambda v: v >= 1, "an integer >= 1")
_COUNT = _checked(int, lambda v: v >= 0, "an integer >= 0")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="spectralforge",
        description="exact product-form Hadamard triples, tiling conditions, and "
        "numerical spectrum verification",
    )
    sub = top.add_subparsers(dest="command", required=True)
    top.commands = sub.choices  # name -> subparser, for _parse

    def common(p):
        p.add_argument("--output", help="also write the JSON report here")

    p = sub.add_parser("check-hadamard", help="exact verification of a triple")
    p.add_argument("--base", type=_BASE, required=True)
    p.add_argument("--digits", required=True)
    p.add_argument("--spectrum", required=True)
    common(p)
    p.set_defaults(fn=cmd_check_hadamard)

    p = sub.add_parser("find-spectrum", help="exhaustive spectrum search in Z_N")
    p.add_argument("--base", type=_BASE, required=True)
    p.add_argument("--digits", required=True)
    p.add_argument("--limit", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_find_spectrum)

    p = sub.add_parser("validate-form", help="check every condition of a form")
    p.add_argument("--spec", required=True)
    common(p)
    p.set_defaults(fn=cmd_validate_form)

    p = sub.add_parser("gen-product-form", help="expand a form to its digit set")
    p.add_argument("--spec", required=True)
    common(p)
    p.set_defaults(fn=cmd_gen_product_form)

    p = sub.add_parser("reduce-kstage", help="rewrite a staged form over base N^k")
    p.add_argument("--spec", required=True)
    p.add_argument("--k", type=_POSITIVE, default=None)
    common(p)
    p.set_defaults(fn=cmd_reduce_kstage)

    p = sub.add_parser("check-t1t2", help="tiling conditions and spectrum")
    p.add_argument("--base", type=_BASE, required=True)
    p.add_argument("--digits", required=True)
    common(p)
    p.set_defaults(fn=cmd_check_t1t2)

    p = sub.add_parser("check-tile", help="does the set tile Z_N")
    p.add_argument("--base", type=_BASE, required=True)
    p.add_argument("--digits", required=True)
    common(p)
    p.set_defaults(fn=cmd_check_tile)

    p = sub.add_parser("classify-paq", help="generate a p^alpha*q tile digit set")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--variant", choices=("i", "ii", "iii"), required=True)
    p.add_argument("--params", type=int, nargs="*", default=None, help="shift exponents for variant ii")
    p.add_argument("--zshifts", default=None, help="JSON list of {stage,parent,e,z}")
    common(p)
    p.set_defaults(fn=cmd_classify_paq)

    p = sub.add_parser("factor-mask", help="cyclotomic factorization of a mask")
    p.add_argument("--digits", required=True)
    common(p)
    p.set_defaults(fn=cmd_factor_mask)

    p = sub.add_parser("verify-jp", help="partial frame sums of a built spectrum")
    p.add_argument("--form", required=True)
    p.add_argument("--levels", type=_COUNT, default=4)
    p.add_argument("--grid", type=_POSITIVE, default=8)
    p.add_argument(
        "--scale",
        type=_checked(Fraction, lambda v: v > 0, "a positive rational"),
        default=Fraction(1),
        help="rational scale, e.g. 3 or 1/2",
    )
    common(p)
    p.set_defaults(fn=cmd_verify_jp)

    p = sub.add_parser("check-lemma42", help="finite-level averaged mask identity")
    p.add_argument("--form", required=True)
    p.add_argument("--p", type=_POSITIVE, default=2)
    common(p)
    p.set_defaults(fn=cmd_check_lemma42)

    p = sub.add_parser("weakly-periodic", help="scan for all-integer-translate zeros")
    p.add_argument("--form", required=True)
    common(p)
    p.set_defaults(fn=cmd_weakly_periodic)

    p = sub.add_parser("run-all-fixtures", help="run the bundled example corpus")
    common(p)
    p.set_defaults(fn=cmd_run_all_fixtures)

    return top


# The parser main() builds on its first call and reuses after that.
_parser: argparse.ArgumentParser | None = None


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, on the parser built once per
    process.  An argv that starts with a command name goes straight to that
    command's subparser, which is all the full parse would run on it
    besides matching the name; its leftovers get the full parse's error.
    Any other argv (empty, an option first, an unknown name) takes the
    full parse."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    command = _parser.commands.get(argv[0]) if argv else None
    if command is None:
        return _parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        _parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; print its JSON report, or an error report, and
    return 0 (pass), 1 (fail, or an error in the package) or 2 (bad input)."""
    command = output = None
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        command = args.command
        if args.output:
            try:  # fail before the work, and without truncating an input file
                open(args.output, "a", encoding="utf-8").close()
            except OSError as exc:
                raise InputError(f"cannot write {args.output}: {exc.strerror}") from exc
            output = args.output
        passed, fields, summary = args.fn(args)
        code = 0 if passed else 1
    except Exception as exc:  # every outcome ends in a JSON report, never a traceback
        code = 2 if isinstance(exc, InputError) else 1
        fields = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        summary = f"{'input error' if code == 2 else 'error'}: {exc}"
        if not isinstance(exc, SpectralForgeError):  # a bug in the package: say where
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            summary += f" ({type(exc).__name__} at {frame.filename}:{frame.lineno})"
    try:
        emit({"command": command, **fields}, output)
    except BrokenPipeError:  # stdout closed early, as by `| head`: end quietly
        with open(os.devnull, "w") as devnull:  # so the flush at exit does not raise again
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    print(summary, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
