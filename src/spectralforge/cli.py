"""Unified command-line front end.

One binary, many subcommands; every command reads/writes JSON (digits as
decimal strings, so arbitrary-precision values survive the round trip),
prints a machine-readable report to stdout, and keeps the human summary on
stderr.  Exit codes: 0 pass/valid/found, 1 fail/invalid/none, 2 input
error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Any, Sequence

from . import cm_tiling, measure
from .cyclotomic import cyclotomic_factorization, MaskPolynomial
from .digitsets import DigitSet
from .errors import HadamardFailure, InputError, SpectralForgeError
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


def _digits_from_json(raw) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in raw)
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad digit list: {raw!r}") from exc


def digitset_to_json(d: DigitSet) -> dict:
    return {"base": d.base, "digits": _digits_to_json(d.digits)}


def digitset_from_json(obj, base: int | None = None) -> DigitSet:
    if isinstance(obj, dict):
        b = int(obj.get("base", base or 0))
        return DigitSet(b, _digits_from_json(obj["digits"]))
    # bare digit lists fall back to base 2 for base-free commands
    return DigitSet(base if base is not None else 2, _digits_from_json(obj))


def residueclass_to_json(r) -> dict:
    return {"modulus": r.modulus, "residues": _digits_to_json(r.residues)}


def residueclass_from_json(obj: dict):
    from .digitsets import ResidueClassSet

    return ResidueClassSet(int(obj["modulus"]), _digits_from_json(obj["residues"]))


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
    base = int(obj["base"])
    b_map = {int(k): DigitSet(base, _digits_from_json(v)) for k, v in obj["Bs"].items()}
    return one_stage_form(
        base,
        int(obj.get("r", 1)),
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
    base = int(obj["base"])
    layers = []
    for layer in obj["layers"]:
        if "constant" in layer:
            layers.append(DigitSet(base, _digits_from_json(layer["constant"])))
        else:
            layers.append(
                {int(k): DigitSet(base, _digits_from_json(v)) for k, v in layer["map"].items()}
            )
    return k_stage_form(
        base,
        [int(e) for e in obj["ells"]],
        _digits_from_json(obj["E0"]),
        layers,
        [_digits_from_json(s) for s in obj["Ls"]],
    )


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno} col {exc.colno}") from exc


def load_form(path: str) -> OneStageForm | KStageForm:
    obj = load_json(path)
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected an object")
    try:
        if "ells" in obj:
            return k_stage_from_json(obj)
        return one_stage_from_json(obj)
    except (KeyError, ValueError) as exc:
        raise InputError(f"{path}: bad form: {exc}") from exc


def load_digitset(path: str, base: int | None) -> DigitSet:
    obj = load_json(path)
    try:
        return digitset_from_json(obj, base)
    except (KeyError, ValueError) as exc:
        raise InputError(f"{path}: bad digit set: {exc}") from exc


def emit(report: dict, output: str | None):
    report = {"schema": REPORT_SCHEMA, **report}
    text = json.dumps(report, indent=2, sort_keys=True)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def note(msg: str):
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns the exit code.


def cmd_check_hadamard(args) -> int:
    d = load_digitset(args.digits, args.base)
    l = load_digitset(args.spectrum, args.base)
    rep = check_triple(args.base, d, l)
    ok = rep is None
    emit(
        {
            "command": "check-hadamard",
            "base": args.base,
            "valid": ok,
            "failure": None if ok else {"kind": rep.kind, "detail": str(rep)},
        },
        args.output,
    )
    note("valid Hadamard triple" if ok else f"invalid: {rep}")
    return 0 if ok else 1


def cmd_find_spectrum(args) -> int:
    d = load_digitset(args.digits, args.base)
    try:
        found = find_spectra(args.base, d, limit=args.limit)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    emit(
        {
            "command": "find-spectrum",
            "base": args.base,
            "count": len(found),
            "spectra": [_digits_to_json(s.digits) for s in found],
        },
        args.output,
    )
    note(f"{len(found)} spectrum (spectra) found")
    return 0 if found else 1


def cmd_validate_form(args) -> int:
    form = load_form(args.spec)
    if isinstance(form, OneStageForm):
        report = validate_one_stage(form)
    else:
        report = validate_k_stage(form)
    emit(
        {
            "command": "validate-form",
            "kind": "one-stage" if isinstance(form, OneStageForm) else "k-stage",
            "ok": report.ok,
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in report.checks],
        },
        args.output,
    )
    note(str(report))
    return 0 if report.ok else 1


def cmd_gen_product_form(args) -> int:
    form = load_form(args.spec)
    digits = expand_one_stage(form) if isinstance(form, OneStageForm) else expand_k_stage(form)
    payload = {"command": "gen-product-form", "digits": digitset_to_json(digits)}
    if args.expand:
        payload["count"] = len(digits)
    emit(payload, args.output)
    note(f"expanded to {len(digits)} digits")
    return 0


def cmd_reduce_kstage(args) -> int:
    form = load_form(args.spec)
    if not isinstance(form, KStageForm):
        raise InputError("reduce-kstage expects a staged form (with 'ells')")
    one = k_stage_to_one_stage(form, k_target=args.k)
    emit(
        {"command": "reduce-kstage", "one_stage": one_stage_to_json(one)},
        args.output,
    )
    note(f"reduced to a one-stage form over base {one.base}")
    return 0


def cmd_check_t1t2(args) -> int:
    d = load_digitset(args.digits, args.base)
    prof = cm_tiling.cm_profile(d, args.base)
    emit(
        {
            "command": "check-t1t2",
            "base": args.base,
            "prime_power_indices": list(prof.s_indices),
            "t1": prof.t1,
            "t2": prof.t2,
            "t1_detail": prof.t1_detail,
            "t2_detail": prof.t2_detail,
            "spectrum": None
            if prof.tiling_spectrum is None
            else _digits_to_json(prof.tiling_spectrum.digits),
        },
        args.output,
    )
    if prof.t1 and prof.t2:
        note("both tiling conditions hold; spectrum emitted")
        return 0
    note("T1 failure" if not prof.t1 else "T2 failure")
    return 1


def cmd_check_tile(args) -> int:
    d = load_digitset(args.digits, args.base)
    bound = max(10_000, args.base if args.exhaustive else 0)
    verdict = cm_tiling.check_tile_zn(d, args.base, exhaustive_bound=bound)
    emit(
        {
            "command": "check-tile",
            "base": args.base,
            "verdict": verdict.verdict,
            "tiles": verdict.tiles,
            "witness": None if verdict.witness is None else _digits_to_json(verdict.witness.digits),
        },
        args.output,
    )
    note(f"{verdict.verdict}; tiles={verdict.tiles}")
    return 0 if verdict.tiles else 1


def cmd_classify_paq(args) -> int:
    zshifts = None
    if args.zshifts:
        raw = load_json(args.zshifts)
        zshifts = {(int(r["stage"]), int(r["parent"]), int(r["e"])): int(r["z"]) for r in raw}
    res = cm_tiling.paq_type_generator(
        args.p,
        args.q,
        args.alpha,
        args.variant,
        m_values=args.params,
        zshifts=zshifts,
    )
    emit(
        {
            "command": "classify-paq",
            "multiplier": res.multiplier,
            "digits": digitset_to_json(res.digits),
            "generated": digitset_to_json(res.generated),
            "form": k_stage_to_json(res.form),
            "form_ok": res.report.ok,
            "congruences": [
                {"label": c.label, "ok": c.ok} for c in res.congruences
            ],
        },
        args.output,
    )
    note(f"generated {len(res.digits)} digits, multiplier {res.multiplier}")
    return 0 if res.report.ok else 1


def cmd_factor_mask(args) -> int:
    d = load_digitset(args.digits, None if args.base is None else args.base)
    low = d.digits[0]
    mask = MaskPolynomial.from_digits(tuple(x - low for x in d.digits))
    try:
        fac = cyclotomic_factorization(mask)
    except ValueError as exc:  # the degree limit of the index search
        raise InputError(str(exc)) from exc
    emit(
        {
            "command": "factor-mask",
            "factors": [[idx, mult] for idx, mult in fac.factors],
            "residual": dict((str(e), c) for e, c in fac.residual.terms),
        },
        args.output,
    )
    for idx, mult in fac.factors:
        note(f"Phi_{idx} ^ {mult}")
    note(f"residual: {fac.residual}")
    note(f"{len(fac.factors)} cyclotomic factor(s)")
    return 0


def cmd_verify_jp(args) -> int:
    form = load_form(args.form)
    if not isinstance(form, OneStageForm):
        raise InputError("verify-jp expects a one-stage form")
    scale = Fraction(args.scale) if args.scale else Fraction(1)
    cand = measure.build_spectrum(
        form, levels=args.levels, search_window=args.window, scale=scale
    )
    # candidate points scale by s, so they target the measure whose digits
    # are the expansion divided by s
    d_form = expand_one_stage(form)
    if scale != 1:
        if any((x * scale.denominator) % scale.numerator for x in d_form.digits):
            raise InputError(f"expansion digits are not divisible by the scale {scale}")
        d_interest = DigitSet(
            form.base,
            tuple(x * scale.denominator // scale.numerator for x in d_form.digits),
        )
    else:
        d_interest = d_form
    xi = [0.0] + measure.chebyshev_grid(args.grid - 1)[: args.grid - 1]
    rows_by_level = []
    ok = True
    for k in range(0, args.levels + 1):
        rows = measure.jp_sum(d_interest, form.base, cand.points(k), xi, depth=args.depth)
        for r in rows:
            ok = ok and r.q_t <= 1 + args.tolerance
        rows_by_level.append(rows)
    for prev, nxt in zip(rows_by_level, rows_by_level[1:]):
        for a, b in zip(prev, nxt):
            ok = ok and b.q_t >= a.q_t - 1e-12
    emit(
        {
            "command": "verify-jp",
            "levels": args.levels,
            "scale": str(scale),
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
        },
        args.output,
    )
    note("Bessel bound and monotone growth hold" if ok else "violation found")
    return 0 if ok else 1


def cmd_check_lemma42(args) -> int:
    form = load_form(args.form)
    if not isinstance(form, OneStageForm):
        raise InputError("check-lemma42 expects a one-stage form")
    worst = 0.0
    for p in range(1, args.p + 1):
        dev = measure.finite_level_identity_check(form, p, measure.chebyshev_grid(args.grid))
        worst = max(worst, dev)
    emit(
        {"command": "check-lemma42", "max_p": args.p, "max_deviation": worst},
        args.output,
    )
    note(f"max deviation {worst:.3e}")
    return 0 if worst < args.tolerance else 1


def cmd_weakly_periodic(args) -> int:
    form = load_form(args.form)
    if not isinstance(form, OneStageForm):
        raise InputError("weakly-periodic expects a one-stage form")
    rep = measure.weakly_periodic_check(
        form, integer_window=args.window, resolution=args.resolution
    )
    emit(
        {
            "command": "weakly-periodic",
            "min_max": rep.min_max,
            "argmin_xi": rep.argmin_xi,
            "flagged": list(rep.flagged),
            "excluded": rep.excluded,
        },
        args.output,
    )
    note(f"min over the grid of the windowed max: {rep.min_max:.3e}")
    return 0 if rep.positive and not rep.flagged else 1


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
    return dev < 1e-9


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


def fixtures() -> list[dict]:
    """The bundled corpus: id, human note, expected verdict."""
    return [{k: f[k] for k in ("id", "note", "expect")} for f in FIXTURES]


def cmd_run_all_fixtures(args) -> int:
    t0 = time.time()
    results = []
    all_ok = True
    for f in FIXTURES:
        start = time.time()
        try:
            ok = bool(f["run"]())
        except SpectralForgeError as exc:
            ok = False
            note(f"{f['id']}: error {exc}")
        took = time.time() - start
        results.append({"id": f["id"], "ok": ok, "seconds": round(took, 3)})
        print(f"[{'PASS' if ok else 'FAIL'}] {f['id']} ({took:.2f}s)", file=sys.stderr)
        all_ok = all_ok and ok
    emit(
        {
            "command": "run-all-fixtures",
            "ok": all_ok,
            "total_seconds": round(time.time() - t0, 3),
            "results": results,
        },
        args.output,
    )
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# Parser.


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="spectralforge",
        description="exact product-form Hadamard triples, tiling conditions, and "
        "numerical spectrum verification",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="also write the JSON report here")

    p = sub.add_parser("check-hadamard", help="exact verification of a triple")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--digits", required=True)
    p.add_argument("--spectrum", required=True)
    common(p)
    p.set_defaults(fn=cmd_check_hadamard)

    p = sub.add_parser("find-spectrum", help="exhaustive spectrum search in Z_N")
    p.add_argument("--base", type=int, required=True)
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
    p.add_argument("--expand", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_gen_product_form)

    p = sub.add_parser("reduce-kstage", help="rewrite a staged form over base N^k")
    p.add_argument("--spec", required=True)
    p.add_argument("--k", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_reduce_kstage)

    p = sub.add_parser("check-t1t2", help="tiling conditions and spectrum")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--digits", required=True)
    common(p)
    p.set_defaults(fn=cmd_check_t1t2)

    p = sub.add_parser("check-tile", help="does the set tile Z_N")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--digits", required=True)
    p.add_argument("--exhaustive", action="store_true")
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
    p.add_argument("--base", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_factor_mask)

    p = sub.add_parser("verify-jp", help="partial frame sums of a built spectrum")
    p.add_argument("--form", required=True)
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--depth", type=int, default=24)
    p.add_argument("--grid", type=int, default=8)
    p.add_argument("--window", type=int, default=128)
    p.add_argument("--scale", default=None, help="rational scale, e.g. 3 or 1/2")
    p.add_argument("--tolerance", type=float, default=1e-9)
    common(p)
    p.set_defaults(fn=cmd_verify_jp)

    p = sub.add_parser("check-lemma42", help="finite-level averaged mask identity")
    p.add_argument("--form", required=True)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--tolerance", type=float, default=1e-9)
    common(p)
    p.set_defaults(fn=cmd_check_lemma42)

    p = sub.add_parser("weakly-periodic", help="scan for all-integer-translate zeros")
    p.add_argument("--form", required=True)
    p.add_argument("--window", type=int, default=64)
    p.add_argument("--resolution", type=int, default=4096)
    common(p)
    p.set_defaults(fn=cmd_weakly_periodic)

    p = sub.add_parser("run-all-fixtures", help="run the bundled example corpus")
    common(p)
    p.set_defaults(fn=cmd_run_all_fixtures)

    return top


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not getattr(args, "tolerance", 1.0) > 0:
            raise InputError(f"tolerance must be positive, got {args.tolerance}")
        if getattr(args, "base", None) is not None and args.base < 2:
            raise InputError(f"base must be >= 2, got {args.base}")
        if getattr(args, "depth", 1) < 1:
            raise InputError(f"depth must be >= 1, got {args.depth}")
        return args.fn(args)
    except InputError as exc:
        note(f"input error: {exc}")
        return 2
    except (HadamardFailure, SpectralForgeError) as exc:
        note(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
