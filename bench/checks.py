"""Report checks, one per job kind, written without the package under test.

``check(job, rc, stdout)`` returns None when the job's exit code and report
are right and a one-line reason otherwise.  Where it is cheap the check
recomputes the claim from the inputs with plain integers or floats.
"""

from __future__ import annotations

import cmath
import json
import math


def _ints(raw) -> list[int]:
    return [int(x) for x in raw]


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _exp_sum(digits, t: int, n: int) -> complex:
    return sum(cmath.exp(2j * math.pi * (d * t % n) / n) for d in digits)


def _totient(n: int) -> int:
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def _k_stage_expansion(staged: dict, k: int | None) -> tuple[int, int, set[int]]:
    """(N, k, D + N*D + ... + N^(k-1)*D) from a staged form's JSON."""
    n = int(staged["base"])
    ells = [int(e) for e in staged["ells"]]
    current = _ints(staged["E0"])
    total = 0
    for ell, layer in zip(ells, staged["layers"]):
        total += ell
        scale = n**total
        nxt = []
        for d in current:
            part = layer["constant"] if "constant" in layer else layer["map"][str(d)]
            nxt.extend(d + scale * e for e in _ints(part))
        current = nxt
    k = sum(ells) if k is None else k
    stacked = {0}
    for j in range(k):
        stacked = {s + n**j * d for s in stacked for d in current}
    if len(stacked) != len(current) ** k:
        raise ValueError("staged digits do not stack directly")
    return n, k, stacked


def _check_reduce(job, report):
    n, k, stacked = _k_stage_expansion(_load(job["check"]["staged"]), job["check"]["k"])
    one = report["one_stage"]
    big, r = int(one["base"]), int(one["r"])
    if big != n**k:
        return f"one-stage base {big} is not {n}^{k}"
    scale = big**r
    expanded = {int(a) + scale * b for a, bs in one["Bs"].items() for b in _ints(bs)}
    if expanded != stacked:
        return "one-stage expansion differs from D + N*D + ... + N^(k-1)*D"
    return None


def _check_find(job, rc, report):
    n, digits = job["check"]["base"], job["check"]["digits"]
    spectra = report["spectra"]
    if rc != (0 if spectra else 1) or report["count"] != len(spectra):
        return f"exit {rc} with {len(spectra)} spectra"
    for raw in spectra:
        spec = _ints(raw)
        if len(spec) != len(digits) or len({x % n for x in spec}) != len(spec) or 0 not in spec:
            return f"spectrum {spec} is not a 0-anchored set of size {len(digits)}"
        for i, a in enumerate(spec):
            for b in spec[i + 1:]:
                if abs(_exp_sum(digits, b - a, n)) > 1e-6:
                    return f"pair ({a}, {b}) of {spec} gives a nonvanishing sum"
    return None


def _check_tile(job, rc, report):
    n, digits = job["check"]["base"], job["check"]["digits"]
    tiles = report["tiles"]
    if rc != (0 if tiles else 1):
        return f"exit {rc} with tiles={tiles}"
    if job["check"]["must_tile"] and tiles is not True:
        return f"{{0,1}} tiles Z_{n} but the report says tiles={tiles}"
    if tiles:
        witness = _ints(report["witness"])
        if len(digits) * len(witness) != n or len({(a + c) % n for a in digits for c in witness}) != n:
            return f"witness {witness} does not give A (+) C = Z_{n}"
    return None


def _check_factor(job):
    report = _load(job["check"]["output"])
    low = min(job["check"]["digits"])
    exps = [d - low for d in job["check"]["digits"]]
    degree = max(exps)
    total = 0
    for d, m in report["factors"]:
        value = sum(cmath.exp(2j * math.pi * (e % d) / d) for e in exps)
        if abs(value) > 1e-6 * len(exps):
            return f"mask does not vanish at a primitive {d}-th root (|value| = {abs(value):.2e})"
        total += m * _totient(d)
    residual = [int(e) for e, c in report["residual"].items() if c]
    if total + max(residual, default=0) != degree:
        return f"factor degrees {total} + residual degree {max(residual, default=0)} != {degree}"
    return None


def check(job: dict, rc: int, stdout: str) -> str | None:
    kind = job["kind"]
    if kind == "factor-mask":
        return f"exit {rc}" if rc != 0 else _check_factor(job)
    report = json.loads(stdout)
    if kind == "find-spectrum":
        return _check_find(job, rc, report)
    if kind == "check-tile":
        return _check_tile(job, rc, report)
    if rc != 0:
        return f"exit {rc}"
    if kind == "reduce-kstage":
        return _check_reduce(job, report)
    flags = {
        "classify-paq": "form_ok",
        "validate-form": "ok",
        "check-hadamard": "valid",
        "verify-jp": "bessel_and_monotone",
    }
    if kind in flags and report[flags[kind]] is not True:
        return f"{flags[kind]} is not true"
    if kind == "check-lemma42" and not report["max_deviation"] < 1e-9:
        return f"max deviation {report['max_deviation']}"
    return None
