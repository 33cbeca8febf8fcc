"""Seeded job lists for the three benchmark workloads.

A job is one ``spectralforge`` CLI call: a dict with an ``id``, the
subcommand ``kind``, its ``argv``, what the report check needs (``check``)
and, for a job that consumes an earlier job's report, a ``stage`` entry
naming the report field to write to an input file before the job runs.
File paths are relative to the checkout root, which is the worker's
working directory.

``generate`` imports the package (to build staged forms and four-digit
forms), so it runs in its own process: the timed workers must start with
cold module caches.
"""

from __future__ import annotations

import json
import math
import os
import random

# Shapes whose classify-paq -> reduce-kstage -> validate-form chain runs in
# well under a second each.  Left out, with single-job times measured on a
# 2-core x86 container: (2,3,3,iii) reduced over base 13,824 (40 s) and
# (3,2,2,ii) (8.9 s).
STAGE_SHAPES = (
    (2, 3, 2, "i"), (2, 3, 2, "ii"), (2, 3, 2, "iii"),
    (3, 2, 2, "i"), (3, 2, 2, "iii"),
    (2, 5, 2, "i"), (2, 5, 2, "iii"),
    (5, 2, 2, "iii"),
)

# The classical complement pair A (+) B = Z_72.
Z72_A = (0, 8, 16, 18, 26, 34)
Z72_B = (0, 5, 6, 9, 12, 29, 33, 36, 42, 48, 53, 57)

# The nine shapes of acceptance criterion 7, plus the variant-ii shape whose
# kernel certificate is one dense division of degree ~4.9M.
# (2,3,3,ii) --params 1 2 is left out: 165 s, all in that division.
PAQ_SHAPES = tuple(
    (p, q, a, v, None)
    for (p, q, a) in ((2, 3, 2), (2, 3, 3), (3, 2, 2))
    for v in ("i", "ii", "iii")
) + ((2, 3, 3, "ii", (2, 1)),)

FOUR_DIGIT_ARGS = (
    (24, 1, 4, 1, 1), (24, 3, 5, 1, 3), (40, 1, 4, 1, 1), (12, 1, 3, 1, 1),
    (48, 1, 5, 1, 1), (48, 5, 6, 3, 1), (20, 1, 3, 1, 1),
)
# Base-4 one-stage forms expanding to {0,1,8,25} and {0,1,8,9}.
BASE4_BS = ((0, 6), (0, 2))


class JobList:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.jobs: list[dict] = []

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write(self, name: str, obj) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def add(self, kind: str, args: list, check: dict | None = None, stage: dict | None = None) -> int:
        jid = len(self.jobs)
        self.jobs.append(
            {"id": jid, "kind": kind, "argv": [kind, *map(str, args)],
             "check": check or {}, "stage": stage}
        )
        return jid


def _digits_json(base: int, digits) -> dict:
    return {"base": base, "digits": [str(d) for d in digits]}


def _shape_chain(jl: JobList, tag: str, shape: tuple):
    """classify-paq, reduce-kstage on the emitted form, then validate-form
    on the emitted one-stage form."""
    p, q, a, v = shape
    first = jl.add("classify-paq", ["--p", p, "--q", q, "--alpha", a, "--variant", v])
    staged = jl.path(f"{tag}-staged.json")
    red = jl.add("reduce-kstage", ["--spec", staged], {"staged": staged, "k": None},
                 stage={"from": first, "field": ["form"], "path": staged})
    one = jl.path(f"{tag}-one.json")
    jl.add("validate-form", ["--spec", one], stage={"from": red, "field": ["one_stage"], "path": one})


def stage_reduce(jl: JobList, rng: random.Random):
    from spectralforge import cli, cm_tiling
    from spectralforge.digitsets import DigitSet

    units = [u for u in range(1, 72) if math.gcd(u, 72) == 1]
    u = rng.choice(units)
    parts = [DigitSet(72, tuple(sorted(u * x % 72 for x in s))) for s in (Z72_A, Z72_B)]
    staged = jl.write("z72-staged.json", cli.k_stage_to_json(cm_tiling.cm_regular_product_triple(72, parts)))
    # The order is fixed: the small jobs share module caches, so a seeded
    # order would move their latencies from seed to seed.  The Z_72 jobs run
    # last: small jobs run after them were up to 1.7x slower, by how much
    # depending on the unit.
    for i, shape in enumerate(STAGE_SHAPES):
        _shape_chain(jl, f"c{i}", shape)
    red = jl.add("reduce-kstage", ["--spec", staged, "--k", 2], {"staged": staged, "k": 2})
    one = jl.path("z72-one.json")
    jl.add("validate-form", ["--spec", one], stage={"from": red, "field": ["one_stage"], "path": one})


def _random_subset(rng: random.Random, n: int, size: int) -> list[int]:
    return sorted(rng.sample(range(n), size))


def tile_sweep(jl: JobList, rng: random.Random):
    # The heavy jobs run in a fixed order, spread evenly between the small
    # ones, so that the small jobs (and so job_p50_s) are timed all through
    # the pass rather than in one burst of host load.
    fixed = [("paq", shape) for shape in PAQ_SHAPES]
    # Fixed degrees (the totient sieve grows with degree^2), random digits.
    for deg in (100, 280, 460, 640, 820, 1000):
        inner = rng.sample(range(1, deg), rng.randint(2, 10))
        fixed.append(("factor", deg, sorted([0, deg, *inner])))
    # {0,1} tiles every even N, but tile_complement recurses once per
    # translate and raises RecursionError near N = 2 * recursion limit.
    # Two N are drawn below and two above that limit, away from the
    # band where the harness's own stack depth (traced or not) decides.
    for lo, hi in ((1000, 1450), (1450, 1900), (2200, 3100), (3100, 4000)):
        fixed.append(("tile01", 2 * rng.randint(lo // 2, hi // 2), [0, 1]))
    # The exhaustive tiling search is exponential on some 2-element sets
    # with N >= 50 (1 ms to 4 s, by the set).  Two such sets run on every
    # seed; the random sets below stay at N <= 48, so that the seed does
    # not decide how many of these land in a pass.
    fixed += [("tile", 58, [16, 50]), ("tile", 58, [13, 30])]

    small = []
    for i in range(60):
        size = (2, 3, 4, 6, 8)[i % 5]
        n = rng.randint(max(size + 1, 8), 60)
        small.append(("find", n, _random_subset(rng, n, size)))
    for i in range(80):
        size = 2 + i % 3
        n = rng.randint(max(size + 1, 6), 48)
        small.append(("tile", n, _random_subset(rng, n, size)))
    rng.shuffle(small)
    order = []
    for k, item in enumerate(fixed):
        order += small[len(small) * k // len(fixed):len(small) * (k + 1) // len(fixed)]
        order.append(item)

    for i, item in enumerate(order):
        what = item[0]
        if what == "find":
            _, n, digits = item
            dpath = jl.write(f"d{i}.json", _digits_json(n, digits))
            find = jl.add("find-spectrum", ["--base", n, "--digits", dpath, "--limit", 2],
                          {"base": n, "digits": digits})
            for s in range(2):
                lpath = jl.path(f"l{i}-{s}.json")
                jl.add("check-hadamard", ["--base", n, "--digits", dpath, "--spectrum", lpath],
                       stage={"from": find, "field": ["spectra", s], "path": lpath, "optional": True,
                              "wrap_base": n})
        elif what in ("tile", "tile01"):
            _, n, digits = item
            dpath = jl.write(f"d{i}.json", _digits_json(n, digits))
            jl.add("check-tile", ["--base", n, "--digits", dpath],
                   {"base": n, "digits": digits, "must_tile": what == "tile01"})
        elif what == "paq":
            p, q, a, v, params = item[1]
            extra = [] if params is None else ["--params", *params]
            jl.add("classify-paq", ["--p", p, "--q", q, "--alpha", a, "--variant", v, *extra])
        else:
            _, deg, digits = item
            dpath = jl.write(f"d{i}.json", _digits_json(2, digits))
            jl.add("factor-mask", ["--digits", dpath, "--output", jl.path(f"fm{i}.json")],
                   {"digits": digits, "output": jl.path(f"fm{i}.json")})


def frame_sums(jl: JobList, rng: random.Random):
    from spectralforge import cli
    from spectralforge.digitsets import DigitSet
    from spectralforge.productform import build_four_digit_form, one_stage_form

    forms = []
    for args in FOUR_DIGIT_ARGS:
        mult, form = build_four_digit_form(*args)
        forms.append((f"fd{'-'.join(map(str, args))}", mult, form))
    for b1 in BASE4_BS:
        form = one_stage_form(4, 1, (0, 1), {0: DigitSet(4, (0, 2)), 1: DigitSet(4, b1)}, (0, 2), (0, 1))
        forms.append((f"b4-{b1[1]}", 1, form))
    # Every form once per pass, so seeds differ in order, not in cost.
    rng.shuffle(forms)
    for tag, mult, form in forms:
        fpath = jl.write(f"{tag}.json", cli.one_stage_to_json(form))
        kinds = [
            ("verify-jp", ["--form", fpath, "--levels", 5, "--grid", 8, "--scale", mult]),
            ("weakly-periodic", ["--form", fpath]),
            ("check-lemma42", ["--form", fpath, "--p", 3]),
        ]
        rng.shuffle(kinds)
        for kind, args in kinds:
            jl.add(kind, args)


GENERATORS = {"stage-reduce": stage_reduce, "tile-sweep": tile_sweep, "frame-sums": frame_sums}


def generate(workload: str, seed: int, workdir: str) -> dict:
    """Write the input files and return the job list."""
    jl = JobList(workdir)
    GENERATORS[workload](jl, random.Random(f"{workload}:{seed}"))
    return {"workload": workload, "seed": seed, "jobs": jl.jobs}
