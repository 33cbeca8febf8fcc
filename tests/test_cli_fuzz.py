"""A seeded fuzz of the command line's contract: whatever the input, a call
of ``cli.main`` returns exit code 0, 1 or 2 and prints exactly one JSON
document on stdout, and an error report names a SpectralForgeError subclass.

The inputs are well-formed files of each kind the commands read (digit sets,
one-stage and staged forms, zshift lists) and mutations of them: a missing
key or entry, a bool, a float, a huge integer, an empty list or object, a
string where a number goes, text that is not JSON.  Options take values at
and past their edges, and some argvs take the parser's other routes (no
command, an option first, an unknown command, a leftover argument).  Every call runs in process under an alarm whose
handler raises a BaseException, which ``main``'s ``except Exception`` cannot
absorb, so a hang fails the test instead of becoming a report.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import signal

import pytest

from spectralforge import errors
from spectralforge.cli import k_stage_to_json, main, one_stage_to_json
from spectralforge.cm_tiling import paq_type_generator
from spectralforge.digitsets import DigitSet
from spectralforge.productform import build_four_digit_form, one_stage_form

SEEDS = range(7)
CALLS_PER_SEED = 80
CALL_SECONDS = 10


class CallTimedOut(BaseException):
    """Raised by the alarm: not an Exception, so main() cannot report it."""


def _error_types() -> set[str]:
    names, todo = set(), [errors.SpectralForgeError]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo += cls.__subclasses__()
    return names


def _digits(base, digits):
    return {"base": base, "digits": [str(d) for d in digits]}


def _well_formed() -> dict[str, list]:
    """Input kind -> well-formed JSON objects of that kind."""
    _, f83 = build_four_digit_form(24, 1, 4, 1, 1)
    b4 = one_stage_form(4, 1, (0, 1), {0: DigitSet(4, (0, 2)), 1: DigitSet(4, (0, 6))}, (0, 2), (0, 1))
    rng = random.Random(600)
    # spectrum sums just above DIGIT_LIMIT = 2^15: 182 * 182 and 32 * 32 * 33 points
    ls = [[str(i) for i in range(size)] for size in (32, 33, 182)]
    wide_one = {"base": 4, "r": 1, "A": ["0", "1"], "Bs": {"0": ["0", "2"], "1": ["0", "2"]}, "L1": ls[2], "L2": ls[2]}
    wide_staged = {"base": 2, "ells": [1, 1], "E0": ["0"], "layers": [{"constant": ["0"]}] * 2, "Ls": [ls[0], ls[0], ls[1]]}
    return {
        "digits": [
            _digits(4, (0, 2)),
            _digits(4, (0, 1)),
            _digits(12, (0, 1, 5)),
            _digits(24, (0, 1, 16, 17)),
            _digits(10, (0, 3, 6)),
            {"base": 2, "digits": [0, 3, 7, 12, 40]},
            # a base with a prime above 2^20, which check-hadamard and
            # check-t1t2 prove and find-spectrum and check-tile refuse
            _digits((2**39 - 7) * 720720, (0, 1)),
            # a sparse mask of degree 9,999, just below FACTOR_DEGREE_LIMIT
            _digits(10**4, (0, 1, 9999)),
            # no "base": the file takes the command's --base
            {"digits": ["0", "1"]},
            {"digits": ["0", "2", "4"]},
        ],
        # sets of 600 digits at base 10^12, where 2N > |L|^2: check-hadamard
        # on two of them walks the pairs
        "sparse": [_digits(10**12, sorted(rng.sample(range(10**12), 600))) for _ in range(2)],
        "one-stage": [one_stage_to_json(f83), one_stage_to_json(b4), wide_one],
        "staged": [
            k_stage_to_json(paq_type_generator(2, 3, 2, "i").form),
            k_stage_to_json(paq_type_generator(2, 3, 2, "i", zshifts={(1, 0, 0): 1}).form),
            wide_staged,
        ],
        "zshifts": [
            [{"stage": 1, "parent": 0, "e": 0, "z": 1}],
            [{"stage": 1, "parent": 2, "e": 27, "z": 1}],
            [],
        ],
    }


# What a mutation puts in place of a value: bools, floats, huge integers,
# empty containers, strings that are no integer, and small edge integers.
REPLACEMENTS = [
    True, False, None, 1.5, -0.0, 10**30, "1" * 40, "-" + "9" * 40, [], {}, "", "abc", "1/2", 0, -7, 1,
]


def _paths(obj, prefix=()):
    """Every (path, value) in a JSON object, the root first."""
    yield prefix, obj
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _mutate(rng: random.Random, obj):
    """``obj`` with one random change: an entry dropped, doubled or replaced."""
    obj = copy.deepcopy(obj)
    path, _ = rng.choice(list(_paths(obj)))
    if not path:
        return rng.choice(REPLACEMENTS)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = rng.randrange(3)
    if action == 0:
        del parent[key]
    elif action == 1 and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = rng.choice(REPLACEMENTS)
    return obj


def _input_text(rng: random.Random, objects: list) -> str:
    """A well-formed object, one mutated up to three times, or broken text."""
    roll = rng.random()
    if roll < 0.05:
        return rng.choice(['{"base": 4, "digits": [', "", "[1, 2", "nan", '"digits"'])
    obj = rng.choice(objects)
    for _ in range(0 if roll < 0.5 else rng.randint(1, 3)):
        obj = _mutate(rng, obj)
    return json.dumps(obj)


def _value(rng: random.Random, usual: list, edges: list):
    """Mostly a usual value, else one at or past an edge."""
    return rng.choice(usual if rng.random() < 0.8 else edges)


def _pick(rng: random.Random, option: str, usual: list, edges: list) -> list[str]:
    """``option`` with a value from ``_value``; None leaves it out."""
    value = _value(rng, usual, edges)
    return [] if value is None else [option, value]


BASES = ["2", "4", "12", "24", "1", "0", "-4", "abc", "4.0", "1/2", str(10**12), str(2**70), str(2**61 - 1), str((2**39 - 7) * 720720)]


def _argv(rng: random.Random, command: str, write, texts: dict[str, str]) -> list[str]:
    """A call of ``command`` on freshly written inputs; ``write(kind)`` writes
    one input of that kind, keeps its text in ``texts`` and returns its path."""
    def base_for(path):
        # mostly the file's own base, so the command gets past the check
        try:
            own = str(json.loads(texts[path])["base"])
        except (ValueError, TypeError, KeyError):
            own = "4"
        return _value(rng, [own], BASES)

    if command in ("check-hadamard", "find-spectrum", "check-t1t2", "check-tile"):
        kind = "sparse" if command == "check-hadamard" and rng.random() < 0.5 else "digits"
        digits = write(kind)
        argv = [command, "--base", base_for(digits), "--digits", digits]
        if command == "check-hadamard":
            argv += ["--spectrum", write(kind)]
        if command == "find-spectrum":
            argv += _pick(rng, "--limit", [None, "1", "3"], ["0", "-1", str(10**9), "abc"])
        return argv
    if command == "factor-mask":
        return [command, "--digits", write("digits")]
    if command in ("validate-form", "gen-product-form"):
        return [command, "--spec", write(rng.choice(("one-stage", "staged")))]
    if command == "reduce-kstage":
        argv = [command, "--spec", write("staged")]
        return argv + _pick(rng, "--k", [None, "2", "3"], ["1", "0", "-2", str(10**9)])
    if command in ("verify-jp", "check-lemma42", "weakly-periodic"):
        argv = [command, "--form", write(_value(rng, ["one-stage"], ["staged"]))]
        if command == "verify-jp":
            argv += _pick(rng, "--levels", [None, "0", "1", "2", "3"], ["-1", "9", str(10**9), "x"])
            argv += _pick(rng, "--grid", [None, "1", "4"], ["0", "-2", "1024", str(2**20)])
            argv += _pick(rng, "--scale", [None, "1", "3", "1/2"], ["0", "-1", "1/0", "abc", "2.5"])
        if command == "check-lemma42":
            argv += _pick(rng, "--p", [None, "1", "2", "3"], ["0", "-1", "8", str(10**9)])
        return argv
    if command == "classify-paq":
        primes = (["2", "3", "5"], ["1", "0", "-3", "4", "x", str(2**61 - 1)])
        argv = [command, "--p", _value(rng, *primes), "--q", _value(rng, *primes)]
        argv += ["--alpha", _value(rng, ["1", "2", "3"], ["0", "-1", "40"])]
        argv += ["--variant", _value(rng, ["i", "ii", "iii"], ["iv", ""])]
        params = _value(rng, [None], [[], ["1"], ["0"], ["1", "2"], ["-1"], ["200"]])
        argv += [] if params is None else ["--params", *params]
        return argv + (["--zshifts", write("zshifts")] if rng.random() < 0.2 else [])
    assert command == "run-all-fixtures"
    return [command] + rng.choice([[], ["--base", "4"], ["extra"]])


def _route(rng: random.Random, argv: list[str]) -> list[str]:
    """Mostly ``argv`` as it is, else a shape that takes another route
    through the parser: no argv, an option before the command, an unknown
    command, or a leftover argument after a known one."""
    if rng.random() < 0.9:
        return argv
    return rng.choice([[], ["--output", "x.json", *argv], ["no-" + argv[0], *argv[1:]], [*argv, "--bogus"], [*argv, "x"]])


COMMANDS = [
    "check-hadamard", "find-spectrum", "validate-form", "gen-product-form", "reduce-kstage", "check-t1t2",
    "check-tile", "classify-paq", "factor-mask", "verify-jp", "check-lemma42", "weakly-periodic",
]


def _timed_out(signum, frame):
    raise CallTimedOut()


@pytest.mark.parametrize("seed", SEEDS)
def test_every_call_ends_in_one_json_report(seed, tmp_path):
    rng = random.Random(seed)
    objects = _well_formed()
    error_types = _error_types()
    texts: dict[str, str] = {}

    def write(kind: str) -> str:
        path = str(tmp_path / f"in{len(texts)}-{kind}.json")
        texts[path] = _input_text(rng, objects[kind])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(texts[path])
        return path

    calls = [rng.choice(COMMANDS) for _ in range(CALLS_PER_SEED - 1)] + ["run-all-fixtures"]
    previous = signal.signal(signal.SIGALRM, _timed_out)
    try:
        for command in calls:
            texts.clear()
            argv = _argv(rng, command, write, texts)
            if rng.random() < 0.1:
                argv += ["--output", str(tmp_path / rng.choice(["out.json", "missing/out.json"]))]
            argv = _route(rng, argv)
            where = f"argv {argv} with inputs {texts}"
            out = io.StringIO()
            signal.alarm(CALL_SECONDS)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
            except CallTimedOut:
                pytest.fail(f"no report within {CALL_SECONDS} s: {where}")
            finally:
                signal.alarm(0)
            assert code in (0, 1, 2), where
            try:
                report = json.loads(out.getvalue())  # one document, nothing after it
            except ValueError as exc:
                pytest.fail(f"stdout is not one JSON document ({exc}): {where}")
            assert isinstance(report, dict) and report["schema"] == "spectralforge-report/1", where
            if "error" in report:
                assert report["error"]["type"] in error_types, where
    finally:
        signal.signal(signal.SIGALRM, previous)
