import itertools
import math
import random
import sys
import time

import mpmath
import pytest

from spectralforge import hadamard
from spectralforge.cyclotomic import vanishing_by_division, vanishing_sum_test
from spectralforge.digitsets import DigitSet
from spectralforge.errors import HadamardFailure, SearchLimitReached
from spectralforge.hadamard import (
    FailureReport,
    check_triple,
    find_spectra,
    verify_triple,
    zero_set,
)
from spectralforge.measure import mask_value


def test_verify_triple_examples():
    t = verify_triple(4, DigitSet(4, (0, 2)), DigitSet(4, (0, 1)))
    assert t.base == 4
    assert check_triple(100, DigitSet(100, (0,)), DigitSet(100, (0,))) is None
    rep = check_triple(4, DigitSet(4, (0, 1, 8, 9)), DigitSet(4, (0, 1, 2, 3)))
    assert rep is not None and rep.kind == "DuplicateResidue"
    with pytest.raises(HadamardFailure):
        verify_triple(4, DigitSet(4, (0, 1)), DigitSet(4, (0, 1)))
    rep = check_triple(4, DigitSet(4, (0, 1)), DigitSet(4, (0, 1)))
    assert rep.kind == "OrthogonalityFailure"
    rep = check_triple(4, DigitSet(4, (0, 2)), DigitSet(4, (0, 1, 2)))
    assert rep.kind == "CardinalityMismatch"


# --- independent oracle for spectra: enumerate subsets, 30-digit sums ----


def _mp_zero_set(digits, n, dps=30):
    out = set()
    with mpmath.workdps(dps):
        for t in range(1, n):
            total = mpmath.mpc(0)
            for d in digits:
                total += mpmath.expjpi(2 * mpmath.mpf(d * t) / n)
            if abs(total) < mpmath.mpf(10) ** (-dps + 8):
                out.add(t)
    return out


def _oracle_spectra(n, digits):
    zs = _mp_zero_set(digits, n)
    size = len(digits)
    found = []
    for combo in itertools.combinations(range(1, n), size - 1):
        cand = (0,) + combo
        if all((b - a) % n in zs for a, b in itertools.combinations(cand, 2)):
            found.append(cand)
    if size == 1:
        found = [(0,)]
    return sorted(found)


def test_find_spectra_examples():
    got = [s.digits for s in find_spectra(4, DigitSet(4, (0, 2)))]
    assert (0, 1) in got and (0, 3) in got
    assert [s.digits for s in find_spectra(4, DigitSet(4, (0, 1)))] == [(0, 2)]
    assert find_spectra(24, DigitSet(24, (0, 1, 16, 17))) == []


def test_find_spectra_limit():
    full = find_spectra(8, DigitSet(8, (0, 4)))
    assert [s.digits for s in full] == [(0, 1), (0, 3), (0, 5), (0, 7)]
    capped = find_spectra(8, DigitSet(8, (0, 4)), limit=2)
    assert len(capped) == 2
    with pytest.raises(ValueError):
        find_spectra(8, DigitSet(8, (0, 4)), limit=0)


def test_find_spectra_stops_at_its_cap(monkeypatch):
    """{0, 512, 1024, 1536} mod 2,048 has 512^3 spectra: a search without a
    limit, or with one past SPECTRA_CAP, stops at the cap; a limit at the
    cap returns that many.  On a small set the cap is exact: at the count
    of spectra the search returns them all, one below it raises."""
    d = DigitSet(2048, (0, 512, 1024, 1536))
    cap = hadamard.SPECTRA_CAP
    for limit in (None, cap + 1):
        with pytest.raises(SearchLimitReached, match=f"SPECTRA_CAP = {cap} spectra"):
            find_spectra(2048, d, limit)
    assert len(find_spectra(2048, d, cap)) == cap
    monkeypatch.setattr(hadamard, "SPECTRA_CAP", 4)
    assert len(find_spectra(8, DigitSet(8, (0, 4)))) == 4
    monkeypatch.setattr(hadamard, "SPECTRA_CAP", 3)
    with pytest.raises(SearchLimitReached, match="SPECTRA_CAP = 3 spectra"):
        find_spectra(8, DigitSet(8, (0, 4)))
    assert len(find_spectra(8, DigitSet(8, (0, 4)), limit=3)) == 3


def test_find_spectra_complete_residue_system():
    # a complete system's only spectrum of full size is the whole group
    got = find_spectra(6, DigitSet(6, (0, 1, 2, 3, 4, 5)))
    assert [s.digits for s in got] == [(0, 1, 2, 3, 4, 5)]


def test_find_spectra_needs_no_recursion():
    """A clique of 120 vertices is found with only 60 frames to spare."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    d = DigitSet(240, tuple(range(0, 240, 2)))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        got = find_spectra(240, d, limit=1)
    finally:
        sys.setrecursionlimit(old)
    assert [s.digits for s in got] == [tuple(range(120))]


def test_find_spectra_against_bruteforce():
    """Deterministic corpus at every base up to 30 versus full enumeration:
    the search returns the spectra in sorted order, and with a limit the
    smallest ones."""
    rng = random.Random(404)
    for n in range(2, 31):
        cases = [(0, n - 1)] if n > 2 else [(0, 1)]
        for _ in range(6):
            size = rng.choice((1, 2, 3, 4))
            if size > n:
                continue
            digits = tuple(sorted(rng.sample(range(n), size)))
            cases.append(digits)
        for digits in cases:
            d = DigitSet(max(n, 2), digits)
            got = [s.digits for s in find_spectra(n, d)]
            want = _oracle_spectra(n, digits)
            assert got == want, (n, digits)
            for limit in (1, 2, 5):
                assert [s.digits for s in find_spectra(n, d, limit)] == want[:limit], (n, digits, limit)
            for s in got:
                assert check_triple(n, d, DigitSet(max(n, 2), s)) is None


def _random_valid_triples(count, seed=7, n_max=24):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randrange(2, n_max + 1)
        size = rng.choice((2, 2, 3, 4))
        if size > n:
            continue
        digits = tuple(sorted(rng.sample(range(n), size)))
        d = DigitSet(max(n, 2), digits)
        spectra = find_spectra(n, d, limit=4)
        if not spectra:
            continue
        out.append((n, d, rng.choice(spectra)))
    return out


TRIPLES = _random_valid_triples(120)


def test_transpose_symmetry():
    for n, d, l in TRIPLES:
        assert check_triple(n, d, l) is None
        assert check_triple(n, l, d) is None


def test_shift_invariance():
    rng = random.Random(31)
    for n, d, l in TRIPLES:
        c1, c2 = rng.randrange(-30, 30), rng.randrange(-30, 30)
        assert check_triple(n, d.shifted(c1), l) is None
        assert check_triple(n, d, l.shifted(c2)) is None


def test_matrix_unitarity_oracle():
    """Independent ground truth: build the actual exponential matrix and
    check unitarity numerically for a sample of exactly-verified triples."""
    import numpy as np

    sample = TRIPLES[:40] + [
        (4, DigitSet(4, (0, 2)), DigitSet(4, (0, 1))),
        (
            72,
            DigitSet(72, (0, 8, 16, 18, 26, 34)),
            DigitSet(72, (0, 18, 24, 42, 48, 66)),
        ),
    ]
    for n, d, l in sample:
        assert check_triple(n, d, l) is None
        m = len(d)
        mat = np.exp(
            2j * np.pi * np.outer(np.array(d.digits, float), np.array(l.digits, float)) / n
        ) / math.sqrt(m)
        gram = mat.conj().T @ mat
        assert np.max(np.abs(gram - np.eye(m))) < 1e-10, (n, d.digits, l.digits)


def test_lemma_3_1_float_crosscheck():
    """Exact certificate vs the unit partition of the squared masks."""
    rng = random.Random(77)
    for n, d, l in TRIPLES[:25]:
        for _ in range(12):
            xi = rng.random()
            total = sum(abs(mask_value(d, (xi + ell) / n)) ** 2 for ell in l.digits)
            assert abs(total - 1.0) < 1e-12


def test_zero_set_symmetry():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randrange(2, 40)
        digits = tuple(sorted(rng.sample(range(n), min(rng.randrange(1, 5), n))))
        zs = zero_set(DigitSet(max(n, 2), digits), n)
        assert all((n - t) % n in zs for t in zs)
        for t in list(zs)[:5]:
            assert vanishing_by_division(digits, t, n)


def _brute_differences(ls, n):
    return sorted({(b - a) % n for a, b in itertools.combinations(ls, 2)})


def _reference_check_triple(n, d, l):
    """check_triple as a plain walk over the pairs (i, j), i < j."""
    if len(d) != len(l):
        return FailureReport("CardinalityMismatch", witness=(len(d), len(l)))
    for which, digits in (("digits", d.digits), ("spectrum", l.digits)):
        for a, b in itertools.combinations(digits, 2):
            if (a - b) % n == 0:
                return FailureReport("DuplicateResidue", which, (a, b, n))
    if len(d) == n:
        return None
    for a, b in itertools.combinations(l.digits, 2):
        if not vanishing_sum_test(d, b - a, n):
            return FailureReport("OrthogonalityFailure", "spectrum pair", (a, b))
    return None


def _lifted(rng, n, digits):
    """The same residues mod n, each moved by a random multiple of n."""
    return tuple(x + n * rng.randrange(-2, 3) for x in digits)


def _moved(rng, n, digit_set):
    """A copy with one digit moved by a nonzero amount below n."""
    while True:
        digits = list(digit_set.digits)
        digits[rng.randrange(len(digits))] += rng.choice([k for k in range(-n + 1, n) if k])
        if len(set(digits)) == len(digits):
            return DigitSet(n, tuple(digits))


def _oracle_triples(count, seed):
    """Valid triples (N, D, L) from find_spectra with digits lifted off
    [0, N), half of them with D an arithmetic progression of step N / |D|,
    so that many reach the mask route; each followed by a copy with one
    digit of L (or, a third of the time, of D) moved."""
    rng = random.Random(seed)
    out = []
    while len(out) < 2 * count:
        n = rng.randrange(4, 49)
        if rng.random() < 0.5:
            size = rng.choice([k for k in range(2, n) if n % k == 0] or [2])
            unit = rng.choice([u for u in range(1, size + 1) if math.gcd(u, size) == 1])
            digits = tuple(n // size * (j * unit % size) for j in range(size))
        else:
            digits = tuple(rng.sample(range(n), rng.choice([k for k in (2, 3, 4, 6) if k < n])))
        spectra = find_spectra(n, DigitSet(n, tuple(sorted(digits))), limit=8)
        if not spectra:
            continue
        d = DigitSet(n, _lifted(rng, n, digits))
        l = DigitSet(n, _lifted(rng, n, rng.choice(spectra).digits))
        out.append((n, d, l))
        out.append((n, _moved(rng, n, d), l) if rng.random() < 1 / 3 else (n, d, _moved(rng, n, l)))
    return out


def _route(n, l):
    """The route check_triple takes for the differences of l mod n."""
    return "mask" if 2 * n <= len(l) ** 2 else "walk"


def test_check_triple_matches_the_pair_walk_on_random_triples():
    """The same report, kind, which and witness, as a walk over every pair,
    on valid triples and on copies with one digit moved, on both routes."""
    routes = {"mask": [0, 0], "walk": [0, 0]}
    for n, d, l in _oracle_triples(150, seed=21):
        got = check_triple(n, d, l)
        assert got == _reference_check_triple(n, d, l), (n, d.digits, l.digits)
        # the checks that reach the differences
        reached = got.kind == "OrthogonalityFailure" if got else len(d) != n
        routes[_route(n, l)][got is None] += reached
    # orthogonality failures and successes on each route
    assert min(min(counts) for counts in routes.values()) >= 10, routes


def test_mask_differences_match_brute_force():
    """The mask gives the ascending set of (b - a) % n over the pairs a
    before b, also for digits below 0 or at least n, and for residues that
    repeat (difference 0)."""
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(2, 200)
        ls = sorted(rng.sample(range(-3 * n, 3 * n), rng.randrange(1, min(6 * n, 40) + 1)))
        assert hadamard._differences_by_mask(ls, n) == _brute_differences(ls, n), (n, ls)


def _fresh(n, d, l):
    """check_triple on new copies of d and l, whose tables are empty."""
    return check_triple(n, DigitSet(d.base, d.digits), DigitSet(l.base, l.digits))


def test_modulus_facts_are_kept_per_modulus():
    """One L checked at three moduli, in every order: a DuplicateResidue at
    2, a pass at 4 and an OrthogonalityFailure at 8, each as fresh sets
    give it, and one entry per modulus."""
    d = DigitSet(8, (0, 1))
    want = {n: _fresh(n, d, DigitSet(8, (0, 2))) for n in (2, 4, 8)}
    assert want[2] == FailureReport("DuplicateResidue", "spectrum", (0, 2, 2))
    assert want[4] is None
    assert want[8] == FailureReport("OrthogonalityFailure", "spectrum pair", (0, 2))
    for order in itertools.permutations((2, 4, 8)):
        l = DigitSet(8, (0, 2))
        for n in order + order:
            assert check_triple(n, d, l) == want[n], (order, n)
        assert sorted(l.modulus_facts) == [2, 4, 8]


def test_warm_tables_name_the_pair_a_cold_check_names():
    """The oracle triples in order, so the moved copy of a triple that
    keeps its L finds that L's tables filled: every report equals the one
    fresh sets give, orthogonality failures among them."""
    warm_failures = 0
    for n, d, l in _oracle_triples(150, seed=22):
        warm = n in l.modulus_facts
        got = check_triple(n, d, l)
        assert got == _fresh(n, d, l), (n, d.digits, l.digits)
        warm_failures += warm and got is not None and got.kind == "OrthogonalityFailure"
    assert warm_failures >= 10


def _sparse_pair(size, seed):
    """Two seeded sets of ``size`` distinct digits below N = 10^12, where
    2N > size^2, so their differences come from the walk."""
    rng = random.Random(seed)
    n = 10**12
    return n, DigitSet(n, tuple(rng.sample(range(n), size))), DigitSet(n, tuple(rng.sample(range(n), size)))


def test_a_failing_check_on_a_sparse_modulus_stops_at_its_witness():
    """The walk ends at the first failing pair: it keeps no difference list
    for l, and it names the pair a walk over every pair names; the
    3,000-digit pair, 4.5 million differences, is decided in under 1 s."""
    n, d, l = _sparse_pair(300, seed=3)
    got = check_triple(n, d, l)
    assert got is not None and got.kind == "OrthogonalityFailure"
    assert got == _reference_check_triple(n, d, l)
    assert l.modulus_facts[n][1] is None
    n, d, l = _sparse_pair(3000, seed=4)
    t0 = time.perf_counter()
    got = check_triple(n, d, l)
    took = time.perf_counter() - t0
    first = next((a, b) for a, b in itertools.combinations(l.digits, 2) if not vanishing_sum_test(d, b - a, n))
    assert got == FailureReport("OrthogonalityFailure", "spectrum pair", first)
    assert took < 1.0, took


@pytest.mark.parametrize(
    "n, d, l, route",
    [
        # 2 * 48 <= 12^2: the differences come from the mask, ascending
        (48, tuple(range(0, 48, 4)), (0, 1, 2, 6, 10, 27, 29, 32, 40, 43, 45, 47), "mask"),
        # the Z_72 tiling pair: 2 * 72 > 6^2, so from the walk, in pair order
        (72, (0, 8, 16, 18, 26, 34), (0, 18, 24, 42, 48, 66), "walk"),
    ],
)
def test_check_triple_tests_each_distinct_difference_once(monkeypatch, n, d, l, route):
    calls, masks = [], []
    real_test, real_mask = hadamard.vanishing_sum_test, hadamard._differences_by_mask
    monkeypatch.setattr(hadamard, "vanishing_sum_test", lambda d_set, t, m: calls.append(t) or real_test(d_set, t, m))
    monkeypatch.setattr(hadamard, "_differences_by_mask", lambda ls, m: masks.append(ls) or real_mask(ls, m))
    l_set = DigitSet(n, l)
    assert check_triple(n, DigitSet(n, d), l_set) is None
    assert _route(n, l) == route and len(masks) == (route == "mask")
    want = _brute_differences(l, n)
    assert (calls if route == "mask" else sorted(calls)) == want
    assert len(calls) > len(l)
    # the list is kept: a second check against l makes the same tests in
    # ascending order and builds nothing
    calls.clear()
    assert check_triple(n, DigitSet(n, d), l_set) is None
    assert calls == want and len(masks) == (route == "mask")
