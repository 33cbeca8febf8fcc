import itertools
import random

import pytest

from spectralforge.digitsets import (
    DigitSet,
    ResidueClassSet,
    canonicalize,
    direct_sum,
    direct_sum_digits,
    gcd_normalize,
)
from spectralforge.errors import (
    BaseTooSmall,
    DistinctnessFailure,
    EmptyInput,
    ModulusMismatch,
    OverlapError,
)


def test_canonicalize_examples():
    assert canonicalize([2, 0], 4).digits == (0, 2)
    assert canonicalize([2, 0], 4).offset == 0
    d = canonicalize([5, 3, 9], 4)
    assert d.digits == (0, 2, 6) and d.offset == 3
    d2 = canonicalize([0, 1, 8, 9], 4)
    assert d2.digits == (0, 1, 8, 9) and d2.offset == 0


def test_canonicalize_errors():
    with pytest.raises(EmptyInput):
        canonicalize([], 4)
    with pytest.raises(BaseTooSmall):
        canonicalize([0, 1], 1)


def test_canonicalize_idempotent():
    rng = random.Random(11)
    for _ in range(200):
        raw = [rng.randrange(-50, 50) for _ in range(rng.randrange(1, 8))]
        base = rng.randrange(2, 12)
        once = canonicalize(raw, base)
        twice = canonicalize(once.digits, base)
        assert once.digits == twice.digits
        assert twice.offset == 0


def test_gcd_normalize_examples():
    d, g = gcd_normalize(canonicalize([0, 3, 24, 27], 4))
    assert d.digits == (0, 1, 8, 9) and g == 3
    d, g = gcd_normalize(canonicalize([0, 1, 8, 9], 4))
    assert d.digits == (0, 1, 8, 9) and g == 1
    # direct gcd computation, cross-checked against 3*{0,1,16,17}={0,3,48,51}
    d, g = gcd_normalize(canonicalize([0, 3, 72, 75], 24))
    assert d.digits == (0, 1, 24, 25) and g == 3
    assert tuple(3 * x for x in (0, 1, 16, 17)) == (0, 3, 48, 51)


def test_gcd_normalize_trivial_and_roundtrip():
    d, g = gcd_normalize(DigitSet(5, (0,)))
    assert d.digits == (0,) and g == 1
    rng = random.Random(5)
    for _ in range(100):
        scale = rng.randrange(1, 9)
        raw = sorted({0} | {scale * rng.randrange(1, 40) for _ in range(rng.randrange(1, 6))})
        d, g = gcd_normalize(DigitSet(6, tuple(raw)))
        assert tuple(g * x for x in d.digits) == tuple(raw)


def test_direct_sum_examples():
    a = ResidueClassSet(4, (0, 1))
    b = ResidueClassSet(4, (0, 2))
    s = direct_sum(a, b)
    assert s.residues == (0, 1, 2, 3)

    x = ResidueClassSet(7, (0, 3, 5))
    zero = ResidueClassSet(7, (0,))
    assert direct_sum(zero, x).residues == x.residues

    with pytest.raises(DistinctnessFailure):
        direct_sum(ResidueClassSet(4, (0, 2)), ResidueClassSet(4, (0, 2)))
    with pytest.raises(ModulusMismatch):
        direct_sum(ResidueClassSet(4, (0,)), ResidueClassSet(5, (0,)))


def test_complete_residue_examples():
    assert len(ResidueClassSet(4, (0, 1, 2, 3))) == 4
    reduced = ResidueClassSet(4, tuple({d % 4 for d in (0, 1, 8, 9)}))  # collisions collapse
    assert reduced.residues == (0, 1)
    assert len(reduced) < reduced.modulus


def test_72_complement_pair_is_complete():
    a = ResidueClassSet(72, (0, 8, 16, 18, 26, 34))
    b = ResidueClassSet(72, (0, 5, 6, 9, 12, 29, 33, 36, 42, 48, 53, 57))
    assert direct_sum(a, b).residues == tuple(range(72))


def test_direct_sum_cardinality_law():
    rng = random.Random(23)
    hits = 0
    while hits < 60:
        m = rng.randrange(4, 30)
        a = sorted(rng.sample(range(m), rng.randrange(1, 5)))
        b = sorted(rng.sample(range(m), rng.randrange(1, 5)))
        try:
            s = direct_sum(ResidueClassSet(m, tuple(a)), ResidueClassSet(m, tuple(b)))
        except DistinctnessFailure:
            continue
        hits += 1
        assert len(s) == len(a) * len(b)
        # brute-force cover check
        cover = {(x + y) % m for x in a for y in b}
        assert (len(s) == m) == (cover == set(range(m)))


def test_digit_tuple_helpers():
    assert direct_sum_digits((0, 1), (0, 4)) == (0, 1, 4, 5)
    with pytest.raises(OverlapError):
        direct_sum_digits((0, 2), (0, 2))
    # two-set witnesses are the (first, second) summand pairs
    with pytest.raises(OverlapError) as err:
        direct_sum_digits([0, 1], [0, 1])
    assert str(err.value) == "digit collision: 1 produced by (0, 1) and (1, 0)"
    with pytest.raises(OverlapError) as err:
        direct_sum_digits([0, 2, 5], [0, 3, 4])
    assert str(err.value) == "digit collision: 5 produced by (2, 3) and (5, 0)"


def test_direct_sum_overlap_witnesses():
    """A planted repeated sum among 2-4 sets is reported with two distinct
    (partial sum, summand) witnesses, each adding up to the digit."""
    rng = random.Random(8)
    for _ in range(200):
        sets = [rng.sample(range(-20, 40), rng.randrange(1, 5)) for _ in range(rng.randrange(2, 5))]
        sets[0].append(max(sets[0]) + 1)  # two choices in at least one set
        # plant x' with p' + x' == p + y, for two choices p, p' of the other sets
        picks = [rng.sample(s, 2) if len(s) > 1 else [s[0], s[0]] for s in sets[:-1]]
        p = sum(a for a, _ in picks)
        p2 = sum(b for _, b in picks)
        y = rng.choice(sets[-1])
        sets[-1] = sorted(set(sets[-1]) | {p + y - p2})
        with pytest.raises(OverlapError) as err:
            direct_sum_digits(*[sorted(s) for s in sets])
        exc = err.value
        # the digit repeats among the sums of some leading sets
        assert any(
            sum(sum(c) == exc.digit for c in itertools.product(*sets[:m])) >= 2
            for m in range(2, len(sets) + 1)
        )
        assert exc.first != exc.second
        assert sum(exc.first) == sum(exc.second) == exc.digit


def test_digitset_rejects_multisets():
    with pytest.raises(ValueError):
        DigitSet(4, (1, 1))
