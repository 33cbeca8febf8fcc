import dataclasses
import json
import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from spectralforge.digitsets import DigitSet, direct_sum_digits
from spectralforge.errors import OverlapError, PointLimitExceeded, ShiftSearchFailure, TailBoundUnavailable
from spectralforge import cli, measure
from spectralforge.measure import (
    FLAG_THRESHOLD,
    MEMBERSHIP_THRESHOLD,
    SAMPLE_BITS,
    TruncatedMeasure,
    auto_depth,
    build_spectrum,
    chebyshev_grid,
    finite_level_identity_check,
    jp_levels,
    jp_sum,
    mask_value,
    mask_value_rational,
    weakly_periodic_check,
)
from spectralforge.cm_tiling import paq_type_generator
from spectralforge.productform import (
    build_four_digit_form,
    expand_one_stage,
    is_normalized,
    k_stage_to_one_stage,
    one_stage_form,
    translate_and_gcd_normalize,
)


def _form14():
    return one_stage_form(
        4, 1, (0, 1), {0: DigitSet(4, (0, 2)), 1: DigitSet(4, (0, 6))}, (0, 2), (0, 1)
    )


def _form23():
    return one_stage_form(
        4, 1, (0, 1), {0: DigitSet(4, (0, 2)), 1: DigitSet(4, (0, 2))}, (0, 2), (0, 1)
    )


def _normalized_plain():
    """The two-digit base-4 pair as a product form, then normalized."""
    f = one_stage_form(4, 1, (0, 2), {0: DigitSet(4, (0,)), 2: DigitSet(4, (0,))}, (0, 1), (0,))
    norm, _, g = translate_and_gcd_normalize(f)
    assert g == 2
    return norm


def test_mask_value_examples():
    assert mask_value(DigitSet(4, (0, 2)), 0.0) == 1.0
    assert abs(mask_value(DigitSet(4, (0, 2)), 0.25)) < 1e-15
    # high-precision summation oracle
    v = mask_value(DigitSet(4, (0, 1, 8, 9)), 0.25)
    with mpmath.workdps(50):
        hp = sum(mpmath.e ** (-2j * mpmath.pi * d * mpmath.mpf(0.25)) for d in (0, 1, 8, 9)) / 4
    assert abs(v - complex(hp)) < 1e-13
    # product structure of the mask of {0,1,8,9}: (1+e(-x))(1+e(-8x))/4
    x = 0.3173
    lhs = mask_value(DigitSet(4, (0, 1, 8, 9)), x)
    rhs = mask_value(DigitSet(4, (0, 1)), x) * mask_value(DigitSet(4, (0, 8)), x) * 4 / 4
    assert abs(lhs - rhs * 1.0) < 1e-13


def test_mask_value_rational_matches_float():
    rng = random.Random(5)
    for _ in range(100):
        digits = tuple(sorted(rng.sample(range(0, 60), rng.randrange(1, 6))))
        num, den = rng.randrange(0, 400), rng.randrange(1, 100)
        a = mask_value_rational(digits, num, den)
        b = mask_value(digits, num / den)
        assert abs(a - b) < 1e-9


def test_truncated_measure_invariants():
    tm = TruncatedMeasure(4, DigitSet(4, (0, 2)), 6)
    assert tm.mu_hat(0.0) == 1.0
    xs = np.array([0.13, 0.77, 3.9])
    per = np.abs(tm.mu_hat(xs + 4.0**6) - tm.mu_hat(xs))
    assert per.max() < 1e-12


def test_mu_hat_rational_matches_float_path():
    tm = TruncatedMeasure(24, DigitSet(24, (0, 3, 48, 51)), 12)
    rng = random.Random(8)
    for _ in range(50):
        num, den = rng.randrange(0, 2000), rng.randrange(1, 48)
        a = tm.mu_hat_rational(num, den)
        b = tm.mu_hat(num / den)
        assert abs(a - b) < 1e-9


def test_auto_depth_controls_tail():
    depth = auto_depth(4, DigitSet(4, (0, 2)), 100.0, 1e-14)
    tm = TruncatedMeasure(4, DigitSet(4, (0, 2)), depth)
    assert tm.tail_sum(100.0) < 1e-13


def test_auto_depth_rejects_infinite_height():
    with pytest.raises(TailBoundUnavailable):
        auto_depth(4, DigitSet(4, (0, 2)), math.inf)


def _mp_abs2(base, digits, xi, depth):
    """|mu_hat(xi)|^2 truncated at ``depth``, in mpmath at the working precision."""
    acc = mpmath.mpf(1)
    for j in range(1, depth + 1):
        y = xi / mpmath.mpf(base) ** j
        c = mpmath.fsum(mpmath.cos(2 * mpmath.pi * d * y) for d in digits)
        s = mpmath.fsum(mpmath.sin(2 * mpmath.pi * d * y) for d in digits)
        acc *= (c * c + s * s) / len(digits) ** 2
    return acc


def test_auto_depth_bounds_the_magnitude_from_one_side():
    """At p = auto_depth, 40 more factors keep each |mu_hat|^2 in
    [(1 - S) |mu_hat_p|^2, |mu_hat_p|^2] with S the tail sum (1 - S taken in
    mpmath: in floats it rounds past the tight cases), and p - 1 fails the
    bound, over random bases, digits, heights and targets.  The bound is
    tight: some case loses more than 0.99 S."""
    rng = random.Random(42)
    tightest = 0.0
    with mpmath.workdps(50):
        for _ in range(100):
            base = rng.randrange(2, 31)
            spread = int(10 ** rng.uniform(0, 4))
            digits = DigitSet(base, tuple(rng.sample(range(-spread - 3, spread + 4), rng.randrange(2, 7))))
            height = 10 ** rng.uniform(-1, 8)
            target = 10 ** rng.uniform(-15, -2)
            p = auto_depth(base, digits, height, target)
            s = TruncatedMeasure(base, digits, p).tail_sum(height)
            assert s < target
            assert p == 1 or TruncatedMeasure(base, digits, p - 1).tail_sum(height) >= target
            for xi in (height, rng.uniform(-height, height)):
                x = mpmath.mpf(xi)
                trunc = _mp_abs2(base, digits.digits, x, p)
                deeper = trunc * _mp_abs2(base, digits.digits, x / mpmath.mpf(base) ** p, 40)
                assert (1 - mpmath.mpf(s)) * trunc <= deeper <= trunc * (1 + mpmath.mpf(10) ** -40), (
                    base, digits, height, target, xi)
                if trunc > 1e-30:
                    tightest = max(tightest, float((1 - deeper / trunc) / s))
    assert tightest > 0.99


def test_tail_bound_ignores_translation_and_refuses_an_infinite_spread():
    """S depends on the digits' spread alone, so a translated digit set
    truncates at the same depth; a spread past the doubles has no bound."""
    digits = DigitSet(24, (0, 1, 16, 17))
    assert auto_depth(24, digits.shifted(10**9), 1e4) == auto_depth(24, digits, 1e4)
    assert DigitSet(4, (5,)).deviation_bound == 1.0
    with pytest.raises(TailBoundUnavailable):
        auto_depth(4, DigitSet(4, (0, 2**1100)), 1.0)


def test_finite_level_identity_examples():
    for f in (_form14(), _form23()):
        for p in (1, 2, 3):
            dev = finite_level_identity_check(f, p, chebyshev_grid(64))
            assert dev < 1e-9
    # degenerate single-branch case reduces to the unit partition
    norm = _normalized_plain()
    assert finite_level_identity_check(norm, 2, chebyshev_grid(16)) < 1e-10


def test_finite_level_identity_is_accurate():
    """The aggregate's phases are exact on the kernel; a float transform at
    xi + gamma gave 1.25e-11 and 1.06e-11 on these two forms."""
    for args in ((24, 3, 5, 1, 3), (48, 5, 6, 3, 1)):
        _, form = build_four_digit_form(*args)
        assert finite_level_identity_check(form, 3, chebyshev_grid(64)) < 1e-13


def test_finite_level_identity_holds_for_digits_past_1e8():
    """N = 4, A = {0, 1}, B_1 = {0, 2 + 4*10^e}: the samples enter at their
    exact dyadic values and the B-energy from exact phases too.  Float
    phases of the samples give 1.9e-7, 6.1e-4 and 0.32 at e = 8, 12 and
    15."""
    for e in (8, 12, 15):
        b1 = DigitSet(4, (0, 2 + 4 * 10**e))
        form = one_stage_form(4, 1, (0, 1), {0: DigitSet(4, (0, 2)), 1: b1}, (0, 2), (0, 1))
        assert finite_level_identity_check(form, 2, chebyshev_grid(64)) < 1e-14, e


def test_lemma42_samples_keep_a_small_denominator(monkeypatch):
    """fd24-601-4-1-1 has digits up to 1,851.  check-lemma42's samples reach
    the kernel over a divisor of 2^SAMPLE_BITS, so every sample unit of
    every measure it sums (the form's factors and each N^q-scaled B) takes
    the int64 route; unrounded Chebyshev points had the denominator 2^54,
    and a digit of 512 or more sent them down the per-entry route."""
    _, form = build_four_digit_form(24, 601, 4, 1, 1)
    assert max(measure.form_measure(form).digits.digits) == 1851
    seen = []
    row_sums = measure._row_sums

    def kept(measures, rows, cols, counts=()):
        seen.append((measures, rows))
        return row_sums(measures, rows, cols, counts)

    monkeypatch.setattr(measure, "_row_sums", kept)
    assert finite_level_identity_check(form, 3, chebyshev_grid(64)) < 1e-13
    assert len(seen) == 3
    for measures, rows in seen:
        assert (1 << SAMPLE_BITS) % rows.den == 0 and rows.bound < rows.den
        top = max(abs(d) for m in measures for f in m.factors for d in f.digits)
        assert top * rows.bound < 2**63, top


def test_finite_level_identity_requires_normalized():
    f = one_stage_form(4, 1, (0, 1), {0: DigitSet(4, (2, 4)), 1: DigitSet(4, (0, 6))}, (0, 2), (0, 1))
    with pytest.raises(ValueError):
        finite_level_identity_check(f, 1, [0.0])


def test_build_spectrum_classical():
    norm = _normalized_plain()
    cand = build_spectrum(norm, levels=4, scale=Fraction(1, 2))
    # all shifts zero; the scaled points are the classical pattern
    assert {s for _, s in cand.shifts} == {0}
    assert cand.points(2)[:4] == [Fraction(0), Fraction(1), Fraction(4), Fraction(5)]
    # nested and anchored
    for k in range(1, 5):
        lam = cand.lambdas(k)
        assert 0 in lam
        assert set(cand.lambdas(k - 1)) <= set(lam)
    assert build_spectrum(norm, levels=0).lambdas() == (0,)


def test_candidate_points_match_fraction_arithmetic():
    """points(k) builds integer numerators over one denominator; it must
    give the distinct values scale * (fs + lam) of Fraction arithmetic."""
    _, f83 = build_four_digit_form(24, 1, 4, 1, 1)
    # each scale divides the form's expansion: 3 divides {0, 3, 48, 51}, not {0, 1, 8, 25}
    for form, scales in ((f83, "1 3 1/2 3/2"), (_form14(), "1 1/2")):
        for scale in map(Fraction, scales.split()):
            cand = build_spectrum(form, levels=3, scale=scale)
            for k in range(4):
                want = sorted({scale * (fs + lam) for lam in cand.lambdas(k) for fs in cand.frac_shifts})
                got = cand.points(k)
                assert got == want, (form.base, scale, k)
                assert all(type(p) is Fraction for p in got)


def test_jp_sum_counts_each_distinct_point_once():
    """Shuffled points with repeats give the rows of the sorted distinct
    points bit for bit."""
    _, f83 = build_four_digit_form(24, 1, 4, 1, 1)
    cand = build_spectrum(f83, levels=2, scale=Fraction(3))
    digits = DigitSet(24, (0, 1, 16, 17))
    pts = cand.points(2)
    rng = random.Random(5)
    messy = pts + rng.sample(pts, 7) + [p * 1 for p in pts[:3]]
    rng.shuffle(messy)
    xis = [0.0, 0.3, Fraction(5, 9)]
    rows, again = jp_sum(digits, 24, pts, xis), jp_sum(digits, 24, messy, xis)
    assert [r.count for r in again] == [len(set(messy))] * len(xis) == [len(pts)] * len(xis)
    assert [(r.xi.hex(), r.q_t.hex()) for r in again] == [(r.xi.hex(), r.q_t.hex()) for r in rows]


def test_build_spectrum_83_candidate_orthogonality():
    mult, f83 = build_four_digit_form(24, 1, 4, 1, 1)
    cand = build_spectrum(f83, levels=3, scale=Fraction(3))
    d83 = DigitSet(24, (0, 1, 16, 17))
    pts = cand.points()
    rng = random.Random(17)
    pairs = 0
    while pairs < 100:
        a, b = rng.sample(pts, 2)
        if a == b:
            continue
        gap = a - b
        trunc = TruncatedMeasure(24, d83, auto_depth(24, d83, abs(float(gap)) + 1.0))
        val = abs(trunc.mu_hat_rational(gap.numerator, gap.denominator))
        assert val < 1e-8, (a, b, val)
        pairs += 1


def test_jp_rows_bessel_monotone_and_targets():
    mult, f83 = build_four_digit_form(24, 1, 4, 1, 1)
    cand = build_spectrum(f83, levels=4, scale=Fraction(3))
    d83 = DigitSet(24, (0, 1, 16, 17))
    for xi in (0.0, 0.3, 0.7):
        prev = 0.0
        for k in range(0, 5):
            row = jp_sum(d83, 24, cand.points(k), [xi])[0]
            assert row.q_t <= 1 + 1e-9
            assert row.q_t >= prev - 1e-12
            prev = row.q_t
        assert 1.0 - prev < 2e-4


def test_jp_derived_depth_matches_deeper_truncation():
    """jp_sum truncates where the tail bound says the dropped factors no
    longer matter: eight more factors move no Q_T by 1e-13."""
    _, f83 = build_four_digit_form(24, 1, 4, 1, 1)
    cases = [
        (DigitSet(24, (0, 1, 16, 17)), 24, build_spectrum(f83, levels=3, scale=Fraction(3))),
        (DigitSet(4, (0, 1, 8, 25)), 4, build_spectrum(_form14(), levels=3)),
    ]
    for digits, base, cand in cases:
        pts = cand.points(3)
        auto = auto_depth(base, digits, max(abs(float(p)) for p in pts) + 2.0)
        deeper = TruncatedMeasure(base, digits, auto + 8)
        for xi in (Fraction(0), Fraction(3, 10), Fraction(7, 10)):
            q_t = jp_sum(digits, base, pts, [xi])[0].q_t
            ref = math.fsum(
                abs(deeper.mu_hat_rational((xi + p).numerator, (xi + p).denominator)) ** 2
                for p in pts
            )
            assert abs(q_t - ref) < 1e-13, (base, xi, q_t - ref)


def test_jp_integer_part_bounded_by_mask_energy():
    """Integer-level sums stay below the averaged B-mask energy, at every
    level of the nested construction."""
    mult, f83 = build_four_digit_form(24, 1, 4, 1, 1)
    cand = build_spectrum(f83, levels=3)
    d_form = DigitSet(24, (0, 3, 48, 51))
    b_list = f83.b_list()
    for xi in (0.0, 0.21, 0.64):
        target = sum(abs(mask_value(b, xi)) ** 2 for b in b_list) / len(b_list)
        for k in range(0, 4):
            rows = jp_sum(d_form, 24, [Fraction(x) for x in cand.lambdas(k)], [xi])
            assert rows[0].q_t <= target + 1e-9


def _jp_reference(digits, base, points, xi_samples):
    """Q_T per sample as one exact-phase transform per (sample, point) pair."""
    pts = sorted(set(points))
    height = max((abs(float(p)) for p in pts), default=0.0) + 2.0
    trunc = TruncatedMeasure(base, digits, auto_depth(base, digits, height))
    out = []
    for x in xi_samples:
        x = x if isinstance(x, Fraction) else Fraction(x).limit_denominator(10**12)
        out.append(math.fsum(
            abs(trunc.mu_hat_rational((x + p).numerator, (x + p).denominator)) ** 2 for p in pts
        ))
    return out


def _assert_jp_matches_reference(digits, base, points, xi_samples):
    rows = jp_sum(digits, base, points, xi_samples)
    ref = _jp_reference(digits, base, points, xi_samples)
    assert [r.count for r in rows] == [len(set(points))] * len(xi_samples)
    for row, q in zip(rows, ref):
        assert abs(row.q_t - q) <= 1e-14, (base, row.xi, row.q_t - q)


def test_jp_sum_matches_pointwise_oracle_on_random_points():
    rng = random.Random(9)
    for base in (3, 4, 7):
        digits = DigitSet(base, tuple(sorted(rng.sample(range(-10, 30), 3))))
        points = [Fraction(rng.randrange(-300, 300), rng.choice((1, 2, 3, 6, 12))) for _ in range(150)]
        _assert_jp_matches_reference(digits, base, points, [0.0, 0.13, Fraction(2, 7), 0.91, -0.4])


def test_jp_sum_matches_pointwise_oracle_on_scaled_candidates():
    _, f83 = build_four_digit_form(24, 1, 4, 1, 1)
    expansion = (0, 3, 48, 51)
    for scale in (Fraction(1, 3), Fraction(3)):
        digits = DigitSet(24, tuple(x * scale.denominator // scale.numerator for x in expansion))
        cand = build_spectrum(f83, levels=3, scale=scale)
        _assert_jp_matches_reference(digits, 24, cand.points(3), chebyshev_grid(5))


def test_jp_sum_matches_pointwise_oracle_at_height_1e8():
    """den * N^j leaves int64 here, for the points (den 72) and the samples.

    Near t * 24^7 (about 4.6e9 * t) the transform is about |mu_hat(t)|, not
    small, so float phases would show: their first factor is off by up to
    2e-6.
    """
    digits = DigitSet(24, (0, 1, 16, 17))
    points = [s * (24**7 * t + Fraction(k, 72)) for s in (1, -1) for t in (1, 2) for k in range(0, 72, 9)]
    assert 72 * 24 ** auto_depth(24, digits, 1e10) > 2**63
    _assert_jp_matches_reference(digits, 24, points, [0.0, 0.37, Fraction(5, 9)])
    # a common denominator whose numerators leave int64 on their own
    points = [24**6 + Fraction(k, 10**12 + 39) for k in range(0, 10**12, 10**11)]
    _assert_jp_matches_reference(digits, 24, points, [0.21])


def test_jp_sum_one_sample_and_no_points():
    digits = DigitSet(4, (0, 1, 8, 25))
    _assert_jp_matches_reference(digits, 4, [Fraction(-3, 2), Fraction(5)], [0.3])
    rows = jp_sum(digits, 4, [], [0.3, 0.6])
    assert [(r.count, r.q_t) for r in rows] == [(0, 0.0), (0, 0.0)]
    assert jp_sum(digits, 4, [Fraction(1)], []) == []


def test_jp_sum_point_zero_with_a_digit_past_int64():
    """Every point 0 gives the exact side the bound 0; a digit of 2^70 must
    still take the Python-int route, not overflow int64."""
    digits = DigitSet(4, (0, 2**70))
    rows = jp_sum(digits, 4, [Fraction(0)], [0.3])
    assert len(rows) == 1 and rows[0].count == 1 and 0.0 <= rows[0].q_t <= 1.0
    _assert_jp_matches_reference(digits, 4, [Fraction(0)], [Fraction(3, 10)])


def test_unit_roots_equal_complex_exponential():
    """cos/sin of theta give, element for element, the complex exponentials
    the kernel's two sides and mask_value used to take."""
    rng = np.random.default_rng(24)
    size = 1 << 17
    phase = np.where(rng.random(size) < 0.5, -1.0, 1.0) * 10.0 ** rng.uniform(-13, 11, size)
    assert np.array_equal(measure._unit_roots((-2 * np.pi) * phase), np.exp(-2j * np.pi * phase))
    x = np.where(rng.random(size) < 0.5, -1.0, 1.0) * 10.0 ** rng.uniform(-13, 6, size)
    for d in (-7, -1, 1, 3, 12345):
        old = np.exp(-2j * np.pi * float(d) * x)
        assert np.array_equal(measure._unit_roots((-2 * np.pi * float(d)) * x), old)


def _old_split_phase_abs(m, rows, cols):
    """The kernel before the zero digit was skipped: one complex
    exponential per digit, side, level and entry, digit by digit, each
    factor's mask its per-digit exponential sum over |F|, and the running
    product taken factor by factor."""

    def units(side, j, d, part):
        mod = side.den * m.base**j
        x = side.nums[part]
        if max(abs(d), 1) * max(side.bound, 1) < 2**63:
            prod = d * x
            phase = (prod % mod) / mod if mod < 2**63 else prod / float(mod)
        else:
            phase = np.array([(d * v) % mod / mod for v in x.tolist()], dtype=float)
        return np.exp(-2j * np.pi * phase)

    for rs, cs in measure._tiles(len(rows), len(cols)):
        prod = np.ones((rs.stop - rs.start, cs.stop - cs.start), dtype=complex)
        for j in range(1, m.depth + 1):
            for factor in m.factors:
                ds = factor.digits
                level = np.multiply.outer(units(rows, j, ds[0], rs), units(cols, j, ds[0], cs))
                for d in ds[1:]:
                    level += np.multiply.outer(units(rows, j, d, rs), units(cols, j, d, cs))
                level.view(float)[...] /= len(ds)
                prod = prod * level
        yield rs, cs, np.abs(prod)


def test_split_phase_kernel_equals_per_digit_exponentials():
    """Skipping the zero digit and taking each side's units of all digits
    and of a block of levels in one cos/sin pass leave every magnitude bit
    for bit.  The large sides take one level per block, bar their partial
    tiles; small calls of a few shifts against a sample or two, as the
    scan's climbs and the shift search make (4 shifts x 1 sample, 124 x
    2), take every level to depth 26 in one block."""
    rng = random.Random(24)
    samples = measure._RationalSide.of([Fraction(rng.uniform(-3, 3)) for _ in range(97)])
    exact = measure._RationalSide.of([Fraction(rng.randrange(-10**6, 10**6), 72) for _ in range(113)])
    shifts = measure._RationalSide(1, range(-40, 41))
    ladder = measure._RationalSide(1, sorted(range(-64, 65), key=abs))
    assert len(samples) * len(exact) > measure._TILE_PAIRS
    assert 124 * 2 * 26 <= measure._TILE_PAIRS
    # the last set sends 5 and -2^61 by different routes, on the small
    # sides too, inside a block of levels; past depth 13, den * 24^j leaves
    # int64 too
    digit_sets = [(0, 1, 8, 9), (-3, 0, 2, 5), (1, 2, 7, 10), (0,), (-(2**61), 0, 5)]
    sides = [(samples, exact), (exact, samples), (shifts, samples), (exact, exact[:40])]
    sides += [(ladder[:4], samples[:1]), (ladder[5:], samples[:2]), (ladder[1:5], exact[:1])]
    for digits in digit_sets:
        m = TruncatedMeasure(24, DigitSet(24, digits), 1)
        for rows, cols in sides:
            for depth in (1, 3, 5, 6, 13, 14, 17, 26):
                md = dataclasses.replace(m, depth=depth)
                new = list(measure._split_phase_abs(md, rows, cols))
                old = list(_old_split_phase_abs(md, rows, cols))
                assert len(new) == len(old) > 0
                for (rs, cs, mag), (rs0, cs0, mag0) in zip(new, old):
                    assert (rs, cs) == (rs0, cs0)
                    assert (mag == mag0).all(), (digits, depth)


def test_factored_kernel_equals_the_product_of_per_factor_exponentials():
    """A measure with direct-sum factors: every magnitude equals the
    product over the factors of their per-digit exponential sums, each
    over |F|, bit for bit, on the sides and depths of the unfactored test
    above.  The factors take both kinds of size: a power of two |F|, whose
    1/|F| weighs the row units, and |F| = 3, whose sum is divided; the
    last measure sends -2^61 by the per-digit route."""
    rng = random.Random(31)
    samples = measure._RationalSide.of([Fraction(rng.uniform(-3, 3)) for _ in range(97)])
    exact = measure._RationalSide.of([Fraction(rng.randrange(-10**6, 10**6), 72) for _ in range(113)])
    shifts = measure._RationalSide(1, range(-40, 41))
    ladder = measure._RationalSide(1, sorted(range(-64, 65), key=abs))
    factor_sets = [
        ((0, 1), (0, 8)),
        ((0, 3), (0, 24 * 5)),
        ((-3, 0), (0, 40), (0, 480)),
        ((0, 1, 2), (0, 24, 48)),
        ((1, 2), (0, 24, 48, 72)),
        ((0, 5), (0, -(2**61))),
    ]
    sides = [(samples, exact), (exact, samples), (shifts, samples), (exact, exact[:40])]
    sides += [(ladder[:4], samples[:1]), (ladder[5:], samples[:2]), (ladder[1:5], exact[:1])]
    for parts in factor_sets:
        factors = tuple(DigitSet(24, part) for part in parts)
        digits = DigitSet(24, direct_sum_digits(*parts))
        m = TruncatedMeasure(24, digits, 1, factors)
        for rows, cols in sides:
            for depth in (1, 3, 5, 6, 13, 14, 17, 26):
                md = dataclasses.replace(m, depth=depth)
                new = list(measure._split_phase_abs(md, rows, cols))
                old = list(_old_split_phase_abs(md, rows, cols))
                assert len(new) == len(old) > 0
                for (rs, cs, mag), (rs0, cs0, mag0) in zip(new, old):
                    assert (rs, cs) == (rs0, cs0)
                    assert (mag == mag0).all(), (parts, depth)


def test_truncated_measure_checks_its_factors():
    """Factors whose sums are not the digits, each once, are refused: a
    wrong sum, and a sum made twice."""
    digits = DigitSet(4, (0, 1, 8, 9))
    assert TruncatedMeasure(4, digits, 2).factors == (digits,)
    TruncatedMeasure(4, digits, 2, (DigitSet(4, (0, 8)), DigitSet(4, (0, 1))))
    with pytest.raises(ValueError):
        TruncatedMeasure(4, digits, 2, (DigitSet(4, (0, 1)), DigitSet(4, (0, 9))))
    with pytest.raises(ValueError):
        TruncatedMeasure(4, digits, 2, (DigitSet(4, (0, 1)), DigitSet(4, (0, 1, 8))))


def test_kernel_pair_value_does_not_depend_on_the_call_shape():
    """Each pair of a 5 x 4 call equals the same pair computed alone (a
    1 x 1 call) and in its 5 x 1 column, bit for bit, over 30 random
    measures.  numpy rounds an in-place complex product of one element by
    its own formula: with the running product taken in place, 326 of these
    600 one-pair values differed by an ulp from the 5 x 4 call's."""
    rng = random.Random(30)
    for _ in range(30):
        base = rng.randrange(2, 25)
        digits = DigitSet(base, tuple(rng.sample(range(-200000, 200000), rng.randrange(2, 6))))
        m = TruncatedMeasure(base, digits, rng.randrange(1, 19))
        rows = measure._RationalSide.of([Fraction(rng.randrange(-10**6, 10**6), 72) for _ in range(5)])
        cols = measure._RationalSide.of([Fraction(rng.randrange(-10**4, 10**4), 7) for _ in range(4)])
        ((_, _, full),) = measure._split_phase_abs(m, rows, cols)
        for c in range(4):
            ((_, _, column),) = measure._split_phase_abs(m, rows, cols[c : c + 1])
            assert column[:, 0].tolist() == full[:, c].tolist(), (base, digits, m.depth, c)
            for r in range(5):
                ((_, _, alone),) = measure._split_phase_abs(m, rows[r : r + 1], cols[c : c + 1])
                assert alone[0, 0] == full[r, c], (base, digits, m.depth, r, c)


def test_factored_pair_value_does_not_depend_on_the_call_shape():
    """As above, on 30 random measures with two or three direct-sum
    factors, A (+) M*B (+) M^2*C with A, B, C in [0, M) and each of sizes 1
    to 4: each pair of a 5 x 4 call equals the same pair alone, bit for
    bit."""
    rng = random.Random(32)
    for _ in range(30):
        base, spread = rng.randrange(2, 25), rng.randrange(5, 4000)
        parts = [
            tuple(spread**i * x for x in rng.sample(range(spread), rng.randrange(1, 5)))
            for i in range(rng.randrange(2, 4))
        ]
        factors = tuple(DigitSet(base, part) for part in parts)
        m = TruncatedMeasure(base, DigitSet(base, direct_sum_digits(*parts)), rng.randrange(1, 19), factors)
        rows = measure._RationalSide.of([Fraction(rng.randrange(-10**6, 10**6), 72) for _ in range(5)])
        cols = measure._RationalSide.of([Fraction(rng.randrange(-10**4, 10**4), 7) for _ in range(4)])
        ((_, _, full),) = measure._split_phase_abs(m, rows, cols)
        for r in range(5):
            for c in range(4):
                ((_, _, alone),) = measure._split_phase_abs(m, rows[r : r + 1], cols[c : c + 1])
                assert alone[0, 0] == full[r, c], (base, parts, m.depth, r, c)


def _verify_jp_report(tmp_path, capsys, form, scale, levels, grid):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(cli.one_stage_to_json(form)))
    argv = ["verify-jp", "--form", str(path), "--levels", str(levels), "--grid", str(grid), "--scale", str(scale)]
    assert cli.main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_verify_jp_rows_equal_jp_sum_per_level(tmp_path, capsys):
    """verify-jp reads every level from one kernel pass over the top level,
    at the top level's depth, with the form's unscaled measure of D at the
    samples xi/s; each report row equals, bit for bit, a pass at that depth
    over that level's unscaled points alone with the form's direct-sum
    factors, and jp_sum's unfactored row for D/s at the scaled points, at
    the level's own depth, to within rounding and the tail bound.  The
    frame-sums forms at their benchmark scales, then the test suite's
    verify-jp forms, one with two bands of sample rows (200 x 2,730), and
    f83 at the fractional scale 3/2, where every level still has the top
    level's denominator."""
    _, f83 = build_four_digit_form(24, 1, 4, 1, 1)
    f8 = cli.one_stage_from_json({"base": 8, "r": 1, "A": ["0", "4"], "Bs": {"0": ["0", "23"], "4": ["0", "23"]},
                                  "L1": ["0", "3"], "L2": ["0", "4"]})
    cases = [(scale, form, 5, 8) for scale, form in _frame_sums_scaled_forms()]
    cases += [(1, f8, 3, 8), (3, f83, 2, 3), (3, f83, 1, 4096), (3, f83, 5, 200), (1, _form14(), 5, 8)]
    cases += [(Fraction(3, 2), f83, 3, 8)]
    for scale, form, levels, grid in cases:
        scale = Fraction(scale)
        report = _verify_jp_report(tmp_path, capsys, form, scale, levels, grid)
        cand = build_spectrum(form, levels=levels, scale=scale)
        m = measure.form_measure(form)
        assert cand.measure == m
        over_s = [x / scale for x in m.digits.digits]
        assert all(x.denominator == 1 for x in over_s)
        digits = DigitSet(form.base, tuple(map(int, over_s)))
        xi = [0.0] + chebyshev_grid(grid - 1)
        top = max(map(abs, cand.points())) / scale
        depth = auto_depth(form.base, m.digits, float(top) + float(2 / scale))
        rows = measure._RationalSide.of([Fraction(x) / scale for x in xi])
        for k in range(levels + 1):
            unscaled = measure._RationalSide.of([x / scale for x in cand.points(k)])
            (want,) = measure._row_sums([dataclasses.replace(m, depth=depth)], rows, unscaled)
            got = [row["Q_T"] for row in report["rows"] if row["level"] == k]
            assert got == want, (form.base, scale, k)
            plain = [row.q_t for row in jp_sum(digits, form.base, cand.points(k), xi)]
            assert np.allclose(got, plain, rtol=1e-14, atol=1e-15), (form.base, scale, k)


def test_verify_jp_at_scales_that_do_not_divide_the_digits(tmp_path, capsys):
    """Any positive rational scale is valid: at 5 and 7/2, which divide no
    nonzero digit of f83's D = {0, 3, 48, 51}, each report row is within
    1e-14 of the frame sum of mu_{N,D/s} over the candidate's points, taken
    in mpmath as a product of masks over the rational digits d/s, 16
    levels deep (the dropped levels move it by far less than 1e-14)."""
    _, f83 = build_four_digit_form(24, 1, 4, 1, 1)
    assert expand_one_stage(f83).digits == (0, 3, 48, 51)
    xi = [0.0] + chebyshev_grid(3)
    with mpmath.workdps(30):
        for scale in (Fraction(5), Fraction(7, 2)):
            report = _verify_jp_report(tmp_path, capsys, f83, scale, 2, len(xi))
            cand = build_spectrum(f83, levels=2, scale=scale)
            digits = [mpmath.mpf(q.numerator) / q.denominator for q in (Fraction(d) / scale for d in (0, 3, 48, 51))]

            def energy(x):
                mu_hat = mpmath.mpf(1)
                for j in range(1, 17):
                    y = x / mpmath.mpf(24) ** j
                    mu_hat *= mpmath.fsum(mpmath.expjpi(-2 * d * y) for d in digits) / len(digits)
                return abs(mu_hat) ** 2

            for k in range(3):
                got = [row["Q_T"] for row in report["rows"] if row["level"] == k]
                want = [
                    mpmath.fsum(energy(mpmath.mpf(x) + mpmath.mpf(p.numerator) / p.denominator) for p in cand.points(k))
                    for x in xi
                ]
                assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-14, (scale, k, got, want)
            assert report["bessel_and_monotone"] is True


def test_verify_jp_makes_one_kernel_pass(tmp_path, capsys, monkeypatch):
    """--levels 5 reads its six levels from one pass over the 2,048 top-level
    points, at the depth of the unscaled top level's height plus 2/s, not
    from six passes; the shift search's kernel calls come first."""
    calls = []
    kernel = measure._split_phase_abs

    def counted(m, rows, cols):
        calls.append((len(rows), len(cols), m.depth))
        return kernel(m, rows, cols)

    monkeypatch.setattr(measure, "_split_phase_abs", counted)
    _, f83 = build_four_digit_form(24, 1, 4, 1, 1)
    report = _verify_jp_report(tmp_path, capsys, f83, 3, 5, 8)
    assert len(report["rows"]) == 6 * 8
    # before it, the shift search's calls: each of the one row 0
    *search, last = calls
    assert search and all(r == 1 for r, _, _ in search)
    cand = build_spectrum(f83, levels=5, scale=Fraction(3))
    top = float(max(map(abs, cand.points())) / 3) + float(Fraction(2, 3))
    assert last == (8, 2048, auto_depth(24, expand_one_stage(f83), top))


def test_jp_levels_rows_never_decrease():
    """Every level is truncated at the top level's depth, so each row is the
    math.fsum of a prefix of the next level's squared terms and, fsum being
    correctly rounded, never above it: verify-jp's verdict needs no
    monotone check.  The frame-sums forms at scale 1 and at their benchmark scale,
    every top level 0 to 5, 32 samples (7,680 pairs of rows)."""
    xi = [0.0] + chebyshev_grid(31)
    pairs = 0
    for bench_scale, form in _frame_sums_scaled_forms():
        for scale in {1, bench_scale}:
            for levels in range(6):
                rows = jp_levels(build_spectrum(form, levels=levels, scale=Fraction(scale)), xi)
                for lower, upper in zip(rows, rows[1:]):
                    assert all(b.q_t >= a.q_t for a, b in zip(lower, upper)), (form.base, scale, levels)
                    pairs += len(lower)
    assert pairs == 7680


def _scan_at(monkeypatch, window, resolution):
    """Sets the scan's window and Chebyshev count for the rest of the test."""
    monkeypatch.setattr(measure, "SCAN_WINDOW", window)
    monkeypatch.setattr(measure, "SCAN_RESOLUTION", resolution)


def _scanned_points(form):
    """(truncated measure, kept grid points, excluded count) of a scan at
    the module's SCAN_WINDOW and SCAN_RESOLUTION, the measure with the
    form's direct-sum factors (measure.form_measure), the points the exact
    grid's side, kept by mask_value's B-energy at the doubles nearest
    them."""
    n = form.base
    m = measure.form_measure(form)
    b_list = form.b_list()
    grid = measure._scan_grid(n)
    trunc = dataclasses.replace(m, depth=auto_depth(n, m.digits, measure.SCAN_WINDOW + 2.0, 1e-12))
    energy = sum(np.abs(mask_value(b, grid.nums / grid.den)) ** 2 for b in b_list) / len(b_list)
    keep = energy > MEMBERSHIP_THRESHOLD
    return trunc, grid[keep], int(np.sum(~keep))


def _weakly_periodic_reference(form):
    """(min_max, flagged, excluded) with one float transform per shift."""
    trunc, side, excluded = _scanned_points(form)
    xs = side.nums / side.den
    running = np.zeros_like(xs)
    for k in range(-measure.SCAN_WINDOW, measure.SCAN_WINDOW + 1):
        running = np.maximum(running, np.abs(trunc.mu_hat(xs + float(k))))
    flagged = tuple(float(x) for x in xs[running < FLAG_THRESHOLD])
    return float(running.min()), flagged, excluded


def test_weakly_periodic_matches_per_shift_oracle(monkeypatch):
    _, f83 = build_four_digit_form(24, 1, 4, 1, 1)
    for form, window in ((_form14(), 40), (f83, 12)):
        _scan_at(monkeypatch, window, 64)
        rep = weakly_periodic_check(form)
        min_max, flagged, excluded = _weakly_periodic_reference(form)
        assert abs(rep.min_max - min_max) <= 1e-14
        assert rep.flagged == flagged and rep.excluded == excluded


def test_weakly_periodic_memory_is_tiled(monkeypatch):
    """40,001 shifts: holding every shift's unit table at once would take
    tens of MB (the first case sets SCAN_WINDOW to 20,000 and
    SCAN_RESOLUTION to 64).  The scan gives the far shifts to few points,
    so the second
    case runs the full window over 64 points: 2.56 M pairs, 123 MB untiled.
    The third sums 24 samples over a level-7 aggregate of 16,384 points:
    393,216 pairs for each of two kernels, 18.9 MB each untiled.  The fourth
    reads the six levels of a candidate (2,730 columns in all) for 512
    samples: holding every level's squares at once would take 11.2 MB."""
    _scan_at(monkeypatch, 20000, 64)
    form = _normalized_plain()
    d_set = expand_one_stage(form)
    trunc = TruncatedMeasure(4, d_set, auto_depth(4, d_set, 20002.0, 1e-12))
    shifts = measure._RationalSide(1, range(-20000, 20001))
    xs = measure._RationalSide.of([Fraction(x) for x in chebyshev_grid(64)])
    _, f83 = build_four_digit_form(24, 1, 4, 1, 1)
    cand = build_spectrum(f83, levels=5, scale=Fraction(3))
    for scan in (
        lambda: not weakly_periodic_check(form).flagged,
        lambda: measure._window_max(trunc, shifts, xs).min() > 0,
        lambda: finite_level_identity_check(f83, 7, chebyshev_grid(24)) < 1e-13,
        lambda: all(r.q_t <= 1 + 1e-9 for rows in jp_levels(cand, chebyshev_grid(512)) for r in rows),
    ):
        tracemalloc.start()
        try:
            ok = scan()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok
        assert peak < 8 * 2**20, peak


def _full_window_report(form):
    """The report of a scan that gives every point every shift."""
    trunc, side, excluded = _scanned_points(form)
    xs = side.nums / side.den
    running = np.zeros_like(xs)
    shifts = measure._RationalSide(1, range(-measure.SCAN_WINDOW, measure.SCAN_WINDOW + 1))
    for _, cs, mag in measure._split_phase_abs(trunc, shifts, side):
        np.maximum(running[cs], mag.max(axis=0), out=running[cs])
    lowest = float(running.min())
    return measure.WeaklyPeriodicReport(
        min_max=lowest,
        argmin_xi=float(xs[np.argmax(running <= lowest * (1 + 1e-9))]),
        flagged=tuple(float(x) for x in xs[running < measure.FLAG_THRESHOLD]),
        excluded=excluded,
    )


def _frame_sums_scaled_forms():
    """(scale, form) of the frame-sums benchmark: each four-digit form at
    its multiplier (1, 3 or 5), the base-4 forms at 1."""
    forms = [
        build_four_digit_form(*args)
        for args in ((24, 1, 4, 1, 1), (24, 3, 5, 1, 3), (40, 1, 4, 1, 1), (12, 1, 3, 1, 1),
                     (48, 1, 5, 1, 1), (48, 5, 6, 3, 1), (20, 1, 3, 1, 1))
    ]
    return forms + [
        (1, one_stage_form(4, 1, (0, 1), {0: DigitSet(4, (0, 2)), 1: DigitSet(4, b1)}, (0, 2), (0, 1)))
        for b1 in ((0, 6), (0, 2))
    ]


def _frame_sums_forms():
    return [form for _, form in _frame_sums_scaled_forms()]


def _flagged_forms():
    """B = {0, N}: whole integer translate classes of mu_hat nearly vanish."""
    return [
        one_stage_form(4, 1, (0, 1), {0: DigitSet(4, (0, 4)), 1: DigitSet(4, (0, 4))}, (0, 1), (0, 1)),
        one_stage_form(6, 1, (0, 2), {0: DigitSet(6, (0, 6)), 2: DigitSet(6, (0, 6))}, (0, 1), (0, 1)),
    ]


def test_weakly_periodic_best_first_equals_full_window_scan(monkeypatch):
    """Bit for bit: the shift ladder only orders the points, and every
    value the report reads is the same kernel value as in the full scan.
    The windows 0, 1 and 2 leave the far climb empty, and 3 and 12 do not.
    At a flag threshold of 0.2, two points of fd24-3-5-1-3 at window 12
    have lower bounds below it and full maxima above."""
    cases = [(f, res) for f, res in zip(_frame_sums_forms(), (64, 96, 128, 160, 192, 224, 256, 64, 128))]
    cases += [(f, 128) for f in _flagged_forms()]
    for threshold in (FLAG_THRESHOLD, 0.2):
        monkeypatch.setattr(measure, "FLAG_THRESHOLD", threshold)
        flagged = 0
        for form, resolution in cases:
            for window in (0, 1, 2, 3, 12):
                _scan_at(monkeypatch, window, resolution)
                rep = weakly_periodic_check(form)
                assert rep == _full_window_report(form), (form, window, threshold)
                flagged += len(rep.flagged)
        assert flagged > 0


def test_weakly_periodic_ladder_equals_full_maximum_on_random_tables(monkeypatch):
    """The ladder's bookkeeping alone: random (shift, point) tables stand in
    for the kernel, and every report equals the one read off the whole
    table.  Each point's values spread over decades under its own scale,
    so far shifts often raise a maximum; in half the tables points fall on
    both sides of FLAG_THRESHOLD, in the other half all lie above it, so
    the minimum alone stops the ladder.  Tenths of a decade make ties, and
    a relative 1e-12 on some values puts them inside the 1e-9 band of the
    minimum without equalling it."""
    rng = np.random.default_rng(7)
    form = _form23()
    window_max = measure._window_max
    for window in (0, 1, 2, 3, 5, 12):
        _scan_at(monkeypatch, window, 16)
        _, side, excluded = _scanned_points(form)
        xs = side.nums / side.den
        for low, spread in [(-4, 3), (-1, 2)] * 10:
            logs = rng.uniform(low, 0, len(xs)) + rng.uniform(-spread, 0, (2 * window + 1, len(xs)))
            table = 10 ** (np.round(logs * 10) / 10) * (1 + 1e-12 * rng.integers(0, 2, logs.shape))

            def fake(m, shifts, points):
                if m.base == 1:  # a B-mask of the energy, not the scan's measure
                    return window_max(m, shifts, points)
                cols = np.searchsorted(side.nums, points.nums)
                return table[np.ix_(np.asarray(shifts.nums) + window, cols)].max(axis=0, initial=0.0)

            monkeypatch.setattr(measure, "_window_max", fake)
            full = table.max(axis=0)
            lowest = float(full.min())
            want = measure.WeaklyPeriodicReport(
                min_max=lowest,
                argmin_xi=float(xs[np.argmax(full <= lowest * (1 + 1e-9))]),
                flagged=tuple(float(x) for x in xs[full < FLAG_THRESHOLD]),
                excluded=excluded,
            )
            assert weakly_periodic_check(form) == want, window


def _counted_kernel(monkeypatch):
    """The (rows, columns) of every kernel call made from now on."""
    calls = []
    kernel = measure._split_phase_abs

    def counted(m, rows, cols):
        calls.append((len(rows), len(cols)))
        return kernel(m, rows, cols)

    monkeypatch.setattr(measure, "_split_phase_abs", counted)
    return calls


def test_weakly_periodic_far_window_reaches_few_points(monkeypatch):
    """fd24-1-4-1-1 keeps 4,668 of its 4,672 grid points (one B-energy call
    over the grid), and all of them get a lower bound on shift 0 in one
    call at the shallow depth; only the candidates for the minimum climb
    to the shifts |k| <= 2 at the scan's depth, shift 0 among them, and
    then to the rest of the window."""
    calls = _counted_kernel(monkeypatch)
    _, form = build_four_digit_form(24, 1, 4, 1, 1)
    rep = weakly_periodic_check(form)
    assert calls[:2] == [(1, 4672), (1, 4668)]
    assert all(rows in (5, 124) for rows, _ in calls[2:]), calls
    near_points = sum(cols for rows, cols in calls[2:] if rows == 5)
    far_points = sum(cols for rows, cols in calls[2:] if rows == 124)
    assert 1 <= far_points <= near_points <= 4, calls
    assert rep.min_max > FLAG_THRESHOLD


def test_small_ladder_calls_take_every_level_in_one_block(monkeypatch):
    """fd24-1-4-1-1 makes six kernel calls.  First the B-energy, one
    call per distinct B of the row 0 x 4,672 grid points at depth 1,
    whose row side makes one units call.  The shift-0 pass, a tile of 1
    x 4,668 pairs at the shallow depth, takes one level per block; each
    ladder call, 5 or 124 shifts x 1 point at the scan's depth, takes
    all of its levels in one block, so its shift side makes one units
    call, not one per level.  fd24-3-5-1-3 has two distinct B-sets, its
    shallow depth is 2, and its shift-0 pass takes two blocks.  Only the
    integer sides are counted, the shifts and the row 0 (denominator 1),
    not the grid's."""
    calls = _counted_kernel(monkeypatch)
    served = []  # the kernel call each units call of the shift side serves
    units = measure._RationalSide.units

    def counted(side, *args):
        if side.den == 1:
            served.append(len(calls))
        return units(side, *args)

    monkeypatch.setattr(measure._RationalSide, "units", counted)
    for args, energy, bulk, shallow_depth in (((24, 1, 4, 1, 1), 1, 4668, 1), ((24, 3, 5, 1, 3), 2, 4666, 2)):
        calls.clear()
        served.clear()
        _, form = build_four_digit_form(*args)
        weakly_periodic_check(form)
        m = measure.form_measure(form)
        depth = auto_depth(form.base, m.digits, 66.0, 1e-12)
        shallow, _ = measure._shallow_rung(dataclasses.replace(m, depth=depth))
        ladder = [(1, bulk), (5, 1), (5, 1), (124, 1), (124, 1)]
        assert calls == [(1, 4672)] * energy + ladder
        assert depth > shallow.depth == shallow_depth
        assert [served.count(k) for k in range(1, len(calls) + 1)] == [1] * energy + [shallow_depth] + [1] * 4


def _near_window_far_points(form):
    """How many points reach the shifts |k| > 2 in a scan that gives every
    point the shifts |k| <= 2 first, then the rest of the window in
    increasing order of that bound, in batches that double."""
    trunc, xs, _ = _scanned_points(form)
    shifts = measure._RationalSide(1, sorted(range(-measure.SCAN_WINDOW, measure.SCAN_WINDOW + 1), key=abs))
    running = measure._window_max(trunc, shifts[:5], xs)
    order = np.argsort(running, kind="stable")
    best, done = math.inf, 0
    while done < len(order):
        batch = order[done : 2 * done + 1]
        batch = batch[running[batch] <= max(best * (1 + 1e-9), FLAG_THRESHOLD)]
        if not batch.size:
            break
        running[batch] = np.maximum(running[batch], measure._window_max(trunc, shifts[5:], xs[batch]))
        best = min(best, running[batch].min())
        done += len(batch)
    return done


def test_weakly_periodic_ladder_on_a_reduced_form(monkeypatch):
    """The N = 144 one-stage form that reduce-kstage gives for classify-paq
    (2, 3, 2, i) has 144 digits and flags many points; the ladder's report
    equals the full-window scan's.  On the two B = {0, N} forms the full
    window reaches no more points than a scan that gives every point the
    shifts |k| <= 2 first."""
    form = k_stage_to_one_stage(paq_type_generator(2, 3, 2, "i").form)
    assert form.base == 144 and len(expand_one_stage(form)) == 144
    with monkeypatch.context() as small:
        _scan_at(small, 3, 16)
        rep = weakly_periodic_check(form)
        assert len(rep.flagged) >= 10
        assert rep == _full_window_report(form)
    calls = _counted_kernel(monkeypatch)
    for form in _flagged_forms():
        calls.clear()
        rep = weakly_periodic_check(form)
        far_points = sum(cols for rows, cols in calls[1:] if rows == 124)
        assert len(rep.flagged) <= far_points <= _near_window_far_points(form)


def test_shallow_rung_bounds_shift_zero_from_below():
    """On the nine frame-sums forms and the two B = {0, N} forms, at the
    scan's depth p for the default window: some q < p has tail sum at most
    1/4 at height 1, and at 2,000 random x in [0, 1) and at every scan grid
    point the kernel's |mu_hat_p(x)| lies above c * |mu_hat_q(x)|, c the
    rung's factor, by more than a relative 1e-10.  Base 2 with D = {0, 1}
    at depth 3 has no such q (S = 3.3 and 0.82 at q = 1, 2), so its rung is
    depth 3 itself (S = 0.21), and at depth 4 it takes q = 3."""
    rng = np.random.default_rng(31)
    zero = measure._RationalSide(1, [0])
    for form in _frame_sums_forms() + _flagged_forms():
        m = measure.form_measure(form)
        trunc = dataclasses.replace(m, depth=auto_depth(form.base, m.digits, 66.0, 1e-12))
        shallow, factor = measure._shallow_rung(trunc)
        q = shallow.depth
        assert q < trunc.depth and shallow.factors == m.factors
        assert shallow.tail_sum(1.0) <= 0.25
        assert q == 1 or dataclasses.replace(m, depth=q - 1).tail_sum(1.0) > 0.25
        random_side = measure._RationalSide.of([Fraction(x) for x in rng.random(2000).tolist()])
        for xs in (random_side, measure._scan_grid(form.base)):
            exact = measure._window_max(trunc, zero, xs)
            bound = factor * measure._window_max(shallow, zero, xs)
            assert (bound * (1 + 1e-10) <= exact).all(), form
    plain = TruncatedMeasure(2, DigitSet(2, (0, 1)), 3)
    for depth in (3, 4):
        shallow, factor = measure._shallow_rung(dataclasses.replace(plain, depth=depth))
        assert shallow.depth == 3 and factor == math.sqrt(1 - shallow.tail_sum(1.0)) * (1 - 1e-9)


def _translated_flagged_form(k):
    """The base-4 B = {0, N} form with A translated up by Y = 4k and B down
    by k: A = {Y, Y + 1}, B = {-k, 4 - k}, so its expansion is still
    {0, 1, 16, 17}.  Not normalized: 0 is not in B."""
    y = 4 * k
    b = DigitSet(4, (-k, 4 - k))
    return one_stage_form(4, 1, (y, y + 1), {y: b, y + 1: b}, (0, 1), (0, 1))


def test_weakly_periodic_on_opposing_translations_matches_the_unfactored_scan(monkeypatch):
    """A and N*B translated against each other by Y = 4e12: the factors
    stay within the expansion's span, so the scan reads what the
    unfactored measure of D = {0, 1, 16, 17} reads.  Factors A and N*B
    would put e(-Y*x/N^j) into the kernel, which read the mask zero near
    4e-6 in place of 1e-16 when the grid was a side of floats."""
    form = _translated_flagged_form(10**12)
    m = measure.form_measure(form)
    assert m.digits.digits == (0, 1, 16, 17)
    assert [f.digits for f in m.factors] == [(0, 1), (0, 16)]
    _scan_at(monkeypatch, 8, 256)
    rep = weakly_periodic_check(form)
    monkeypatch.setattr(measure, "form_measure", lambda f: TruncatedMeasure(f.base, expand_one_stage(f), 1))
    plain = weakly_periodic_check(form)
    assert (rep.flagged, rep.excluded, rep.argmin_xi) == (plain.flagged, plain.excluded, plain.argmin_xi)
    assert len(rep.flagged) >= 1 and abs(rep.min_max - plain.min_max) <= 1e-15


def test_form_measure_factors_exactly_the_one_b_forms():
    """form_measure factors a form as (A + N^r*b) (+) N^r*(B - b), b =
    min B, when every B_a is one set B with |A|, |B| >= 2, and the direct
    sum of its factors is the expansion."""
    single_a = one_stage_form(4, 1, (0,), {0: DigitSet(4, (0, 2))}, (0, 2), (0, 1))
    reduced = k_stage_to_one_stage(paq_type_generator(2, 3, 2, "i").form)
    cases = [(f, True) for f in (_form23(), *_flagged_forms(), reduced, _translated_flagged_form(10**12))]
    cases += [(f, False) for f in (_form14(), _normalized_plain(), single_a)]
    cases += [(f, len({b for b in f.b_list()}) == 1) for f in _frame_sums_forms()]
    assert sum(factored for _, factored in cases) == 11
    for form, factored in cases:
        m = measure.form_measure(form)
        d_set = expand_one_stage(form)
        assert m.digits == d_set and m.depth == 1
        assert direct_sum_digits(*(f.digits for f in m.factors)) == d_set.digits
        if factored:
            (b,) = set(form.b_list())
            step, low = form.base**form.r, min(b.digits)
            first = tuple(a + step * low for a in form.a_set.digits)
            scaled = tuple(step * (x - low) for x in b.digits)
            assert m.factors == (DigitSet(form.base, first), DigitSet(form.base, scaled)), form
        else:
            assert m.factors == (d_set,), form


def test_candidate_levels_are_nested_prefixes():
    """Each level of a candidate is the level before it followed by its new
    points, so SpectrumCandidate.numerators forms each point once."""
    _, f83 = build_four_digit_form(24, 1, 4, 1, 1)
    cand = build_spectrum(f83, levels=4, scale=Fraction(3))
    sizes = [len(cand.lambdas(k)) for k in range(5)]
    assert sizes == [1, 4, 16, 64, 256]
    for k in range(1, 5):
        assert cand.lambdas(k)[: sizes[k - 1]] == cand.lambdas(k - 1)
    den, nums, counts = cand.numerators()
    assert counts == [2 * size for size in sizes] and len(set(nums)) == len(nums)


def test_weakly_periodic_examples():
    rep = weakly_periodic_check(_form14())
    assert rep.min_max > 1e-3 and not rep.flagged
    # mask energy at excluded points is genuinely tiny: the grid skips them
    assert rep.excluded > 0


def test_weakly_periodic_argmin_is_the_smaller_mirror_point():
    """xi and 1 - xi have windowed maxima equal up to rounding; the report
    names the smaller one, as it does for the base-24 and base-20 forms."""
    _, form = build_four_digit_form(12, 1, 3, 1, 1)
    rep = weakly_periodic_check(form)
    assert rep.argmin_xi < 0.5


def test_weakly_periodic_zero_never_member(monkeypatch):
    # xi = 0 has mask energy 1, so it is always in the scanned region
    _scan_at(monkeypatch, 8, 64)
    rep = weakly_periodic_check(_form23())
    assert rep.min_max > 0


def test_chebyshev_grid_lies_on_the_sample_lattice():
    """Each point is a multiple of 2^-SAMPLE_BITS within half a lattice
    step of the math.cos point, and the points are distinct."""
    step = Fraction(1, 2**SAMPLE_BITS)
    assert chebyshev_grid(0) == []
    for count in (1, 7, 16, 64, 4096):
        grid = chebyshev_grid(count)
        for i, x in enumerate(grid):
            exact = Fraction(x)
            cos_point = Fraction(0.5 * (1.0 + math.cos(math.pi * (2 * i + 1) / (2 * count))))
            assert (exact / step).denominator == 1, (count, i)
            assert abs(exact - cos_point) <= step / 2, (count, i)
        assert len(set(grid)) == count


def test_scan_grid_is_the_sorted_union_of_both_grids(monkeypatch):
    """In integers over den = lcm(2^SAMPLE_BITS, N^2): the Chebyshev points
    and every t/N^2, sorted, each once."""
    for n in (2, 4, 6, 24, 48, 500):
        for resolution in (1, 64, 4096):
            monkeypatch.setattr(measure, "SCAN_RESOLUTION", resolution)
            grid = measure._scan_grid(n)
            den = math.lcm(2**SAMPLE_BITS, n * n)
            cheb = {int(x * 2**SAMPLE_BITS) * (den >> SAMPLE_BITS) for x in chebyshev_grid(resolution)}
            want = sorted(cheb | set(range(0, den, den // (n * n))))
            assert grid.den == den and grid.bound == want[-1]
            assert grid.nums.tolist() == want, (n, resolution)


def test_b_energy_evaluates_each_distinct_b_set_once(monkeypatch):
    """A reduced form repeats one B-set 12 times: the kernel runs one pass
    per distinct B, and the energies equal, bit for bit, a sum over every
    B in b_list order of the kernel's |M_B|^2, and to within rounding
    mask_value_rational's.  mask_value is no oracle here: its float phase
    2*pi*d*x, up to 515 at these digits, is off by about 1e-14 before any
    reduction, which the exact phases of the kernel do not share."""
    form = k_stage_to_one_stage(paq_type_generator(2, 3, 2, "i").form)
    b_list = form.b_list()
    mixed = b_list[:3] + [DigitSet(144, (0, 1)), b_list[0], DigitSet(144, (0, 1))]
    side = measure._RationalSide.of([Fraction(x) for x in chebyshev_grid(64)])
    zero = measure._RationalSide(1, [0])

    def oracle(b):
        return np.array([abs(mask_value_rational(b, int(v), side.den)) for v in side.nums])

    calls = _counted_kernel(monkeypatch)
    for b_sets, passes in ((b_list, 1), (mixed, 2)):
        calls.clear()
        got = measure._b_energy(b_sets, side)
        assert len(calls) == passes == len(set(b_sets))
        want = sum(measure._window_max(TruncatedMeasure(1, b, 1), zero, side) ** 2 for b in b_sets) / len(b_sets)
        assert np.array_equal(got, want)
        assert np.allclose(got, sum(oracle(b) ** 2 for b in b_sets) / len(b_sets), rtol=1e-14, atol=1e-15)
    assert len(b_list) == 12


def test_b_energy_takes_each_b_set_from_zero(monkeypatch):
    """|M_B| does not move when B is translated, so each B-set reaches the
    kernel translated to min 0, and B-sets that are translates of each
    other share one pass.  The form with B = {-1e12, 4 - 1e12} and its
    translate with B = {0, 4}, of the same expansion and factors, give
    equal reports."""
    seen = []
    kernel = measure._split_phase_abs

    def counted(m, rows, cols):
        if m.base == 1:  # a B-mask
            seen.append(m.digits.digits)
        return kernel(m, rows, cols)

    monkeypatch.setattr(measure, "_split_phase_abs", counted)
    far, near = _translated_flagged_form(10**12), _translated_flagged_form(0)
    assert weakly_periodic_check(far) == weakly_periodic_check(near)
    assert seen == [(0, 4), (0, 4)]
    seen.clear()
    b = DigitSet(4, (0, 2))
    side = measure._RationalSide.of([Fraction(x) for x in chebyshev_grid(16)])
    got = measure._b_energy([b.shifted(5), b, b.shifted(-3)], side)
    assert seen == [(0, 2)]
    assert np.array_equal(got, measure._b_energy([b, b, b], side))


def test_scan_grid_contains_mask_zeros():
    """Every t/N^2, where mask zeros lie, is a grid point exactly."""
    grid = measure._scan_grid(4)
    assert grid.den % 16 == 0 and grid.den // 4 in grid.nums.tolist()
    for n in (7, 48, 250):
        grid = measure._scan_grid(n)
        step = grid.den // (n * n)
        assert set(range(0, grid.den, step)) <= set(grid.nums.tolist()), n


def test_two_branch_candidate_monotone_toward_split_targets():
    """The two-branch fixture converges slowly but provably in the right
    direction: the integer part approaches the averaged mask energy and the
    full candidate stays under 1 while growing."""
    f14 = _form14()
    cand = build_spectrum(f14, levels=5)
    d = DigitSet(4, (0, 1, 8, 25))
    b_list = f14.b_list()
    xi = 0.3
    target_int = sum(abs(mask_value(b, xi)) ** 2 for b in b_list) / len(b_list)
    prev_full = prev_int = 0.0
    for k in range(1, 6):
        q_full = jp_sum(d, 4, cand.points(k), [xi])[0].q_t
        q_int = jp_sum(d, 4, [Fraction(x) for x in cand.lambdas(k)], [xi])[0].q_t
        assert prev_full - 1e-12 <= q_full <= 1 + 1e-9
        assert prev_int - 1e-12 <= q_int <= target_int + 1e-9
        prev_full, prev_int = q_full, q_int
    # genuine progress toward both limits (convergence here is slow but real)
    assert prev_int > 0.3 * target_int
    assert prev_full > 0.35


def _scalar_shifts(form):
    """The shift search on the scalar exact-phase oracles: the B-energy of
    each gamma from mask_value_rational, then the spiral 0, 1, -1, 2, ...
    one shift at a time through TruncatedMeasure.mu_hat_rational, at the
    depth, window and threshold of build_spectrum.  Returns the (gamma,
    shift) pairs, or raises ShiftSearchFailure with the best ratio."""
    window = measure.SHIFT_WINDOW
    n = form.base
    d_set = expand_one_stage(form)
    trunc = TruncatedMeasure(n, d_set, auto_depth(n, d_set, window + 2.0))
    b_list = form.b_list()
    shifts = []
    for g in measure._anchored_spectrum(form):
        target = sum(abs(mask_value_rational(b, g, n)) ** 2 for b in b_list) / len(b_list)
        if g == 0 or target < 1e-12:
            shifts.append((g, 0))
            continue
        best = 0.0
        for k in [0, *(k for j in range(1, window + 1) for k in (j, -j))]:
            ratio = abs(trunc.mu_hat_rational(g + k * n, n)) ** 2 / (target + 1e-300)
            best = max(best, ratio)
            if ratio >= measure.SHIFT_RATIO_THRESHOLD:
                shifts.append((g, k))
                break
        else:
            raise ShiftSearchFailure(g, window, best)
    return tuple(shifts)


def _random_normalized_forms(count, seed):
    """Normalized one-stage forms N, A = {0, a}, B_0 = {0, b}, B_a = {0, b}
    or {0, b'}, L1 = {0, l1}, L2 = {0, l2}, with N in 4..12, b and b' below
    3N, and L1 (+) L2 distinct mod N; forms whose expansion collides are
    skipped."""
    rng = random.Random(seed)
    forms = []
    while len(forms) < count:
        n = rng.randrange(4, 13)
        a, b, l1, l2 = rng.randrange(1, n), rng.randrange(1, 3 * n), rng.randrange(1, n), rng.randrange(1, n)
        b_a = rng.choice([b, rng.randrange(1, 3 * n)])
        form = one_stage_form(n, 1, (0, a), {0: DigitSet(n, (0, b)), a: DigitSet(n, (0, b_a))}, (0, l1), (0, l2))
        if len({x % n for x in (0, l1, l2, l1 + l2)}) < 4 or not is_normalized(form):
            continue
        try:
            expand_one_stage(form)
        except OverlapError:
            continue
        forms.append(form)
    return forms


def _same_shift_search(form, scales=(1,)):
    """build_spectrum at each scale picks the scalar search's shift for
    every gamma, or both fail at the same gamma with best ratios within a
    relative 1e-12.  Returns the shifts, or None after a failure."""
    try:
        want = _scalar_shifts(form)
    except ShiftSearchFailure as err:
        for scale in scales:
            with pytest.raises(ShiftSearchFailure) as got:
                build_spectrum(form, levels=1, scale=Fraction(scale))
            assert (got.value.gamma, got.value.window) == (err.gamma, err.window), form
            assert math.isclose(got.value.best_ratio, err.best_ratio, rel_tol=1e-12), form
        return None
    for scale in scales:
        got = build_spectrum(form, levels=1, scale=Fraction(scale))
        assert got.shifts == want, (form, scale)
    return want


def test_kernel_shift_search_picks_the_scalar_oracles_shifts(monkeypatch):
    """build_spectrum's shift search runs on the kernel; the scalar
    exact-phase oracles pick the same shift for every gamma.  The nine
    frame-sums forms at scale 1 and at their benchmark scale, the reduced
    (2,3,2,i) form, and seeded random normalized forms, some of which need
    a nonzero shift or have none.  On the form with a zero class (N = 4,
    B_a = {0, 4}) both searches fail at gamma = 2 at windows 0, 3 and
    128."""
    for scale, form in _frame_sums_scaled_forms():
        assert _same_shift_search(form, {1, scale}) is not None
    assert _same_shift_search(k_stage_to_one_stage(paq_type_generator(2, 3, 2, "i").form)) is not None
    # 12 of these need a nonzero shift, and 1 has none in the window 16
    monkeypatch.setattr(measure, "SHIFT_WINDOW", 16)
    outcomes = [_same_shift_search(form) for form in _random_normalized_forms(300, seed=6)]
    assert sum(1 for shifts in outcomes if shifts and any(k for _, k in shifts)) >= 10
    assert outcomes.count(None) >= 1
    zero_class = one_stage_form(4, 1, (0, 1), {0: DigitSet(4, (0, 4)), 1: DigitSet(4, (0, 4))}, (0, 1), (0, 2))
    for window in (0, 3, 128):
        monkeypatch.setattr(measure, "SHIFT_WINDOW", window)
        assert _same_shift_search(zero_class) is None
        with pytest.raises(ShiftSearchFailure, match="gamma=2 "):
            build_spectrum(zero_class, levels=1)


def test_worst_case_height_refusal_keeps_a_one_point_spectrum():
    """build_spectrum refuses, before the search, a candidate whose
    worst-case top height s*(max|L2| + N*lam_max)/N, with lam_max =
    N*(1 + window)*(N^levels - 1)/(N - 1), no depth within the doubles
    bounds (the CLI's rows past the doubles test that); with L1 (+) L2 =
    {0} every lambda is 0, so 600 levels stay at height 0 and are not
    refused."""
    form = one_stage_form(4, 1, (0, 1), {0: DigitSet(4, (0, 2)), 1: DigitSet(4, (0, 2))}, (0,), (0,))
    cand = build_spectrum(form, levels=600)
    assert cand.shifts == ((0, 0),) and cand.points() == [0]

def test_shift_threshold_above_true_constant_fails_loudly(monkeypatch):
    from spectralforge.errors import ShiftSearchFailure

    f14 = _form14()
    monkeypatch.setattr(measure, "SHIFT_RATIO_THRESHOLD", 0.25)
    with pytest.raises(ShiftSearchFailure) as err:
        build_spectrum(f14, levels=2)
    assert err.value.best_ratio > 0  # a best candidate is reported, not hidden


def test_weakly_periodic_check_refuses_an_over_limit_scan_itself(monkeypatch):
    """A library caller gets the CLI's PointLimitExceeded, before any work."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the size check")

    monkeypatch.setattr(measure, "_split_phase_abs", no_work)
    monkeypatch.setattr(measure, "_scan_grid", no_work)
    monkeypatch.setattr(measure, "SCAN_RESOLUTION", measure.SCAN_POINT_LIMIT)
    with pytest.raises(PointLimitExceeded, match="SCAN_POINT_LIMIT"):
        weakly_periodic_check(_form14())
