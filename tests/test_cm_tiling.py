import itertools
import math
import random

import pytest

from spectralforge.cm_tiling import (
    CongruenceCheck,
    check_tile_zn,
    cm_profile,
    cm_regular_product_triple,
    generate_modulo_product_form,
    explicit_tiling_spectrum,
    modulo_spec,
    modulo_to_k_stage,
    paq_type_generator,
    _divisors,
    is_prime,
    spec_kernels,
    tile_complement,
)
from spectralforge.cyclotomic import MaskPolynomial, divides, euler_phi, factorize
from spectralforge.digitsets import DigitSet, direct_sum_digits
from spectralforge.errors import (
    InvalidVariantParams,
    NotCompleteResidues,
    OverlapError,
    SpectrumUnavailable,
)
from spectralforge.hadamard import check_triple
from spectralforge.productform import expand_k_stage, validate_k_stage

A84 = DigitSet(72, (0, 8, 16, 18, 26, 34))
B84 = DigitSet(72, (0, 5, 6, 9, 12, 29, 33, 36, 42, 48, 53, 57))


def test_cm_profile_examples():
    p = cm_profile(DigitSet(4, (0, 2)), 4)
    assert p.s_indices == (4,) and p.t1 and p.t2
    assert p.tiling_spectrum.digits == (0, 1)

    p83 = cm_profile(DigitSet(24, (0, 1, 16, 17)), 24)
    assert p83.s_indices == (2,)
    assert not p83.t1 and p83.tiling_spectrum is None

    p0 = cm_profile(DigitSet(7, (0,)), 7)
    assert p0.s_indices == () and p0.t1 and p0.t2
    assert p0.tiling_spectrum.digits == (0,)


def test_cm_profile_84_pair():
    pa = cm_profile(A84, 72)
    pb = cm_profile(B84, 72)
    assert pa.s_indices == (3, 4) and pa.t1 and pa.t2
    assert pb.s_indices == (2, 8, 9) and pb.t1 and pb.t2
    # emitted spectra re-verify (also asserted inside the profiler)
    assert check_triple(72, A84, pa.tiling_spectrum) is None
    assert check_triple(72, B84, pb.tiling_spectrum) is None


def test_tiling_spectrum_shape():
    assert explicit_tiling_spectrum((4,), 4).digits == (0, 1)
    assert explicit_tiling_spectrum((3, 4), 72).digits == (0, 18, 24, 42, 48, 66)
    with pytest.raises(ValueError):
        explicit_tiling_spectrum((6,), 72)  # not a prime power


def test_check_tile_examples():
    v = check_tile_zn(DigitSet(4, (0, 2)), 4)
    assert v.verdict == "TilesByT1T2" and v.exhaustive is True
    assert v.witness.digits == (0, 1)

    v83 = check_tile_zn(DigitSet(24, (0, 1, 16, 17)), 24)
    assert v83.verdict == "NotTileByT1Failure" and v83.exhaustive is False

    # direct-sum completeness gives an exact tiling of Z_72 with witness B
    comp = tile_complement(A84, 72)
    assert comp is not None
    got = direct_sum_digits(A84.digits, comp)
    assert sorted(x % 72 for x in got) == list(range(72))


def test_tile_complement_deep_search():
    # 2000 translates deep: beyond the interpreter's recursion limit
    v = check_tile_zn(DigitSet(4000, (0, 1)), 4000)
    assert v.witness.digits == tuple(range(0, 4000, 2))


def test_factorization_helpers_match_brute_force():
    for n in range(1, 2001):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        assert _divisors(n) == divisors
        assert is_prime(n) == (divisors == [1, n])
        fac = factorize(n)
        assert math.prod(p**a for p, a in fac) == n
        assert [p for p, _ in fac] == sorted({p for p, _ in fac})
        assert all(a >= 1 and _divisors(p) == [1, p] for p, a in fac)
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_exhaustive_agrees_with_conditions_small_sweep():
    """All 0-anchored subsets with |A| dividing N, small N: the sufficient
    verdicts never contradict the exhaustive search."""
    for n in range(2, 13):
        sizes = [k for k in (1, 2, 3, 4) if n % k == 0]
        for k in sizes:
            for rest in itertools.combinations(range(1, n), k - 1):
                a = DigitSet(max(n, 2), (0,) + rest)
                verdict = check_tile_zn(a, n)
                if verdict.verdict == "TilesByT1T2":
                    assert verdict.exhaustive is True
                elif verdict.verdict == "NotTileByT1Failure":
                    assert verdict.exhaustive is False


def test_sampled_agreement_larger_bases():
    rng = random.Random(1234)
    for _ in range(60):
        n = rng.randrange(13, 21)
        k = rng.choice([k for k in (2, 3, 4, 5, 6) if n % k == 0] or [1])
        digits = (0,) + tuple(sorted(rng.sample(range(1, n), k - 1)))
        verdict = check_tile_zn(DigitSet(max(n, 2), digits), n)
        if verdict.verdict == "TilesByT1T2":
            assert verdict.exhaustive is True
        if verdict.verdict == "NotTileByT1Failure":
            assert verdict.exhaustive is False


def test_generate_modulo_product_form_examples():
    spec = modulo_spec(4, [(0, 1), (0, 2)], [2, 4], [1])
    assert generate_modulo_product_form(spec).digits == (0, 1, 8, 9)

    spec2 = modulo_spec(4, [(0, 1), (0, 2)], [2, 4], [1], {(1, 1, 2): 1})
    assert generate_modulo_product_form(spec2).digits == (0, 1, 8, 25)

    spec0 = modulo_spec(4, [(0, 1, 2, 3)], [2, 4], [])
    assert generate_modulo_product_form(spec0).digits == (0, 1, 2, 3)

    # kernel Phi_4^2 divides the mask (1+x^2)(1+x^6), though not its fold
    # mod x^4 - 1, which is 2 + 2x^2
    repeated = modulo_spec(2, [(0, 2), (0, 3)], [2, 4], [1])
    assert spec_kernels(repeated)[-1].cyclotomic_indices == ((4, 2),)
    assert generate_modulo_product_form(repeated).digits == (0, 2, 6, 8)

    # {0,4} (+) {0,1} is direct, but 4 + 4*0 == 0 + 4*1 once stage 1 is scaled
    clash = modulo_spec(4, [(0, 4), (0, 1)], [2], [1])
    for build in (generate_modulo_product_form, modulo_to_k_stage):
        with pytest.raises(OverlapError) as err:
            build(clash)
        assert (err.value.digit, err.value.first, err.value.second, err.value.stage) == (4, (0, 1), (4, 0), 1)


def test_modulo_form_with_zero_shifts_equals_direct_expansion():
    rng = random.Random(3)
    for _ in range(20):
        # random direct factorization of Z_8 or Z_12 via known chains
        n, parts = rng.choice(
            [
                (8, [(0, 1), (0, 2), (0, 4)]),
                (12, [(0, 1), (0, 2, 4), (0, 6)]),
                (4, [(0, 1), (0, 2)]),
            ]
        )
        ells = [rng.randrange(1, 3) for _ in range(len(parts) - 1)]
        t = sorted(d for d in range(2, n + 1) if n % d == 0)
        spec = modulo_spec(n, parts, t, ells)
        got = generate_modulo_product_form(spec).digits
        # direct expansion oracle
        scales = [n ** sum(ells[:j]) for j in range(1, len(parts))]
        want = direct_sum_digits(parts[0], *[[s * e for e in p] for s, p in zip(scales, parts[1:])])
        assert got == want


def test_modulo_to_k_stage_with_default_spectra():
    spec2 = modulo_spec(4, [(0, 1), (0, 2)], [2, 4], [1], {(1, 1, 2): 1})
    form, report = modulo_to_k_stage(spec2)
    assert report.ok
    assert expand_k_stage(form).digits == (0, 1, 8, 25)
    # stage layer is parent-keyed
    assert not isinstance(form.layers[0], DigitSet)

    bad = modulo_spec(24, [(0, 1, 16, 17), (0, 2)], [2], [1])
    with pytest.raises(SpectrumUnavailable):
        modulo_to_k_stage(bad)


def test_kernel_divisibility_certificate_all_variants():
    for (p, q, alpha) in ((2, 3, 2), (2, 3, 3), (3, 2, 2)):
        for variant in ("i", "ii", "iii"):
            res = paq_type_generator(p, q, alpha, variant)
            kernel = spec_kernels(res.spec_generated)[-1].poly
            low = min(res.generated.digits)
            mask = MaskPolynomial.from_digits(tuple(x - low for x in res.generated.digits))
            assert divides(kernel, mask)
            assert res.report.ok
            n = p**alpha * q
            assert len(res.digits) == n


def test_four_digit_set_as_modulo_form_matches_construction():
    """The scaled four-digit set realized as a modulo product-form: the
    default tiling spectra reproduce the dedicated construction's spectra
    exactly, and the expansion is 3 times the original digits."""
    from spectralforge.productform import build_four_digit_form

    spec = modulo_spec(24, [(0, 3), (0, 2)], [2, 4, 6], [1])
    assert generate_modulo_product_form(spec).digits == (0, 3, 48, 51)
    form, report = modulo_to_k_stage(spec)
    assert report.ok
    assert expand_k_stage(form).digits == tuple(3 * x for x in (0, 1, 16, 17))
    mult, built = build_four_digit_form(24, 1, 4, 1, 1)
    assert form.spectra[0].digits == built.l1.digits == (0, 12)
    assert form.spectra[1].digits == built.l2.digits == (0, 6)


def test_variant_ii_tied_scales_merge():
    """Shift exponents M = [2, 1] at alpha = 3 make two factors land on the
    same stage scale; they merge into one direct-sum factor and everything
    still validates with multiplier q^2."""
    res = paq_type_generator(2, 3, 3, "ii", m_values=[2, 1])
    assert res.multiplier == 9
    assert res.report.ok
    assert len(res.digits) == 24
    # merged spec has fewer stages than alpha
    assert res.spec_generated.stages < 3
    for c in res.congruences:
        assert c.ok, c.label


def test_kernel_certificate_wider_prime_range():
    # primes up to 5 in both roles (certificates re-checked inside generate)
    for (p, q, alpha, variant) in (
        (2, 5, 2, "i"),
        (2, 5, 2, "ii"),
        (5, 2, 2, "i"),
        (5, 2, 2, "iii"),
        (3, 5, 2, "iii"),
        (5, 3, 2, "i"),
    ):
        res = paq_type_generator(p, q, alpha, variant)
        assert res.report.ok
        assert len(res.digits) == p**alpha * q


def test_variant_ii_congruences_and_multiplier():
    res = paq_type_generator(2, 3, 2, "ii")
    assert res.multiplier == 3
    assert len(res.congruences) == 3
    for c in res.congruences:
        assert c.ok, c.label
    # the nested shape's own kernel certificate also holds
    kernel = spec_kernels(res.spec_original)[-1].poly
    low = min(res.original_digits.digits)
    mask = MaskPolynomial.from_digits(tuple(x - low for x in res.original_digits.digits))
    assert divides(kernel, mask)
    # multiplied digits == multiplier * nested digits when no shifts are used
    assert res.generated.digits == tuple(3 * x for x in res.original_digits.digits)

    res32 = paq_type_generator(3, 2, 2, "ii")
    assert res32.multiplier == 2
    for c in res32.congruences:
        assert c.ok, c.label


def test_variant_ii_shift_exponent_messages():
    """A wrong count names the expected and the given count; a negative
    exponent names the sign condition."""
    with pytest.raises(InvalidVariantParams) as err:
        paq_type_generator(2, 3, 2, "ii", m_values=[1, 1])
    assert str(err.value) == "variant ii needs alpha-1 = 1 shift exponents, got 2"
    with pytest.raises(InvalidVariantParams) as err:
        paq_type_generator(2, 3, 2, "ii", m_values=[-1])
    assert str(err.value) == "variant ii needs alpha-1 shift exponents >= 0"


def test_scaled_modulus_identity_flags():
    """The lcm-of-kernel-indices modulus always divides m_j * N^L; the two
    agree on the canonical complete shapes but not on the nested ones."""
    res_i = paq_type_generator(2, 3, 2, "i")
    for kd in spec_kernels(res_i.spec_generated):
        assert kd.scaled_identity_holds

    res_ii = paq_type_generator(2, 3, 2, "ii")
    kernels = spec_kernels(res_ii.spec_generated)
    assert all(kd.n_j_scaled % kd.n_j == 0 for kd in kernels)
    assert not kernels[-1].scaled_identity_holds  # documented counterexample


def test_variant_i_form_spectra_verify_per_level():
    res = paq_type_generator(2, 3, 2, "i")
    form = res.form
    # per-level triples re-verify through the exact checker
    assert check_triple(12, form.e0, form.spectra[0]) is None
    for layer, spectrum in zip(form.layers, form.spectra[1:]):
        assert isinstance(layer, DigitSet)
        assert check_triple(12, layer, spectrum) is None
    assert form.spectra[0].digits == (0, 6)
    assert form.spectra[1].digits == (0, 2, 4)
    assert form.spectra[2].digits == (0, 1)


def test_paq_zshifts_change_digits_but_keep_certificates():
    base = paq_type_generator(2, 3, 2, "i")
    shifted = paq_type_generator(2, 3, 2, "i", zshifts={(1, 0, 0): 1})
    assert shifted.digits.digits != base.digits.digits
    assert shifted.report.ok
    # representative shifts never move a digit across residue classes mod N
    assert sorted(x % 12 for x in shifted.digits.digits) == sorted(
        x % 12 for x in base.digits.digits
    )


def test_cm_regular_product_triple():
    form = cm_regular_product_triple(72, [A84, B84])
    assert validate_k_stage(form).ok
    assert expand_k_stage(form).digits == direct_sum_digits(A84.digits, [72 * b for b in B84.digits])

    f2 = cm_regular_product_triple(4, [DigitSet(4, (0, 1)), DigitSet(4, (0, 2))])
    assert [s.digits for s in f2.spectra] == [(0, 2), (0, 1)]

    triv = cm_regular_product_triple(4, [DigitSet(4, (0, 1, 2, 3))])
    assert triv.stages == 0

    with pytest.raises(NotCompleteResidues):
        cm_regular_product_triple(4, [DigitSet(4, (0, 1)), DigitSet(4, (0, 1))])
    with pytest.raises(NotCompleteResidues):
        cm_regular_product_triple(4, [DigitSet(4, (0, 1)), DigitSet(4, (0, 5))])


def test_congruence_check_dataclass():
    good = CongruenceCheck("x", (0, 3), (0, 1), 2)
    assert good.ok
    bad = CongruenceCheck("y", (0, 3), (0, 2), 4)
    assert not bad.ok
