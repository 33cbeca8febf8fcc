import itertools
import math
import random

import pytest

from spectralforge import cm_tiling, cyclotomic
from spectralforge.cli import k_stage_to_json
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
from spectralforge.cyclotomic import (
    MaskPolynomial,
    cyclotomic_poly,
    divides,
    euler_phi,
    factorize,
    has_cyclotomic_factor,
    vanishing_by_division,
)
from spectralforge.digitsets import DigitSet, direct_sum_digits
from spectralforge.errors import (
    CoverageFailure,
    InvalidVariantParams,
    KernelDivisibilityFailure,
    NotCompleteResidues,
    OverlapError,
    SearchLimitReached,
)
from spectralforge.hadamard import check_triple
from spectralforge.productform import KStageForm, expand_k_stage, validate_k_stage

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

    # negative and congruent digits count once per residue mod N
    p30 = cm_profile(DigitSet(30, (-30, 0, 10, -10, 15, 25, 65)), 30)
    assert p30.s_indices == (2, 3) and p30.t1 and p30.t2
    assert p30.t1_detail == "|A mod N| = 6 vs product 6"
    assert p30.tiling_spectrum.digits == (0, 10, 15, 20, 25, 35)

    p90 = cm_profile(UNDECIDED90, 90)
    assert p90.s_indices == (2, 3, 5) and p90.t1 and not p90.t2
    assert p90.t2_detail == "Phi_15 (from (3, 5)) does not divide the mask"


def _profile_by_division(digits, n):
    """(S_A, T1, T2, T1 detail, T2 detail) of the residues of ``digits``
    mod N, each "Phi_s divides the mask" decided by exact division."""
    residues = sorted({d % n for d in digits})
    prime = {s: factorize(s)[0][0] for s in _divisors(n) if len(factorize(s)) == 1}
    s_indices = tuple(s for s in sorted(prime) if vanishing_by_division(residues, 1, s))
    expected = math.prod(prime[s] for s in s_indices)
    by_prime = {}
    for s in s_indices:
        by_prime.setdefault(prime[s], []).append(s)
    t2_detail = ""
    for r in range(2, len(by_prime) + 1):
        for chosen in itertools.combinations(sorted(by_prime), r):
            for combo in itertools.product(*(by_prime[p] for p in chosen)):
                if not t2_detail and not vanishing_by_division(residues, 1, math.prod(combo)):
                    t2_detail = f"Phi_{math.prod(combo)} (from {combo}) does not divide the mask"
    t1_detail = f"|A mod N| = {len(residues)} vs product {expected}"
    return s_indices, len(residues) == expected, not t2_detail, t1_detail, t2_detail


def test_cm_profile_against_division_sweep():
    """1,200 seeded sets over N <= 400, three-prime N included, with
    negative and congruent digits: half random, half sums of factor sets
    s*{0..p-1} (p a prime of N below 12, s random or N/p^e) moved by
    multiples of N, so that T1 and T2 each hold and fail.  The profile
    equals the one decided by exact division."""
    rng = random.Random(19)
    bases = [30, 60, 105, 210, 330, 390] + [rng.randrange(2, 401) for _ in range(54)]
    seen = set()
    for n in bases:
        primes = [p for p, _ in factorize(n) if p < 12]
        for trial in range(20):
            if trial % 2 or not primes:
                digits = {rng.randrange(-2 * n, 3 * n) for _ in range(rng.randrange(1, 13))}
            else:
                digits = [0]
                for _ in range(rng.randrange(1, 4)):
                    p = rng.choice(primes)
                    s = rng.choice([rng.randrange(1, n), n // p ** rng.randrange(1, 4)])
                    digits = [x + e * s for x in digits for e in range(p)]
                digits = {x + n * rng.randrange(-2, 3) for x in digits}
            prof = cm_profile(DigitSet(max(n, 2), tuple(digits)), n)
            got = (prof.s_indices, prof.t1, prof.t2, prof.t1_detail, prof.t2_detail)
            assert got == _profile_by_division(digits, n), (n, sorted(digits))
            seen.add((prof.t1, prof.t2))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


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


def _tiles_by_count(digits, complement, n):
    return len(digits) * len(complement) == n and len(
        {(a + c) % n for a in digits for c in complement}
    ) == n


def test_check_tile_examples():
    v = check_tile_zn(DigitSet(4, (0, 2)), 4)
    assert (v.verdict, v.tiles) == ("TilesByT1T2", True)
    assert tile_complement(DigitSet(4, (0, 2)), 4) is not None
    assert v.witness.digits == (0, 1)

    v83 = check_tile_zn(DigitSet(24, (0, 1, 16, 17)), 24)
    assert (v83.verdict, v83.tiles, v83.witness) == ("NotTileByT1Failure", False, None)
    assert tile_complement(DigitSet(24, (0, 1, 16, 17)), 24) is None

    # direct-sum completeness gives an exact tiling of Z_72 with witness B
    comp = tile_complement(A84, 72)
    assert comp is not None
    got = direct_sum_digits(A84.digits, comp)
    assert sorted(x % 72 for x in got) == list(range(72))
    # S_A = {3, 4}, M = 12; 2 is the one prime power of M outside S_A and
    # t(2) = 3, so B = {0, 3} and C = B (+) 12*{0..5}
    v84 = check_tile_zn(A84, 72)
    assert v84.verdict == "TilesByT1T2"
    assert v84.witness.digits == tuple(sorted(b + 12 * k for b in (0, 3) for k in range(6)))
    assert _tiles_by_count(A84.digits, v84.witness.digits, 72)


def test_tile_complement_deep_search():
    # 2000 translates deep: beyond the interpreter's recursion limit
    comp = tile_complement(DigitSet(4000, (0, 1)), 4000)
    assert sorted(comp) == list(range(0, 4000, 2))
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
    """All 0-anchored sets with N <= 24 and |A| in {1, 2, 3, 4} dividing N,
    and with |A| = 6 for N <= 18 (where the B2 sets are): the verdict
    agrees with the exhaustive search, and every witness tiles by
    counting."""
    verdicts = set()
    for n in range(2, 25):
        for k in (1, 2, 3, 4, 6):
            if n % k or (k == 6 and n > 18):
                continue
            for rest in itertools.combinations(range(1, n), k - 1):
                a = DigitSet(n, (0,) + rest)
                verdict = check_tile_zn(a, n)
                verdicts.add(verdict.verdict)
                assert verdict.tiles == (tile_complement(a, n) is not None), (n, a.digits)
                if verdict.tiles:
                    assert _tiles_by_count(a.digits, verdict.witness.digits, n), (n, a.digits)
                else:
                    assert verdict.witness is None
    assert verdicts == {"TilesByT1T2", "NotTileByT1Failure", "NotTileByCMB2"}


def test_sampled_agreement_larger_bases():
    rng = random.Random(1234)
    for _ in range(60):
        n = rng.randrange(13, 21)
        k = rng.choice([k for k in (2, 3, 4, 5, 6) if n % k == 0] or [1])
        digits = (0,) + tuple(sorted(rng.sample(range(1, n), k - 1)))
        verdict = check_tile_zn(DigitSet(max(n, 2), digits), n)
        assert verdict.tiles == (tile_complement(DigitSet(n, digits), n) is not None), (n, digits)


# |A| = 30 = 2*3*5 with S_A = {2, 3, 5} mod 90 (T1), but Phi_15 does not
# divide the mask (T2 fails): no theorem decides, so the search runs.
# D is balanced mod 3 and mod 5 without vanishing at a primitive 15th root;
# A = D (+) {0, 45}.
_D15 = (0, 1, 6, 7, 8, 13, 14, 15, 21, 22, 23, 29, 30, 37, 44)
UNDECIDED90 = DigitSet(90, _D15 + tuple(x + 45 for x in _D15))


def test_undecided_set_is_searched_under_the_cap(monkeypatch):
    from spectralforge import cm_tiling

    prof = cm_profile(UNDECIDED90, 90)
    assert prof.s_indices == (2, 3, 5) and prof.t1 and not prof.t2
    v = check_tile_zn(UNDECIDED90, 90)
    assert (v.verdict, v.tiles, v.witness) == ("Unknown", False, None)
    assert tile_complement(UNDECIDED90, 90) is None

    monkeypatch.setattr(cm_tiling, "SEARCH_STATE_CAP", 2)
    capped = check_tile_zn(UNDECIDED90, 90)
    assert (capped.verdict, capped.tiles, capped.witness) == ("Unknown", None, None)
    assert "SEARCH_STATE_CAP = 2" in capped.detail
    with pytest.raises(SearchLimitReached):
        tile_complement(UNDECIDED90, 90)


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
    spectra = [DigitSet(4, (0,)), DigitSet(4, (0,))]  # not reached: the expansion fails first
    for build in (generate_modulo_product_form, lambda spec: modulo_to_k_stage(spec, spectra)):
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


def test_modulo_to_k_stage_with_given_spectra():
    spec2 = modulo_spec(4, [(0, 1), (0, 2)], [2, 4], [1], {(1, 1, 2): 1})
    spectra = [DigitSet(4, (0, 2)), DigitSet(4, (0, 1))]
    form, report = modulo_to_k_stage(spec2, spectra)
    assert report.ok
    assert expand_k_stage(form).digits == (0, 1, 8, 25)
    # stage layer is parent-keyed
    assert not isinstance(form.layers[0], DigitSet)
    with pytest.raises(ValueError):
        modulo_to_k_stage(spec2, spectra[:1])


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


def test_kernel_poly_equals_the_eagerly_composed_product():
    """KernelData.poly multiplies out the cyclotomic indices; on the
    acceptance-7 shapes it equals the product K^(j) of the
    Phi_d(x^(N^(l_1+..+l_i))) over i <= j and d in S_i, at every level."""
    for (p, q, alpha) in ((2, 3, 2), (2, 3, 3), (3, 2, 2)):
        for variant in ("i", "ii", "iii"):
            spec = paq_type_generator(p, q, alpha, variant).spec_generated
            masks = [MaskPolynomial.from_digits(part.digits) for part in spec.parts]
            s_sets = [[d for d in spec.t_indices if d > 1 and has_cyclotomic_factor(mask, d)] for mask in masks]
            eager = MaskPolynomial.one()
            for j, kernel in enumerate(spec_kernels(spec)):
                scale = spec.base ** sum(spec.ells[:j])
                for d in s_sets[j]:
                    eager = eager * cyclotomic_poly(d).compose_power(scale)
                assert kernel.poly == eager, (p, q, alpha, variant, j)


def test_four_digit_set_as_modulo_form_matches_construction():
    """The scaled four-digit set realized as a modulo product-form: the
    explicit tiling spectra of its factor sets reproduce the dedicated
    construction's spectra exactly, and the expansion is 3 times the
    original digits."""
    from spectralforge.productform import build_four_digit_form

    spec = modulo_spec(24, [(0, 3), (0, 2)], [2, 4, 6], [1])
    assert generate_modulo_product_form(spec).digits == (0, 3, 48, 51)
    form, report = modulo_to_k_stage(spec, [cm_profile(part, 24).tiling_spectrum for part in spec.parts])
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


def test_one_staged_builder_beyond_the_acceptance_shapes():
    """alpha = 1, the pairs (2,5), (5,2) and (3,5), and variant-ii shift
    exponents whose stages merge: every result is validated, its form
    expands to the generated set, which is the multiplier times N tile
    digits, and its factor sets are a complete residue system mod N.  (The
    digits themselves are not: stage j puts its factor set at N^j.)"""
    shapes = [
        (p, q, alpha, variant, None)
        for p, q in ((2, 3), (2, 5), (5, 2), (3, 5))
        for alpha in (1, 2)
        for variant in ("i", "ii", "iii")
        if alpha > 1 or variant != "ii"
    ]
    merging = [(2, 3, 3, "ii", (2, 1)), (2, 5, 3, "ii", (1, 0))]
    for p, q, alpha, variant, ms in shapes + merging:
        res = paq_type_generator(p, q, alpha, variant, m_values=ms)
        n = p**alpha * q
        assert res.report.ok, (p, q, alpha, variant, ms)
        assert expand_k_stage(res.form) == res.generated
        assert res.generated.digits == tuple(res.multiplier * x for x in res.digits.digits)
        assert len(res.digits) == n
        parts = [part.digits for part in res.spec_generated.parts]
        assert sorted(x % n for x in direct_sum_digits(*parts)) == list(range(n))
        if (p, q, alpha, variant, ms) in merging:
            # two p-power factors share an exponent: alpha factor sets after level 0 become alpha - 1
            assert res.spec_generated.stages == alpha - 1


def test_variant_ii_congruences_and_multiplier():
    res = paq_type_generator(2, 3, 2, "ii")
    assert res.multiplier == 3
    assert len(res.congruences) == 3
    for c in res.congruences:
        assert c.ok, c.label
    # the nested shape E_p (+) p^(alpha(M+1)+k)*E_q (+) p^(alpha*M_1+1)*E_p,
    # here M = M_1 = k = 1, with the indices of each scaled factor's mask
    scaled = ((2, 1), (3, 2**5), (2, 2**3))
    nested_spec = modulo_spec(
        12,
        [[s * e for e in range(r)] for r, s in scaled],
        sorted({d for r, s in scaled for d in _divisors(r * s) if s % d}),
        [1, 1],
    )
    nested = generate_modulo_product_form(nested_spec)
    # the nested shape's own kernel certificate also holds
    kernel = spec_kernels(nested_spec)[-1].poly
    low = min(nested.digits)
    mask = MaskPolynomial.from_digits(tuple(x - low for x in nested.digits))
    assert divides(kernel, mask)
    # multiplied digits == multiplier * nested digits when no shifts are used
    assert res.digits.digits == nested.digits
    assert res.generated.digits == tuple(3 * x for x in nested.digits)

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
        assert kd.n_j == kd.n_j_scaled

    res_ii = paq_type_generator(2, 3, 2, "ii")
    kernels = spec_kernels(res_ii.spec_generated)
    assert all(kd.n_j_scaled % kd.n_j == 0 for kd in kernels)
    assert kernels[-1].n_j != kernels[-1].n_j_scaled  # documented counterexample


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


def test_each_paq_spec_is_derived_once(monkeypatch):
    """One kernel derivation per spec: the tile's spec, plus variant ii's
    nested spec only when the nested shape is compared (no zshifts), and
    one layered expansion of the tile's spec before its validation."""
    calls = {"spec_kernels": 0, "nested": 0, "expand": 0}
    at_validation = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def validate(form):
        at_validation.append(calls["expand"])
        return validate_k_stage(form)

    monkeypatch.setattr(cm_tiling, "spec_kernels", counted("spec_kernels", cm_tiling.spec_kernels))
    monkeypatch.setattr(cm_tiling, "_variant_ii_nested", counted("nested", cm_tiling._variant_ii_nested))
    monkeypatch.setattr(cm_tiling, "_expand_layers", counted("expand", cm_tiling._expand_layers))
    monkeypatch.setattr(cm_tiling, "validate_k_stage", validate)
    cases = [
        ((2, 3, 2, "i"), None, {"spec_kernels": 1, "nested": 0, "expand": 1}),
        ((3, 2, 2, "ii"), None, {"spec_kernels": 2, "nested": 1, "expand": 2}),
        ((3, 2, 2, "ii"), {(1, 2, 27): 1}, {"spec_kernels": 1, "nested": 0, "expand": 1}),
    ]
    for args, zshifts, want in cases:
        calls.update(dict.fromkeys(calls, 0))
        at_validation.clear()
        assert paq_type_generator(*args, zshifts=zshifts).report.ok
        assert (calls, at_validation) == (want, [1]), (args, zshifts)


def test_spec_kernels_leaves_coverage_to_the_kernel():
    """{0, 2} (+) {0, 1}: Phi_4 divides the first mask and Phi_2 the second.
    Phi_3 divides neither, and nothing is Phi_1, so either target raises
    CoverageFailure; parts that do not sum directly raise OverlapError
    first."""
    assert [kd.cyclotomic_indices for kd in spec_kernels(modulo_spec(4, [(0, 2), (0, 1)], (2, 4), (1,)))] == [
        ((4, 1),), ((4, 1), (8, 1)),
    ]
    for targets in ((2, 3, 4), (1, 2, 4)):
        with pytest.raises(CoverageFailure):
            spec_kernels(modulo_spec(4, [(0, 2), (0, 1)], targets, (1,)))
    with pytest.raises(OverlapError):
        spec_kernels(modulo_spec(4, [(0, 1), (0, 1)], (3,), (1,)))


def test_spec_kernels_tests_the_parts_not_their_sum(monkeypatch):
    """No vanishing test on a classify-paq spec receives the N digits of
    the full direct sum."""
    seen = []

    def recorded(fn):
        def wrapper(d_set, t, n):
            seen.append(tuple(d_set))
            return fn(d_set, t, n)
        return wrapper

    spec = paq_type_generator(2, 3, 2, "i").spec_generated
    full = direct_sum_digits(*[p.digits for p in spec.parts])
    assert len(full) == 12
    monkeypatch.setattr(cm_tiling, "vanishing_sum_test", recorded(cm_tiling.vanishing_sum_test))
    monkeypatch.setattr(cyclotomic, "vanishing_sum_test", recorded(cyclotomic.vanishing_sum_test))
    spec_kernels(spec)
    assert seen and all(len(digits) < len(full) for digits in seen)


def test_cm_regular_product_triple():
    form = cm_regular_product_triple(72, [A84, B84])
    assert validate_k_stage(form).ok
    assert expand_k_stage(form).digits == direct_sum_digits(A84.digits, [72 * b for b in B84.digits])

    # the Z_72 pair under every unit, against the form assembled from the
    # definitions: A at level 0, the constant layer B at N^1, and each
    # part's explicit tiling spectrum
    for u in (u for u in range(1, 72) if math.gcd(u, 72) == 1):
        a, b = (DigitSet(72, tuple(u * x % 72 for x in s.digits)) for s in (A84, B84))
        spectra = tuple(cm_profile(part, 72).tiling_spectrum for part in (a, b))
        want = KStageForm(base=72, ells=(1,), e0=a, layers=(b,), spectra=spectra)
        assert k_stage_to_json(cm_regular_product_triple(72, [a, b])) == k_stage_to_json(want)

    f2 = cm_regular_product_triple(4, [DigitSet(4, (0, 1)), DigitSet(4, (0, 2))])
    assert [s.digits for s in f2.spectra] == [(0, 2), (0, 1)]

    triv = cm_regular_product_triple(4, [DigitSet(4, (0, 1, 2, 3))])
    assert triv.stages == 0

    with pytest.raises(NotCompleteResidues):
        cm_regular_product_triple(4, [DigitSet(4, (0, 1)), DigitSet(4, (0, 1))])
    with pytest.raises(NotCompleteResidues):
        cm_regular_product_triple(4, [DigitSet(4, (0, 1)), DigitSet(4, (0, 5))])


def test_cm_regular_product_triple_is_certified(monkeypatch):
    """The form is certified against its kernel polynomial: a refused
    cyclotomic factor raises before any form is returned."""
    monkeypatch.setattr(cm_tiling, "has_cyclotomic_factor", lambda *args: False)
    with pytest.raises(KernelDivisibilityFailure):
        cm_regular_product_triple(72, [A84, B84])


def test_congruence_check_dataclass():
    good = CongruenceCheck("x", (0, 3), (0, 1), 2)
    assert good.ok
    bad = CongruenceCheck("y", (0, 3), (0, 2), 4)
    assert not bad.ok
