import itertools
import random

import pytest

from spectralforge import cli, cm_tiling, cyclotomic, digitsets, hadamard, productform
from spectralforge.digitsets import DigitSet, direct_sum_digits, stacked_digits
from spectralforge.errors import (
    InvalidVariantParams,
    OverlapError,
    TDivisibleByBeta,
    ValidationFailure,
)
from spectralforge.hadamard import check_triple, find_spectra
from spectralforge.productform import (
    KStageForm,
    build_four_digit_form,
    check_layer_keys,
    expand_k_stage,
    expand_one_stage,
    k_stage_form,
    k_stage_to_one_stage,
    one_stage_form,
    translate_and_gcd_normalize,
    validate_k_stage,
    validate_one_stage,
)


def _form14():
    return one_stage_form(
        4, 1, (0, 1), {0: DigitSet(4, (0, 2)), 1: DigitSet(4, (0, 6))}, (0, 2), (0, 1)
    )


def _form23():
    return one_stage_form(
        4, 1, (0, 1), {0: DigitSet(4, (0, 2)), 1: DigitSet(4, (0, 2))}, (0, 2), (0, 1)
    )


def test_expand_one_stage_examples():
    assert expand_one_stage(_form14()).digits == (0, 1, 8, 25)
    assert expand_one_stage(_form23()).digits == (0, 1, 8, 9)
    # r = 0 collapses to the union of a_s + B_s
    f0 = one_stage_form(4, 0, (0, 1), {0: DigitSet(4, (0, 2)), 1: DigitSet(4, (0, 2))}, (0, 2), (0, 1))
    assert expand_one_stage(f0).digits == (0, 1, 2, 3)


def test_expand_overlap_error():
    f = one_stage_form(4, 1, (0, 4), {0: DigitSet(4, (0, 1)), 4: DigitSet(4, (0, 1))}, (0, 1), (0, 2))
    with pytest.raises(OverlapError) as err:
        expand_one_stage(f)
    assert (err.value.digit, err.value.first, err.value.second) == (4, (0, 1), (4, 0))
    assert err.value.stage is None and "stage" not in str(err.value)


def test_validate_one_stage():
    assert validate_one_stage(_form14()).ok
    assert validate_one_stage(_form23()).ok
    bad = one_stage_form(
        4, 1, (0, 1), {0: DigitSet(4, (0, 2)), 1: DigitSet(4, (0, 2))}, (0, 2), (0, 2)
    )
    rep = validate_one_stage(bad)
    assert not rep.ok
    assert any("B-triple" in c.name for c in rep.checks if not c.ok)
    triv = one_stage_form(5, 1, (0,), {0: DigitSet(5, (0,))}, (0,), (0,))
    assert validate_one_stage(triv).ok


def test_one_stage_decides_each_distinct_b_set_once(monkeypatch):
    """Six digits share three B-sets, one of which collides with A: two
    product checks are made, and the rows equal a per-digit check."""
    b_sets = {0: (0, 2), 1: (0, 6), 4: (0, 2), 5: (0, 1), 8: (0, 6), 9: (0, 2)}
    b_map = {a: DigitSet(4, b) for a, b in b_sets.items()}
    form = one_stage_form(4, 1, sorted(b_sets), b_map, (0, 2, 5), (0, 1))
    l_sum = DigitSet(4, direct_sum_digits(form.l1.digits, form.l2.digits))
    expected, products = [], set()
    for a, b in form.b_sets:
        name = f"product-triple (N, A(+)B[{a}], L1(+)L2)"
        try:
            ab = DigitSet(4, direct_sum_digits(form.a_set.digits, b.digits))
        except OverlapError as exc:
            expected.append(f"[FAIL] {name} -- {exc}")
            continue
        products.add(ab.digits)
        rep = check_triple(4, ab, l_sum)
        expected.append(f"[ok] {name}" if rep is None else f"[FAIL] {name} -- {rep}")
    calls = []

    def counted(n, d, l):
        calls.append(d.digits)
        return check_triple(n, d, l)

    monkeypatch.setattr(productform, "check_triple", counted)
    rows = [str(c) for c in validate_one_stage(form).checks if c.name.startswith("product-triple")]
    assert rows == expected
    assert len(products) == 2
    assert sum(d in products for d in calls) == 2


def _z72_staged():
    """The staged form of the Z_72 tiling pair."""
    parts = [DigitSet(72, (0, 8, 16, 18, 26, 34)), DigitSet(72, (0, 5, 6, 9, 12, 29, 33, 36, 42, 48, 53, 57))]
    return cm_tiling.cm_regular_product_triple(72, parts)


def _z72_reduction():
    """reduce-kstage --k 2 on the Z_72 tiling pair: 432 B rows over
    N = 5,184, every one the same 12-digit set."""
    return k_stage_to_one_stage(_z72_staged(), 2)


def _one_object_per_b_set(form):
    """The number of distinct B-sets, after checking that each has one object."""
    objects = {id(b) for _, b in form.b_sets}
    assert len(objects) == len({(b.base, b.digits, b.offset) for _, b in form.b_sets})
    return len(objects)


def test_equal_b_sets_share_one_digit_set():
    """From JSON with repeated lists, from the Z_72 reduction and from
    one_stage_form, a form holds one DigitSet per distinct B-set; equal
    digits under different offsets stay apart."""
    obj = {"base": 4, "r": 1, "A": [0, 1, 4, 5], "L1": ["0", "2"], "L2": ["0", "1"],
           "Bs": {"0": ["0", "2"], "1": ["0", "6"], "4": ["0", "2"], "5": ["0", "6"]}}
    assert _one_object_per_b_set(cli.one_stage_from_json(obj)) == 2
    # a list equal to a parsed one is not parsed for it: [true, 2] == [1, 2]
    obj["Bs"] = {"0": [1, 2], "1": [True, 2], "4": ["0", "2"], "5": ["0", "6"]}
    with pytest.raises(ValueError, match="expected an integer, got True"):
        cli.one_stage_from_json(obj)
    z72 = _z72_reduction()
    assert len(z72.b_sets) == 432 and _one_object_per_b_set(z72) == 1
    b_map = {a: DigitSet(4, (0, 2)) for a in (0, 1, 4)}
    b_map[5] = DigitSet(4, (0, 2), offset=3)
    form = one_stage_form(4, 1, (0, 1, 4, 5), b_map, (0, 2), (0, 1))
    assert _one_object_per_b_set(form) == 2
    assert [b.offset for _, b in form.b_sets] == [0, 0, 0, 3]


def test_z72_validation_counts(monkeypatch):
    """validate_one_stage on the Z_72 reduction, read back from JSON as
    validate-form reads it: 10,996 vanishing tests (the bench's per-job
    pin), and L2's difference set built once for its 432 B rows."""
    form = cli.one_stage_from_json(cli.one_stage_to_json(_z72_reduction()))
    vanishing, differences = [], []
    real_test, real_diffs = hadamard.vanishing_sum_test, hadamard._ordered_differences
    monkeypatch.setattr(hadamard, "vanishing_sum_test", lambda d, t, n: vanishing.append(t) or real_test(d, t, n))
    monkeypatch.setattr(hadamard, "_ordered_differences", lambda ls, n: differences.append(ls) or real_diffs(ls, n))
    assert validate_one_stage(form).ok
    assert len(vanishing) == 10_996
    assert differences.count(form.l2.digits) == 1


def test_z72_work_done_once(monkeypatch):
    """On the Z_72 pair: the reduction expands its one-stage form once (for
    the collision row), validate_one_stage builds L1 (+) L2 once, and
    validate_k_stage on the valid staged form never walks a stage for its
    witnesses."""
    staged, form = _z72_staged(), _z72_reduction()
    expansions, sums = [], []
    real_expand, real_sum = productform.expand_one_stage, productform.direct_sum_digits
    monkeypatch.setattr(productform, "expand_one_stage", lambda f: expansions.append(f) or real_expand(f))
    monkeypatch.setattr(productform, "direct_sum_digits", lambda *parts: sums.append(parts) or real_sum(*parts))
    assert k_stage_to_one_stage(staged, 2).b_sets == form.b_sets
    assert len(expansions) == 1
    sums.clear()
    assert validate_one_stage(form).ok
    assert sums.count((form.l1.digits, form.l2.digits)) == 1

    def no_walk(*args):
        raise AssertionError("validate_k_stage walked a stage for its witnesses")

    assert not hasattr(productform, "_stage_witnesses")
    monkeypatch.setattr(digitsets, "_stage_witnesses", no_walk)
    assert validate_k_stage(staged).ok


def test_failing_one_stage_product_rows():
    """A form whose every other triple holds but whose products fail, and a
    product whose digit sum repeats a digit: the exact report lines."""
    f = one_stage_form(6, 1, (0, 1), {0: DigitSet(6, (0, 3)), 1: DigitSet(6, (0, 3))}, (0, 3), (0, 1))
    assert str(validate_one_stage(f)).splitlines() == [
        "[ok] A-triple (N, A, L1)",
        "[ok] B-cardinality |B_s| all equal",
        "[ok] B-triple (N, B[0], L2)",
        "[ok] B-triple (N, B[1], L2)",
        "[ok] L1 (+) L2 direct",
        "[FAIL] product-triple (N, A(+)B[0], L1(+)L2) -- orthogonality failure in spectrum pair: pair (0, 4)",
        "[FAIL] product-triple (N, A(+)B[1], L1(+)L2) -- orthogonality failure in spectrum pair: pair (0, 4)",
        "[ok] expansion collision-free",
    ]
    f = one_stage_form(4, 1, (0, 1), {0: DigitSet(4, (0, 1)), 1: DigitSet(4, (0, 2))}, (0, 2), (0, 1))
    assert [str(c) for c in validate_one_stage(f).checks if c.name.startswith("product")] == [
        "[FAIL] product-triple (N, A(+)B[0], L1(+)L2) -- digit collision: 1 produced by (0, 1) and (1, 0)",
        "[ok] product-triple (N, A(+)B[1], L1(+)L2)",
    ]


def test_failing_k_stage_product_rows():
    """A repeated digit sum, a repeated spectrum sum and an orthogonality
    failure in the prefix and suffix products: the exact report lines."""
    digits = k_stage_form(4, (1,), (0, 1), [DigitSet(4, (0, 1))], [(0, 2), (0, 2)])
    assert str(validate_k_stage(digits)).splitlines() == [
        "[ok] level-0 triple (N, E0, L0)",
        "[ok] expansion collision-free",
        "[ok] stage-1 triple (N, E_1(0), L_1)",
        "[FAIL] prefix-1 product [2] -- digit collision: 1 produced by (0, 1) and (1, 0)",
        "[ok] suffix-1 product [2]",
    ]
    # the digits {0, 4} (+) {0, 12} are direct; the spectra {0, 9} (+) {0, 9} are not
    spectra = k_stage_form(8, (1,), (0, 4), [DigitSet(8, (0, 12))], [(0, 9), (0, 9)])
    assert str(validate_k_stage(spectra)).splitlines() == [
        "[ok] level-0 triple (N, E0, L0)",
        "[ok] expansion collision-free",
        "[ok] stage-1 triple (N, E_1(0), L_1)",
        "[FAIL] prefix-1 product [2] -- digit collision: 9 produced by (0, 9) and (9, 0)",
        "[ok] suffix-1 product [2]",
    ]
    orthogonal = k_stage_form(6, (1,), (0, 1), [DigitSet(6, (0, 3))], [(0, 3), (0, 1)])
    assert str(validate_k_stage(orthogonal)).splitlines() == [
        "[ok] level-0 triple (N, E0, L0)",
        "[ok] expansion collision-free",
        "[ok] stage-1 triple (N, E_1(0), L_1)",
        "[FAIL] prefix-1 product [2] -- orthogonality failure in spectrum pair: pair (0, 4)",
        "[ok] suffix-1 product [2]",
    ]


def reduce_r_to_1(f):
    """The r -> 1 rewrite of a one-stage form over N^r: the form read as a
    k-stage form with one stage at scale r, reduced over base N^r."""
    return k_stage_to_one_stage(KStageForm(f.base, (f.r,), f.a_set, (f.b_sets,), (f.l1, f.l2)))


def test_reduce_r_to_1_example():
    f = one_stage_form(4, 2, (0, 1), {0: DigitSet(4, (0, 2)), 1: DigitSet(4, (0, 2))}, (0, 2), (0, 1))
    red = reduce_r_to_1(f)
    assert red.base == 16 and red.r == 1
    assert red.a_set.digits == (0, 1, 4, 5)
    assert all(b.digits == (0, 2, 8, 10) for _, b in red.b_sets)
    assert validate_one_stage(red).ok


def test_reduce_r_to_1_expansion_identity():
    """expand(reduced) equals D_r + N D_r + ... + N^(r-1) D_r, exactly."""
    cases = [
        one_stage_form(4, 2, (0, 1), {0: DigitSet(4, (0, 2)), 1: DigitSet(4, (0, 6))}, (0, 2), (0, 1)),
        one_stage_form(4, 3, (0, 1), {0: DigitSet(4, (0, 2)), 1: DigitSet(4, (0, 2))}, (0, 2), (0, 1)),
    ]
    for f in cases:
        d_r = expand_one_stage(f).digits
        stacked = direct_sum_digits(*[[f.base**j * x for x in d_r] for j in range(f.r)])
        red = reduce_r_to_1(f)
        assert expand_one_stage(red).digits == stacked


def test_reduce_r_to_1_collision_names_two_sums():
    # 1 + 4*1 = 5 + 4*0: the stacked A is not a direct sum
    f = one_stage_form(4, 2, (0, 1, 5), {a: DigitSet(4, (0, 2)) for a in (0, 1, 5)}, (0, 2), (0, 1))
    with pytest.raises(OverlapError) as err:
        reduce_r_to_1(f)
    assert err.value.digit == 5
    assert err.value.first != err.value.second
    assert sum(err.value.first) == sum(err.value.second) == 5


def test_reduce_r_to_1_congruent_new_a_digits():
    """The new A digits 0 + 4*3 = 12 and 0 + 4*11 = 44 agree mod 16: the
    reduction stops before reading B-sets off the stacked digits, so no
    B-triple row reports a fault that the form does not have."""
    b_map = {0: DigitSet(4, (0, 2)), 3: DigitSet(4, (2, 3)), 11: DigitSet(4, (4, 6))}
    f = one_stage_form(4, 2, (0, 3, 11), b_map, (1, 2, 3), (1, 2))
    with pytest.raises(ValidationFailure) as err:
        reduce_r_to_1(f)
    assert [str(c) for c in err.value.report.checks] == [
        "[FAIL] A-triple (N, A, L1) -- duplicate residue in digits: 12 == 44 (mod 16)",
        "[FAIL] B-extraction -- new A digits 12 == 44 (mod 16)",
    ]


def test_invalid_k_stage_form_decides_each_root_order_once():
    """Thousands of vanishing tests over base 20,736 reach few (digits,
    root order) keys, and each is decided once: a decision is a miss of
    the memo."""
    cyclotomic._vanishes_at_order.cache_clear()
    ks = k_stage_form(
        12,
        (2, 2),
        (1, 2, 6, 11, 15, 16),
        [DigitSet(12, (12, 18)), DigitSet(12, (0,))],
        [(2, 4, 10, 12, 18, 20), (0, 1), (1, 3)],
    )
    with pytest.raises(ValidationFailure) as err:
        k_stage_to_one_stage(ks)
    assert "L1 (+) L2 direct" in {c.name for c in err.value.report.checks if not c.ok}
    assert 0 < cyclotomic._vanishes_at_order.cache_info().misses <= 100


def _random_valid_one_stage(rng, r):
    """A over a complete residue system mod m1, B_a = m1*{0..m2-1} up to
    multiples of m1*m2, and L1, L2 the matching dual sets up to multiples
    of N: every triple of the form holds by construction."""
    m1_max, size_max = (3, 6) if r == 2 else (2, 4)  # |A|^r products to check
    shapes = [(n, m1, m2) for n in (4, 6, 8, 9, 12) for m1 in range(2, m1_max + 1)
              for m2 in range(1, n + 1) if n % (m1 * m2) == 0 and m1 * m2 <= size_max]
    n, m1, m2 = rng.choice(shapes)
    a_digits = [i + m1 * rng.randrange(n // m1) for i in range(m1)]
    b_map = {a: DigitSet(n, tuple(m1 * j + m1 * m2 * rng.randrange(3) for j in range(m2)))
             for a in a_digits}
    l1 = [n // m1 * j + n * rng.randrange(2) for j in range(m1)]
    l2 = [n // (m1 * m2) * j + n * rng.randrange(2) for j in range(m2)]
    return one_stage_form(n, r, a_digits, b_map, l1, l2)


def test_reduce_r_to_1_random_sweep():
    """The reduced form is the stacked construction of the docstring:
    A, L1, L2 stack r times, and the B over sum_j N^j a_(i_j) is
    sum_j N^j B_(a_(i_j))."""
    rng = random.Random(6)
    for trial in range(24):
        f = _random_valid_one_stage(rng, 2 + trial % 2)
        assert validate_one_stage(f).ok
        n, r = f.base, f.r
        red = reduce_r_to_1(f)
        assert (red.base, red.r) == (n**r, 1)
        assert red.a_set.digits == stacked_digits(f.a_set.digits, n, r)
        assert red.l1.digits == stacked_digits(f.l1.digits, n, r)
        assert red.l2.digits == stacked_digits(f.l2.digits, n, r)
        b_new = red.b_map
        for combo in itertools.product(f.a_set.digits, repeat=r):
            a_new = sum(n**j * a for j, a in enumerate(combo))
            parts = [[n**j * b for b in f.b_map[a].digits] for j, a in enumerate(combo)]
            assert b_new[a_new].digits == direct_sum_digits(*parts)


def test_translate_and_gcd_normalize():
    f = one_stage_form(4, 1, (0, 1), {0: DigitSet(4, (2, 4)), 1: DigitSet(4, (0, 6))}, (0, 2), (0, 1))
    norm, shifts, g = translate_and_gcd_normalize(f)
    assert shifts == {0: 2, 1: 0}
    assert all(b.digits[0] == 0 for _, b in norm.b_sets)
    assert validate_one_stage(norm).ok

    # gcd > 1: every level-0 digit divisible by 3
    f3 = one_stage_form(
        4, 1, (0, 3), {0: DigitSet(4, (0, 6)), 3: DigitSet(4, (0, 6))}, (0, 2), (0, 1)
    )
    norm3, _, g3 = translate_and_gcd_normalize(f3)
    assert g3 == 3
    assert norm3.a_set.digits == (0, 1)
    assert all(b.digits == (0, 2) for _, b in norm3.b_sets)
    assert norm3.l1.digits == (0, 6) and norm3.l2.digits == (0, 3)

    # already normal: identity up to revalidation
    n14, shifts14, g14 = translate_and_gcd_normalize(_form14())
    assert g14 == 1 and set(shifts14.values()) == {0}
    assert expand_one_stage(n14).digits == expand_one_stage(_form14()).digits

    # r = 0 translation collisions are an error, never a silent merge
    f_collide = one_stage_form(
        4, 0, (0, 1), {0: DigitSet(4, (1, 3)), 1: DigitSet(4, (0, 2))}, (0, 1), (0, 2)
    )
    with pytest.raises(OverlapError):
        translate_and_gcd_normalize(f_collide)


def test_translate_collision_names_both_digits():
    """At r = 1, N = 2, the branches a = 0 (B_0 = {1, 3}) and a = 2
    (B_2 = {0, 2}) both move to the key 2; the witness names those two a."""
    f = one_stage_form(2, 1, (0, 2), {0: DigitSet(2, (1, 3)), 2: DigitSet(2, (0, 2))}, (0,), (0,))
    with pytest.raises(OverlapError) as err:
        translate_and_gcd_normalize(f)
    assert (err.value.digit, err.value.first, err.value.second) == (2, 0, 2)


def test_k_stage_expand_examples():
    ks = k_stage_form(
        4, (1,), (0, 1), [{0: DigitSet(4, (0, 2)), 1: DigitSet(4, (0, 6))}], [(0, 2), (0, 1)]
    )
    assert expand_k_stage(ks).digits == (0, 1, 8, 25)
    assert validate_k_stage(ks).ok

    # four-digit: 3*{0,1,16,17} = {0,3} (+) 24*{0,2} as a constant 1-stage form
    ks24 = k_stage_form(24, (1,), (0, 3), [DigitSet(24, (0, 2))], [(0, 12), (0, 6)])
    assert expand_k_stage(ks24).digits == (0, 3, 48, 51)
    assert validate_k_stage(ks24).ok


def test_k_stage_collision_reports_stage():
    ks = k_stage_form(4, (1,), (0, 4), [DigitSet(4, (0, 1))], [(0, 1), (0, 2)])
    with pytest.raises(OverlapError) as err:
        expand_k_stage(ks)
    assert err.value.stage == 1
    assert (err.value.digit, err.value.first, err.value.second) == (4, (0, 1), (4, 0))
    with pytest.raises(OverlapError) as err:
        k_stage_to_one_stage(ks)
    assert err.value.stage == 1 and err.value.digit == 4


def test_keyed_layer_without_parent_names_it():
    ks = k_stage_form(4, (1,), (0, 1), [{0: DigitSet(4, (0, 2))}], [(0, 2), (0, 1)])
    with pytest.raises(KeyError, match="layer has no entry for parent digit 1"):
        expand_k_stage(ks)
    with pytest.raises(KeyError, match="layer has no entry for parent digit 1"):
        k_stage_to_one_stage(ks)


def test_check_layer_keys_names_first_missing_parent():
    ks = k_stage_form(4, (1,), (0, 1), [{0: DigitSet(4, (0, 2))}], [(0, 2), (0, 1)])
    with pytest.raises(ValueError, match="stage-1 layer has no entry for parent digit 1"):
        check_layer_keys(ks)
    # stage 2 extends the level-1 digits {0, 1, 8, 9}
    layer2 = {d: DigitSet(4, (0, 1)) for d in (0, 1, 8)}
    ks = k_stage_form(4, (1, 1), (0, 1), [DigitSet(4, (0, 2)), layer2], [(0, 2), (0, 1), (0, 2)])
    with pytest.raises(ValueError, match="stage-2 layer has no entry for parent digit 9"):
        check_layer_keys(ks)
    layer2[9] = DigitSet(4, (0, 1))
    check_layer_keys(k_stage_form(4, (1, 1), (0, 1), [DigitSet(4, (0, 2)), layer2], [(0, 2), (0, 1), (0, 2)]))


def test_k_stage_to_one_stage_identity_k1():
    ks = k_stage_form(
        4, (1,), (0, 1), [{0: DigitSet(4, (0, 2)), 1: DigitSet(4, (0, 6))}], [(0, 2), (0, 1)]
    )
    one = k_stage_to_one_stage(ks)
    assert one.base == 4 and one.r == 1
    assert expand_one_stage(one).digits == (0, 1, 8, 25)
    assert one.a_set.digits == (0, 1)


def test_k_stage_to_one_stage_with_no_stages():
    """A form with no stages reduces at k = 1 to A = E0, every B_a = {0},
    L1 = L0 and L2 = {0}; a k below 1 is refused."""
    ks = k_stage_form(4, (), (0, 1), [], [(0, 2)])
    one = k_stage_to_one_stage(ks)
    assert one.base == 4 and one.r == 1
    assert one.a_set.digits == (0, 1) and {b.digits for _, b in one.b_sets} == {(0,)}
    assert one.l1.digits == (0, 2) and one.l2.digits == (0,)
    assert validate_one_stage(one).ok
    with pytest.raises(ValueError, match="target stage count 0 below 1"):
        k_stage_to_one_stage(ks, 0)


def test_k_stage_to_one_stage_roundtrip():
    """expand(one_stage) == D + N*D + ... + N^(k-1)*D for the staged D."""
    ks = k_stage_form(
        8,
        (1, 1),
        (0, 1),
        [DigitSet(8, (0, 2)), DigitSet(8, (0, 4))],
        [(0, 4), (0, 2), (0, 1)],
    )
    assert validate_k_stage(ks).ok
    d = expand_k_stage(ks).digits
    one = k_stage_to_one_stage(ks)
    assert one.base == 64
    assert expand_one_stage(one).digits == direct_sum_digits(d, [8 * x for x in d])
    assert validate_one_stage(one).ok


def test_k_stage_padding_target():
    # trailing padding: same digits, higher base
    ks = k_stage_form(4, (1,), (0, 1), [DigitSet(4, (0, 2))], [(0, 2), (0, 1)])
    d = expand_k_stage(ks).digits
    one = k_stage_to_one_stage(ks, k_target=2)
    assert one.base == 16
    assert expand_one_stage(one).digits == direct_sum_digits(d, [4 * x for x in d])
    with pytest.raises(ValueError):
        k_stage_to_one_stage(ks, k_target=0)


def test_k_stage_to_one_stage_with_keyed_layers_and_padding():
    # parent-keyed layer survives the reduction, with a trailing pad level
    ks = k_stage_form(
        4, (1,), (0, 1), [{0: DigitSet(4, (0, 2)), 1: DigitSet(4, (0, 6))}], [(0, 2), (0, 1)]
    )
    d = expand_k_stage(ks).digits
    assert d == (0, 1, 8, 25)
    one = k_stage_to_one_stage(ks, k_target=2)
    assert one.base == 16
    assert expand_one_stage(one).digits == direct_sum_digits(d, [4 * x for x in d])
    assert validate_one_stage(one).ok
    # the two B-sets over base 16 differ (inherited from the keyed layer)
    b_sets = {b.digits for _, b in one.b_sets}
    assert len(b_sets) > 1


def test_k_stage_gap_scales_padded():
    # ells = (2,) means one empty level below the layer
    ks = k_stage_form(4, (2,), (0, 1), [DigitSet(4, (0, 2))], [(0, 2), (0, 1)])
    d = expand_k_stage(ks).digits
    assert d == (0, 1, 32, 33)
    one = k_stage_to_one_stage(ks)
    assert one.base == 16
    assert expand_one_stage(one).digits == direct_sum_digits(d, [4 * x for x in d])


def _written_out_reduction(form, k):
    """A, the B_a keyed by a, L1 and L2 of the reduction over N^k, from the
    definitions, with the layer and the spectrum {0} written out at every
    power of N up to N^k that no stage reaches."""
    n, big = form.base, form.base**k
    zero = DigitSet(n, (0,))
    stage_at = dict(zip(itertools.accumulate(form.ells, initial=0), range(form.stages + 1)))
    layers = [form.layers[stage_at[i] - 1] if i in stage_at else zero for i in range(1, k + 1)]
    spectra = [form.spectra[stage_at[i]] if i in stage_at else zero for i in range(k + 1)]
    levels = [set(form.e0.digits)]
    for i, layer in enumerate(layers, start=1):
        lookup = productform.layer_lookup(layer)
        levels.append({d + n**i * e for d in levels[-1] for e in lookup(d).digits})

    def sums(sets):
        return sorted({sum(xs) for xs in itertools.product(*sets)})

    a = sums([{n**j * x for x in levels[k - 1 - j]} for j in range(k)])
    stacked = sums([{n**j * x for x in levels[k]} for j in range(k)])
    b = {x: tuple((y - x) // big for y in stacked if (y - x) % big == 0) for x in a}
    l1 = sums([{n ** (k - 1 - m) * x for x in spectra[i].digits} for m in range(k) for i in range(m + 1)])
    l2 = sums([{n ** (k - 1 - m) * x for x in spectra[i].digits} for m in range(k) for i in range(m + 1, k + 1)])
    return tuple(a), b, tuple(l1), tuple(l2)


def test_reduction_reads_staged_levels_at_their_own_scales():
    """A gapped form (ells (2, 1), no stage at N^1) with a keyed stage-1
    layer reduces, at its own k and one above, to the A, B_a, L1 and L2 of
    the same form with its {0} levels written out."""
    form = cm_tiling.paq_type_generator(2, 3, 2, "ii", zshifts={(1, 0, 0): 1}).form
    assert form.ells == (2, 1) and not isinstance(form.layers[0], DigitSet)
    for k in (3, 4):
        one = k_stage_to_one_stage(form, k_target=k)
        a, b, l1, l2 = _written_out_reduction(form, k)
        assert (one.base, one.r) == (12**k, 1)
        assert one.a_set.digits == a
        assert {x: b_set.digits for x, b_set in one.b_sets} == b
        assert (one.l1.digits, one.l2.digits) == (l1, l2)


def test_build_four_digit_form():
    mult, form = build_four_digit_form(24, 1, 4, 1, 1)
    assert mult == 3
    assert form.base == 24 and form.r == 1
    assert form.a_set.digits == (0, 3)
    assert form.l1.digits == (0, 12)
    assert form.l2.digits == (0, 6)
    assert expand_one_stage(form).digits == (0, 3, 48, 51)
    assert validate_one_stage(form).ok

    mult2, f2 = build_four_digit_form(4, 1, 1, 1, 1)
    assert mult2 == 1 and f2.r == 0
    assert f2.a_set.digits == (0, 1)
    assert validate_one_stage(f2).ok

    with pytest.raises(TDivisibleByBeta):
        build_four_digit_form(4, 1, 2, 1, 1)
    with pytest.raises(InvalidVariantParams):
        build_four_digit_form(24, 2, 4, 1, 1)
    with pytest.raises(InvalidVariantParams):
        build_four_digit_form(15, 1, 1, 1, 1)


def test_build_four_digit_random_sweep():
    rng = random.Random(2024)
    done = 0
    while done < 40:
        beta = rng.randrange(1, 4)
        m = rng.choice((1, 3, 5, 7, 9))
        n = 2**beta * m
        if n < 2 or n > 200:
            continue
        a = 2 * rng.randrange(0, 8) + 1
        ell = 2 * rng.randrange(0, 5) + 1
        ell2 = 2 * rng.randrange(0, 5) + 1
        t = rng.randrange(1, 9)
        if t % beta == 0:
            with pytest.raises(TDivisibleByBeta):
                build_four_digit_form(n, a, t, ell, ell2)
            continue
        mult, form = build_four_digit_form(n, a, t, ell, ell2)
        k = t // beta
        assert mult == m**k
        d = sorted({0, a, 2**t * ell, a + 2**t * ell2})
        assert expand_one_stage(form).digits == tuple(mult * x for x in d)
        done += 1


def test_every_component_reverifies_through_the_exact_checker():
    """No internal shortcut may bypass the pair-by-pair verification."""
    mult, form = build_four_digit_form(24, 1, 4, 1, 1)
    assert check_triple(form.base, form.a_set, form.l1) is None
    for _, b in form.b_sets:
        assert check_triple(form.base, b, form.l2) is None
    l_sum = DigitSet(form.base, direct_sum_digits(form.l1.digits, form.l2.digits))
    for a, b in form.b_sets:
        ab = DigitSet(form.base, direct_sum_digits(form.a_set.digits, b.digits))
        assert check_triple(form.base, ab, l_sum) is None


def test_one_stage_spectra_found_by_search():
    # the fixture form's spectra are recoverable by the exhaustive search
    got1 = [s.digits for s in find_spectra(4, DigitSet(4, (0, 1)))]
    got2 = [s.digits for s in find_spectra(4, DigitSet(4, (0, 2)))]
    assert (0, 2) in got1 and (0, 1) in got2
