import math
import random
import sys
import time
from collections import Counter

import mpmath
import pytest

from spectralforge import cyclotomic
from spectralforge.cm_tiling import cm_regular_product_triple
from spectralforge.cyclotomic import (
    MaskPolynomial,
    compose_cyclotomic_indices,
    cyclotomic_factorization,
    cyclotomic_poly,
    divides,
    divmod_exact,
    euler_phi,
    exact_quotient,
    has_cyclotomic_factor,
    kernel_polynomial,
    vanishing_by_division,
    vanishing_sum_test,
)
from spectralforge.digitsets import DigitSet
from spectralforge.errors import CoverageFailure, PointLimitExceeded


# --- independent oracle: naive dense polynomials -------------------------


def _dense_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _dense_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += y
    return out


def _dense_divmod(num, den):
    num = list(num)
    q = [0] * max(len(num) - len(den) + 1, 1)
    for i in range(len(num) - 1, len(den) - 2, -1):
        if num[i] == 0:
            continue
        c, r = divmod(num[i], den[-1])
        assert r == 0
        q[i - len(den) + 1] = c
        for j, d in enumerate(den):
            num[i - len(den) + 1 + j] -= c * d
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


def _oracle_cyclotomic(d):
    """Recursive-division oracle, independent of the sparse implementation."""
    poly = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            poly, rem = _dense_divmod(poly, _oracle_cyclotomic(e))
            assert rem == [0]
    return poly


def test_cyclotomic_small_values():
    assert cyclotomic_poly(1).to_dense() == [-1, 1]
    assert cyclotomic_poly(2).to_dense() == [1, 1]
    assert cyclotomic_poly(32).to_dense() == [1] + [0] * 15 + [1]
    assert cyclotomic_poly(12).to_dense() == [1, 0, -1, 0, 1]


def test_cyclotomic_against_oracle():
    for d in range(1, 106):
        assert cyclotomic_poly(d).to_dense() == _oracle_cyclotomic(d)


def test_cyclotomic_product_identity():
    for n in (1, 2, 6, 12, 24, 30, 36):
        prod = MaskPolynomial.one()
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_poly(d)
        want = MaskPolynomial(((0, -1), (n, 1)))
        assert prod == want


def test_divides_examples():
    f = MaskPolynomial.from_digits((0, 1))
    g = MaskPolynomial.from_digits((0, 1, 8, 9))
    assert divides(f, g)
    assert exact_quotient(g, f).to_dense() == [1] + [0] * 7 + [1]
    assert divides(f, MaskPolynomial.zero())
    assert not divides(cyclotomic_poly(3), f)
    # 1 + x over 1 + 2x needs the quotient digit 1/2
    with pytest.raises(ValueError):
        divmod_exact(f, MaskPolynomial.from_dense([1, 2]))
    assert not divides(MaskPolynomial.from_dense([1, 2]), f)


def test_divmod_exact_random_roundtrip():
    rng = random.Random(3)
    for _ in range(150):
        f = MaskPolynomial.from_dense([rng.randrange(-4, 5) for _ in range(rng.randrange(1, 6))] + [1])
        q = MaskPolynomial.from_dense([rng.randrange(-4, 5) for _ in range(rng.randrange(1, 7))] + [rng.choice((1, 2, -1))])
        r = MaskPolynomial.from_dense([rng.randrange(-3, 4) for _ in range(f.degree)]) if f.degree else MaskPolynomial.zero()
        g = _dense_add(_dense_mul(f.to_dense(), q.to_dense()), r.to_dense())
        qq, rr = divmod_exact(MaskPolynomial.from_dense(g), f)
        assert MaskPolynomial.from_dense(
            _dense_add(_dense_mul(f.to_dense(), qq.to_dense()), rr.to_dense())
        ) == MaskPolynomial.from_dense(g)
        assert rr.degree < f.degree


def test_vanishing_sum_examples():
    assert vanishing_sum_test(DigitSet(4, (0, 2)), 1, 4)
    assert not vanishing_sum_test(DigitSet(4, (0, 2)), 2, 4)
    # high-precision oracle for the remaining example
    want = _mp_vanishes((0, 1, 8, 9), 6, 24)
    assert vanishing_sum_test(DigitSet(4, (0, 1, 8, 9)), 6, 24) == want


def _mp_vanishes(digits, t, n, dps=50):
    with mpmath.workdps(dps):
        total = mpmath.mpc(0)
        for d in digits:
            total += mpmath.expjpi(2 * mpmath.mpf(d * t) / n)
        return abs(total) < mpmath.mpf(10) ** (-dps + 10)


def test_vanishing_sum_against_50_digit_oracle():
    rng = random.Random(61)
    for _ in range(1000):
        n = rng.randrange(2, 201)
        k = rng.randrange(1, 7)
        digits = tuple(rng.randrange(0, 4 * n) for _ in range(k))
        digits = tuple(sorted(set(digits)))
        t = rng.randrange(0, 2 * n)
        assert vanishing_sum_test(digits, t, n) == _mp_vanishes(digits, t, n)


def test_vanishing_sum_against_division_route():
    rng = random.Random(62)
    for _ in range(300):
        n = rng.randrange(2, 60)
        digits = tuple(sorted(set(rng.randrange(0, 3 * n) for _ in range(rng.randrange(1, 6)))))
        t = rng.randrange(0, 2 * n)
        assert vanishing_sum_test(digits, t, n) == vanishing_by_division(digits, t, n)
    # composite moduli with several prime powers, including forced zeros
    for n in (36, 60, 72, 90, 120, 360):
        for digits in ((0, n // 2), (0, n // 3, 2 * n // 3), tuple(range(0, n, n // 6)), (0, 1, 7)):
            for t in (0, 1, 2, 3, n // 2, n // 3, n - 1):
                assert vanishing_sum_test(digits, t, n) == vanishing_by_division(digits, t, n), (
                    digits,
                    t,
                    n,
                )
    # Phi_d^m | P by the same prime-by-prime test against exact division, on
    # 0/1 masks, signed polynomials and products with known repeated factors
    polys = [MaskPolynomial.from_digits((0, 2, 6, 8))]
    for _ in range(8):
        digits = {0} | {rng.randrange(1, 30) for _ in range(rng.randrange(1, 6))}
        signed = [rng.randrange(-2, 3) for _ in range(rng.randrange(0, 10))] + [rng.choice((1, -1))]
        for mask in (MaskPolynomial.from_digits(digits), MaskPolynomial.from_dense(signed)):
            a, b = rng.randrange(1, 41), rng.randrange(1, 41)
            polys.append(mask)
            polys.append(cyclotomic_poly(a) ** rng.randrange(1, 4) * cyclotomic_poly(b) ** rng.randrange(1, 3) * mask)
    for poly in polys:
        for d in range(1, 41):
            for m in range(1, 5):
                want = divides(cyclotomic_poly(d) ** m, poly)
                assert has_cyclotomic_factor(poly, d, m) == want, (str(poly), d, m)


def test_order_memo_matches_division():
    """The verdict at t depends only on the order n / gcd(t, n) of zeta_n^t:
    the memoized test agrees with exact division at every t in -2n..2n, on
    sets with many vanishing sums and on random sets and multisets."""
    a84, b84 = (0, 8, 16, 18, 26, 34), (0, 5, 6, 9, 12, 29, 33, 36, 42, 48, 53, 57)
    form = cm_regular_product_triple(72, [DigitSet(72, a84), DigitSet(72, b84)])
    cases = [(a84, 72), (b84, 72), (form.e0.digits, 72), (form.layers[0].digits, 72)]
    # {0, s, ..., (p-1)s} vanishes at every t whose order m has m / gcd(m, s) == p
    cases += [(tuple(range(0, p * s, s)), p * s * q) for p in (2, 3, 5, 7) for s in (1, 4) for q in (1, 3)]
    rng = random.Random(63)
    for _ in range(12):
        n = rng.randrange(2, 50)
        digits = [rng.randrange(-2 * n, 3 * n) for _ in range(rng.randrange(1, 7))]
        cases.append((digits, n))  # a list, repeats allowed
        cases.append(([], n))
    cyclotomic._vanishes_at_order.cache_clear()
    vanishing = 0
    for digits, n in cases:
        for t in range(-2 * n, 2 * n + 1):
            got = vanishing_sum_test(digits, t, n)
            assert got == vanishing_by_division(digits, t, n), (digits, t, n)
            assert vanishing_sum_test(list(reversed(digits)), t, n) == got
            vanishing += got
    assert vanishing > 1000
    assert cyclotomic._vanishes_at_order.cache_info().hits > 0


def _polygon_sum(n, rng, top):
    """A signed sum of rotated regular p-gons {rot + v*n/p : v < p}, p | n,
    as {residue mod n: coefficient}; it vanishes at zeta_n.  Without
    ``top``, p is never the largest prime factor of n; with it, the first
    p-gon is one."""
    primes = [p for p, _ in cyclotomic.factorize(n)]
    counts = {}
    for k in range(rng.randrange(1, 5)):
        p = primes[-1] if top and not k else rng.choice(primes[: None if top else -1])
        rot, c = rng.randrange(n), rng.choice((1, 2, -1, -3))
        for v in range(p):
            r = (rot + v * (n // p)) % n
            counts[r] = counts.get(r, 0) + c
    return {r: c for r, c in counts.items() if c}


def _top_branches(counts, n):
    """Which branches the first prime step of the exact test takes: the
    terms grouped mod p^a (p the largest prime of n), and the groups of each
    class mod p^(a-1) counted; (some class has fewer than p, some has p)."""
    p, a = cyclotomic.factorize(n)[-1]
    occupied = Counter(u % p ** (a - 1) for u in {r % p**a for r in counts})
    return any(k < p for k in occupied.values()), any(k == p for k in occupied.values())


def test_prime_by_prime_branches_against_division():
    """Signed sums of rotated regular p-gons at n = 210, 360, 2310 vanish;
    each copy with one term added does not.  vanishing_sum_test (signs as
    half turns, n being even) agrees with division by Phi_n, and
    has_cyclotomic_factor with exact division by Phi_n^m for m = 1..3 (each
    factor 1 + x^(n/2) adds one to the multiplicity).  Every n and both
    kinds take the fewer-than-p branch and the all-p branch."""
    rng = random.Random(64)
    for n, count, factors in ((210, 8, 2), (360, 6, 2), (2310, 2, 0)):
        phi_powers = [cyclotomic_poly(n) ** m for m in range(1, factors + 2)]
        seen = {True: set(), False: set()}
        for i in range(count):
            vanishing = _polygon_sum(n, rng, top=i % 2 == 0)
            perturbed = dict(vanishing)
            r = rng.randrange(n)
            perturbed[r] = perturbed.get(r, 0) + 1
            for counts, want in ((vanishing, True), (perturbed, False)):
                counts = {r: c for r, c in counts.items() if c}
                seen[want].update(b for b, hit in zip(("fewer", "all"), _top_branches(counts, n)) if hit)
                digits = [r if c > 0 else r + n // 2 for r, c in counts.items() for _ in range(abs(c))]
                t = rng.choice((1, 13, 17, 19, 23))  # a unit mod n
                assert vanishing_sum_test(digits, t, n) == want == vanishing_by_division(digits, t, n)
                poly = MaskPolynomial(tuple(counts.items()))
                for k in range(factors + 1):
                    for m, phi_m in enumerate(phi_powers, 1):
                        got = has_cyclotomic_factor(poly, n, m)
                        assert got == divides(phi_m, poly) == (m <= k + want), (n, counts, k, m)
                    poly = poly * MaskPolynomial(((0, 1), (n // 2, 1)))
        assert seen == {True: {"fewer", "all"}, False: {"fewer", "all"}}, n
    # the empty sum vanishes; a single term never does; 1 + zeta_(p^a),
    # p^a the power of the smallest prime, the one decided last, vanishes
    # only for p^a = 2
    for n in (210, 360, 2310):
        p, a = cyclotomic.factorize(n)[0]
        assert vanishing_sum_test((0, n // p**a), 1, n) == (p**a == 2)
        assert vanishing_sum_test((), 1, n) and vanishing_by_division((), 1, n)
        assert has_cyclotomic_factor(MaskPolynomial.zero(), n, 3)
        for r in (0, 1, n - 1, 5 * n + 3):
            assert not vanishing_sum_test((r,), 1, n) and not vanishing_by_division((r,), 1, n)
            assert not has_cyclotomic_factor(MaskPolynomial(((r, 2),)), n)


def test_order_memo_stays_bounded():
    size = cyclotomic._ORDER_MEMO_SIZE
    for k in range(size + 50):
        assert not vanishing_sum_test((0, k, 2 * k), 0, 5)
    info = cyclotomic._vanishes_at_order.cache_info()
    assert info.maxsize == size and info.currsize <= size


def test_digit_set_answers_repeated_orders_from_its_own_verdicts():
    """A DigitSet's second question about a root order never reaches the
    memo keyed on the digit tuple, gives the tuple's verdict, and its table
    stays bounded like the memo."""
    d = DigitSet(72, (0, 4, 8, 9, 13, 17, 36, 40, 44, 45, 49, 53))
    cyclotomic._vanishes_at_order.cache_clear()
    first = [vanishing_sum_test(d, t, 72) for t in range(-72, 144)]
    cold = cyclotomic._vanishes_at_order.cache_info()
    assert cold.hits == 0 and cold.misses == len(d.order_verdicts) == 12  # the divisors of 72
    assert [vanishing_sum_test(d, t, 72) for t in range(-72, 144)] == first
    assert cyclotomic._vanishes_at_order.cache_info() == cold
    assert first == [vanishing_sum_test(d.digits, t, 72) for t in range(-72, 144)]
    size = cyclotomic._ORDER_MEMO_SIZE
    pair = DigitSet(2, (0, 1))
    assert [vanishing_sum_test(pair, 1, n) for n in range(2, size + 50)] == [n == 2 for n in range(2, size + 50)]
    assert len(pair.order_verdicts) == size


def test_factorization_examples_and_roundtrip():
    fac = cyclotomic_factorization(MaskPolynomial.from_digits((0, 1, 16, 17)))
    assert dict(fac.factors) == {2: 1, 32: 1}
    assert fac.residual.is_one

    fac2 = cyclotomic_factorization(MaskPolynomial.from_digits((0, 1, 8, 9)))
    assert dict(fac2.factors) == {2: 1, 16: 1}

    # multiplicities are extracted fully
    fac3 = cyclotomic_factorization(cyclotomic_poly(2) ** 3 * cyclotomic_poly(12) ** 2)
    assert dict(fac3.factors) == {2: 3, 12: 2}
    assert fac3.residual.is_one

    rng = random.Random(9)
    for _ in range(40):
        digits = tuple(sorted({0} | {rng.randrange(1, 40) for _ in range(rng.randrange(1, 6))}))
        fac = cyclotomic_factorization(MaskPolynomial.from_digits(digits))
        prod = fac.residual
        for d, m in fac.factors:
            prod = prod * cyclotomic_poly(d) ** m
        assert prod == MaskPolynomial.from_digits(digits)
        # residual has no further cyclotomic root among the candidates
        for d in range(1, 2 * fac.residual.degree**2 + 2):
            if fac.residual.degree >= euler_phi(d):
                assert not divides(cyclotomic_poly(d), fac.residual)


def test_factorization_tests_only_the_sparse_input(monkeypatch):
    """1 + x^461 = Phi_2 * Phi_922: its quotient by Phi_2 has 461 terms, and
    no candidate is tested on it."""
    sizes = []
    test = cyclotomic.has_cyclotomic_factor

    def recorded(poly, d, multiplicity=1):
        sizes.append(len(poly.terms))
        return test(poly, d, multiplicity)

    monkeypatch.setattr(cyclotomic, "has_cyclotomic_factor", recorded)
    fac = cyclotomic_factorization(MaskPolynomial.from_digits((0, 461)))
    assert dict(fac.factors) == {2: 1, 922: 1} and fac.residual.is_one
    assert sizes and max(sizes) <= 2


def _mann_rejects(poly, d):
    """The residue criterion from its definition: with k terms, s(d) is d
    over its primes p <= k, and it rejects d when some exponent is alone
    in its class mod s(d)."""
    k = len(poly.terms)
    s = d // math.prod(p for p, _ in cyclotomic.factorize(d) if p <= k)
    classes = Counter(e % s for e, _ in poly.terms)
    return 1 in classes.values()


def _small_polynomials(rng):
    """0/1 masks, signed sparse polynomials, and both times a few Phi_e,
    all of degree below 60."""
    for _ in range(60):
        digits = {0} | {rng.randrange(1, 24) for _ in range(rng.randrange(1, 8))}
        yield MaskPolynomial.from_digits(digits)
        signed = {rng.randrange(24): rng.choice((-2, -1, 1, 2)) for _ in range(rng.randrange(1, 8))}
        yield MaskPolynomial(tuple(signed.items()))
    for _ in range(40):
        base = MaskPolynomial.from_digits({0} | {rng.randrange(1, 12) for _ in range(3)})
        signed = MaskPolynomial(((0, rng.choice((-1, 1))), (rng.randrange(1, 12), rng.choice((-2, 1)))))
        for poly in (base, signed):
            for _ in range(rng.randrange(1, 3)):
                poly = poly * cyclotomic_poly(rng.randrange(2, 25))
            yield poly


def test_mann_criterion_never_rejects_a_cyclotomic_factor():
    """Whenever the residue criterion rejects d <= 120, Phi_d does not
    divide the polynomial; the factorization's own s(d) and verdict agree
    with the definition."""
    rng = random.Random(23)
    rejected = divisible = 0
    for poly in _small_polynomials(rng):
        exponents = [e for e, _ in poly.terms]
        primorial = math.prod(cyclotomic._primes_upto(len(exponents)))
        for d in range(1, 121):
            rejects = _mann_rejects(poly, d)
            s = d // math.gcd(d, primorial)
            assert cyclotomic._shares_every_residue(exponents, s) is not rejects, (poly, d)
            if rejects:
                rejected += 1
                assert not has_cyclotomic_factor(poly, d), (poly, d)
            else:
                divisible += has_cyclotomic_factor(poly, d)
    assert rejected > 10_000 and divisible > 200


def _candidate_indices(max_phi):
    """All d >= 1 with phi(d) <= max_phi, increasing ([1] at 0): the index
    walk the factorization made before it built its indices from the
    residue criterion, kept as the oracle.  phi(d) is the product of
    p^(a-1) * (p - 1) over p^a exactly dividing d, so each such d is built
    once from powers of increasing primes p <= max_phi + 1."""
    primes = cyclotomic._primes_upto(max_phi + 1)
    found, stack = [1], [(1, 1, 0)]  # (d, phi(d), index of its next prime)
    while stack:
        d, phi, start = stack.pop()
        for i in range(start, len(primes)):
            p = primes[i]
            d_p, phi_p = d * p, phi * (p - 1)
            if phi_p > max_phi:
                break  # and so for every larger prime
            while phi_p <= max_phi:
                found.append(d_p)
                stack.append((d_p, phi_p, i + 1))
                d_p, phi_p = d_p * p, phi_p * p
    return sorted(found)


def _unfiltered_factorization(poly):
    """Every candidate index through the exact test, with no pre-screen."""
    budget, found = poly.degree, []
    for d in _candidate_indices(poly.degree):
        mult = 0
        while (mult + 1) * euler_phi(d) <= budget and has_cyclotomic_factor(poly, d, mult + 1):
            mult += 1
        if mult:
            found.append((d, mult))
            budget -= mult * euler_phi(d)
    residual = poly
    for d, mult in found:
        residual = exact_quotient(residual, cyclotomic_poly(d) ** mult)
    return tuple(found), residual


def test_filtered_factorization_matches_the_unfiltered_search():
    """Sparse 0/1 masks, tile-structured masks A + m*B, signed sparse
    polynomials and products of Phi_d^m with dense signed cofactors: the
    factorization equals the search that tests every candidate exactly."""
    rng = random.Random(5)
    polys = []
    for _ in range(25):
        top = rng.randrange(2, 160)
        polys.append(MaskPolynomial.from_digits({0, top} | {rng.randrange(top) for _ in range(8)}))
        a, b, scale = rng.randrange(2, 5), rng.randrange(2, 4), rng.choice((1, 2, 3, 5))
        m = rng.randrange(a, 3 * a + 1)
        block = {0} | {rng.randrange(1, 3 * a) for _ in range(a)}
        polys.append(MaskPolynomial.from_digits({(x + m * y) * scale for x in block for y in range(b)}))
        signed = {rng.randrange(top): rng.choice((-3, -1, 1, 2)) for _ in range(rng.randrange(1, 9))}
        polys.append(MaskPolynomial(tuple({**signed, top: 1}.items())))
        dense = MaskPolynomial.from_dense([rng.randrange(-3, 4) for _ in range(rng.randrange(1, 10))] + [1])
        for _ in range(rng.randrange(1, 4)):
            dense = dense * cyclotomic_poly(rng.randrange(1, 40)) ** rng.randrange(1, 3)
        polys.append(dense)
    factored = 0
    for poly in polys:
        fac = cyclotomic_factorization(poly)
        assert (fac.factors, fac.residual) == _unfiltered_factorization(poly), poly
        factored += bool(fac.factors)
    assert factored > 30


def test_sparse_mask_makes_few_exact_tests(monkeypatch):
    """A 10-term mask of degree 1,000 has 1,941 candidate indices; the
    residue criterion leaves a few dozen of them to the exact test."""
    calls = []
    test = cyclotomic.has_cyclotomic_factor

    def counted(poly, d, multiplicity=1):
        calls.append(d)
        return test(poly, d, multiplicity)

    monkeypatch.setattr(cyclotomic, "has_cyclotomic_factor", counted)
    rng = random.Random(3)
    mask = MaskPolynomial.from_digits({0, 1000, *rng.sample(range(1, 1000), 8)})
    assert len(mask.terms) == 10 and len(_candidate_indices(1000)) == 1941
    cyclotomic_factorization(mask)
    assert 0 < len(calls) <= 60


def test_admissible_indices_are_the_indices_the_criterion_passes():
    """Seeded sparse, dense and signed polynomials of degree up to 150: the
    indices built from the divisors of the exponent differences are exactly
    the d with phi(d) <= degree whose s(d) passes the residue criterion,
    found by brute force over every d <= 2 * 150^2 + 1 (phi(d) >= sqrt(d/2)
    leaves no d with phi(d) <= 150 above it).  The same range checks the
    oracle index walk of the unfiltered search."""
    top = 150
    phi = [0] + [euler_phi(d) for d in range(1, 2 * top * top + 2)]
    low = [d for d in range(1, len(phi)) if phi[d] <= top]
    for m in (1, 2, 17, 60, top):
        assert _candidate_indices(m) == [d for d in low if phi[d] <= m], m
    rng = random.Random(31)
    polys = []
    for _ in range(30):
        deg = rng.randrange(1, top + 1)
        polys.append(MaskPolynomial.from_digits({0, deg} | {rng.randrange(deg) for _ in range(rng.randrange(0, 6))}))
        polys.append(MaskPolynomial.from_dense([rng.randrange(-2, 3) for _ in range(deg)] + [rng.choice((-1, 1))]))
        signed = {rng.randrange(deg): rng.choice((-3, -1, 1, 2)) for _ in range(rng.randrange(1, 8))}
        polys.append(MaskPolynomial(tuple({**signed, deg: -2}.items())))
    polys.append(MaskPolynomial.from_digits(range(top + 1)))
    kept = 0
    for poly in polys:
        exponents = [e for e, _ in poly.terms]
        primorial = math.prod(cyclotomic._primes_upto(len(exponents)))
        want = [
            d for d in low if phi[d] <= poly.degree
            and cyclotomic._shares_every_residue(exponents, d // math.gcd(d, primorial))
        ]
        assert cyclotomic._admissible_indices(exponents, poly.degree) == want, poly
        kept += len(want)
    assert kept > 5_000


def test_cyclotomic_poly_divisor_products():
    """x^n - 1 is the product of Phi_d over d | n, which fixes every Phi_d
    in turn; here against the Moebius construction, for n <= 240 and for
    n = 2310 (five primes)."""
    for n in [*range(1, 241), 2310]:
        prod = MaskPolynomial.one()
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_poly(d)
        assert prod == MaskPolynomial(((0, -1), (n, 1))), n


def test_compose_cyclotomic_indices():
    assert compose_cyclotomic_indices(4, 4) == {16: 1}
    assert compose_cyclotomic_indices(3, 2) == {3: 1, 6: 1}
    # degree bookkeeping: sum of phi over factors equals phi(d)*s
    rng = random.Random(17)
    for _ in range(60):
        d = rng.randrange(1, 30)
        s = rng.randrange(1, 30)
        idx = compose_cyclotomic_indices(d, s)
        assert sum(euler_phi(e) * m for e, m in idx.items()) == euler_phi(d) * s
        # exact polynomial identity on moderate sizes
        if euler_phi(d) * s <= 64:
            prod = MaskPolynomial.one()
            for e, m in idx.items():
                prod = prod * cyclotomic_poly(e) ** m
            assert prod == cyclotomic_poly(d).compose_power(s)


def test_kernel_polynomial_examples():
    kd0, kd = kernel_polynomial([(0, 1), (0, 2)], [2, 4], [1], 4)
    assert kd.poly == cyclotomic_poly(2) * cyclotomic_poly(16)
    assert kd.n_j == 16 and kd.m_j == 4
    assert kd.n_j == kd.m_j * 4  # the scaled identity, cross-checked
    assert kd0.poly == cyclotomic_poly(2) and kd0.n_j == 2

    with pytest.raises(CoverageFailure):
        kernel_polynomial([(0, 1), (0, 1)], [2, 4], [1], 4)


def test_mask_polynomial_basics():
    p = MaskPolynomial.from_digits((0, 2, 5))
    assert (p * MaskPolynomial.one()) == p
    assert (p * MaskPolynomial.zero()).is_zero
    assert p.compose_power(3).degree == 15
    from spectralforge.errors import EmptyInput

    with pytest.raises(EmptyInput, match="cannot build a mask from an empty digit set"):
        MaskPolynomial.from_digits(())
    with pytest.raises(ValueError):
        MaskPolynomial.from_digits((-1, 0))


def test_factorize_proves_cofactors_up_to_the_trial_limit():
    """Trial division stops at FACTOR_LIMIT = 2^20: a prime below 2^40 is
    proven, also times a small prime; a cofactor past 2^40 with no factor
    up to the limit is refused, naming it."""
    assert cyclotomic.FACTOR_LIMIT == 1 << 20
    prime = 2**40 - 87
    assert cyclotomic.factorize(prime) == ((prime, 1),)
    assert cyclotomic.factorize(6 * prime) == ((2, 1), (3, 1), (prime, 1))
    assert cyclotomic.factorize(2**70) == ((2, 70),)
    mersenne = 2**61 - 1
    for n in (mersenne, 4 * mersenne):
        with pytest.raises(PointLimitExceeded, match=f"cofactor {mersenne}, .* FACTOR_LIMIT = 2\\^20"):
            cyclotomic.factorize(n)


def _trial_division_reference(n):
    """factorize as one trial-division loop over the whole number, dividing
    out each prime and carrying on with the cofactor: the reference for the
    cached form.  Refuses by raising ValueError with the cofactor it left."""
    out = []
    m, p = n, 2
    while p * p <= m and p <= cyclotomic.FACTOR_LIMIT:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            out.append((p, a))
        p += 1 if p == 2 else 2
    if p * p <= m:
        raise ValueError(m)
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def test_factorize_against_one_trial_division_loop():
    """Seeded sweep, cache cleared: the factorizations equal the reference
    loop's on about 1,000 integers below 2^40 (log-uniform sizes), on
    multiples of a large prime P = 2^39 - 7 by small divisors and on the
    edge of the trial bound, and each refused number is refused naming the
    reference's cofactor.  The reference proves P again for each multiple
    (about 40 ms each), so it runs on six seeded divisors d of 720,720; for
    all 240 of them P*d is checked against the reference on d, which every
    prime of P*d below P comes from."""
    cyclotomic.factorize.cache_clear()
    rng = random.Random(49)
    big = 2**39 - 7
    below, above, next_up = 1048573, 1048583, 1048589  # primes about 2^20
    numbers = [rng.randrange(1, 1 << rng.randrange(1, 41)) for _ in range(700)]
    divisors = [d for d in range(1, 720721) if 720720 % d == 0]
    numbers += [big * d for d in rng.sample(divisors, 6)]
    numbers += [0, 1, 6 * (2**40 - 87), 2**70, below * above, _primorial(1000)]
    for n in numbers:
        assert cyclotomic.factorize(n) == _trial_division_reference(n), n
    for d in divisors:
        assert cyclotomic.factorize(big * d) == _trial_division_reference(d) + ((big, 1),), d
    mersenne = 2**61 - 1
    for n in (mersenne, 720720 * mersenne, 12 * above * next_up):
        with pytest.raises(ValueError) as refused:
            _trial_division_reference(n)
        cofactor = refused.value.args[0]
        with pytest.raises(PointLimitExceeded, match=f"leaves the cofactor {cofactor}, "):
            cyclotomic.factorize(n)


def test_a_square_cofactor_factors_through_its_root():
    """4 * P^2 with P = 1,048,583, just above FACTOR_LIMIT: trial division
    leaves the cofactor P^2, which is the square of a number that factors.
    A refused non-square keeps its message, and so does a square whose
    root is refused."""
    p, q = 1048583, 1048589
    assert cyclotomic.factorize(4 * p * p) == ((2, 2), (p, 2))
    assert cyclotomic.factorize(3 * p**4) == ((3, 1), (p, 4))
    for n, cofactor in ((12 * p * q, p * q), ((p * q) ** 2, (p * q) ** 2)):
        with pytest.raises(PointLimitExceeded, match=f"leaves the cofactor {cofactor}, which has no prime factor"):
            cyclotomic.factorize(n)


def _primorial(count):
    """The product of the first ``count`` primes."""
    primes, p = [], 2
    while len(primes) < count:
        if all(p % q for q in primes if q * q <= p):
            primes.append(p)
        p += 1
    return math.prod(primes)


def test_factorize_nests_at_most_four_calls():
    """A cofactor is handed to the cache only once it holds at most three
    primes, so with the cache cleared, 1,000 distinct primes (a 3,393-digit
    base, which check-hadamard takes) and the two large-prime shapes all
    factor with 40 frames to spare."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    numbers = [_primorial(1000), (2**39 - 7) * 720720, 999983 * 1000003 * 1000033, 2 * 3**5 * 1048583]
    cyclotomic.factorize.cache_clear()
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        got = [cyclotomic.factorize(n) for n in numbers]
    finally:
        sys.setrecursionlimit(old)
    assert [math.prod(p**a for p, a in fac) for fac in got] == numbers
    assert [len(fac) for fac in got] == [1000, 7, 3, 3]


def test_a_large_prime_is_proven_once_for_every_root_order():
    """N = P * 720,720 with P = 2^39 - 7 meets 179 root orders N/gcd(t, N)
    over t = 1..5039, each P times a divisor of 720,720; the spectrum-side
    differences of L = {0..5039} reach exactly these.  With every cache
    cleared, one vanishing_sum_test per order on D = (N/5040)*{0..5039}
    proves P once: well under 2 s, where a trial division of each order in
    full took 8.7 s.  Each sum is over the 5040-th roots of unity at t with
    5040 not dividing t, so each vanishes."""
    n = (2**39 - 7) * 720720
    digits = tuple(range(0, n, n // 5040))
    orders = {}
    for t in range(1, 5040):
        orders.setdefault(n // math.gcd(t, n), t)
    assert len(orders) == 179
    cyclotomic.factorize.cache_clear()
    cyclotomic._vanishes_at_order.cache_clear()
    t0 = time.perf_counter()
    verdicts = [vanishing_sum_test(digits, t, n) for t in orders.values()]
    took = time.perf_counter() - t0
    assert all(verdicts)
    assert took < 2.0, took
