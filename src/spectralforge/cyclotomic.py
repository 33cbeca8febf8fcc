"""Exact integer-polynomial engine.

Mask polynomials P_A(x) = sum of x^a over a digit set A are kept sparse
(exponent -> coefficient); digit sets sitting near N^(2k) have huge degree
but only a handful of terms.  Every decision (vanishing sums, cyclotomic
divisibility with multiplicity, kernel divisibility, factorization) is
exact integer arithmetic with no floating-point step: each comes down to
whether an integer combination of n-th roots of unity vanishes, decided
by one test (``_vanishes``) that works one prime power of n at a time.
With n = p^a * m and p not dividing m, Q(zeta_n) is Q(zeta_m)(zeta_(p^a))
and zeta_(p^a) keeps its minimal polynomial Phi_p(x^(p^(a-1))) over
Q(zeta_m); so a sum vanishes iff, grouped by exponent mod p^a, its groups
agree in p-tuples along each class mod p^(a-1), each comparison being a
smaller sum over Z_m.  The test stops at the first part that cannot
vanish, and its cost follows the number of terms, never p.

Phi_d denotes the d-th cyclotomic polynomial, the minimal polynomial of
exp(2*pi*i/d) over the rationals.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .digitsets import DigitSet
from .errors import CoverageFailure, EmptyDigitSet, PointLimitExceeded, refuse_above


@dataclass(frozen=True)
class MaskPolynomial:
    """Sparse integer polynomial with non-negative exponents.

    ``terms`` is a sorted tuple of (exponent, coefficient) pairs with no
    zero coefficients.  Instances are immutable; arithmetic returns new
    objects, so sharing across threads is safe.
    """

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        clean = tuple(sorted((e, c) for e, c in self.terms if c != 0))
        if any(e < 0 for e, _ in clean):
            raise ValueError("mask polynomials use non-negative exponents only")
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "MaskPolynomial":
        return MaskPolynomial(())

    @staticmethod
    def one() -> "MaskPolynomial":
        return MaskPolynomial(((0, 1),))

    @staticmethod
    def from_digits(digits: Iterable[int]) -> "MaskPolynomial":
        ds = list(digits)
        if not ds:
            raise EmptyDigitSet("cannot build a mask from an empty digit set")
        if min(ds) < 0:
            raise ValueError("mask exponents must be non-negative; canonicalize first")
        if len(set(ds)) != len(ds):
            raise ValueError("digits must be distinct")
        return MaskPolynomial(tuple((d, 1) for d in ds))

    @staticmethod
    def from_dense(coeffs: Sequence[int]) -> "MaskPolynomial":
        return MaskPolynomial(tuple((i, c) for i, c in enumerate(coeffs) if c))

    # -- views -------------------------------------------------------------

    def to_dense(self) -> list[int]:
        if not self.terms:
            return []
        out = [0] * (self.terms[-1][0] + 1)
        for e, c in self.terms:
            out[e] = c
        return out

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return self.terms[-1][0] if self.terms else -1

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_one(self) -> bool:
        return self.terms == ((0, 1),)

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other: "MaskPolynomial") -> "MaskPolynomial":
        acc: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return MaskPolynomial(tuple(acc.items()))

    def __pow__(self, n: int) -> "MaskPolynomial":
        if n < 0:
            raise ValueError("negative powers not defined")
        result = MaskPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def compose_power(self, s: int) -> "MaskPolynomial":
        """Substitute x -> x^s."""
        if s < 1:
            raise ValueError("power substitution needs s >= 1")
        return MaskPolynomial(tuple((e * s, c) for e, c in self.terms))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(str(c))
            else:
                mono = "x" if e == 1 else f"x^{e}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# Exact division.


def _divmod_dense(num: list[int], den: list[int]) -> tuple[list[int], list[int]] | None:
    """Exact long division over the integers; None if any step needs a fraction."""
    num = num[:]
    dn = len(den) - 1
    lead = den[-1]
    if lead == 0:
        raise ZeroDivisionError("division by zero polynomial")
    quot = [0] * max(len(num) - dn, 0)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q, r = divmod(c, lead)
        if r != 0:
            return None
        quot[i - dn] = q
        num[i - dn : i + 1] = [a - q * d for a, d in zip(num[i - dn : i + 1], den)]
    while num and num[-1] == 0:
        num.pop()
    while quot and quot[-1] == 0:
        quot.pop()
    return quot, num


def divmod_exact(g: MaskPolynomial, f: MaskPolynomial) -> tuple[MaskPolynomial, MaskPolynomial]:
    """Quotient and remainder of g by f, demanding that both come out
    integral; raises ValueError otherwise.

    Long division fixes each quotient digit as (leading coefficient) / lead(f),
    the same over Z as over Q, so a first non-integral digit means the
    quotient over Q is not integral either.
    """
    if f.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if g.is_zero:
        return MaskPolynomial.zero(), MaskPolynomial.zero()
    res = _divmod_dense(g.to_dense(), f.to_dense())
    if res is None:
        raise ValueError("quotient/remainder not integral")
    quot, rem = res
    return MaskPolynomial.from_dense(quot), MaskPolynomial.from_dense(rem)


def divides(f: MaskPolynomial, g: MaskPolynomial) -> bool:
    """True iff f | g in Z[x]."""
    if f.is_zero:
        raise ZeroDivisionError("zero polynomial divides nothing")
    if g.is_zero:
        return True
    if g.degree < f.degree:
        return False
    try:
        _, rem = divmod_exact(g, f)
    except ValueError:
        return False
    return rem.is_zero


def exact_quotient(g: MaskPolynomial, f: MaskPolynomial) -> MaskPolynomial:
    q, r = divmod_exact(g, f)
    if not r.is_zero:
        raise ValueError("not divisible")
    return q


# ---------------------------------------------------------------------------
# Cyclotomic polynomials.


# Largest trial divisor of factorize.  Every n below FACTOR_LIMIT^2 = 2^40
# is factored in full; so is any n whose cofactor drops below that bound
# once its small primes are divided out.  A full run of trial divisions
# takes about 0.1 s on a 2-core x86 container.
FACTOR_LIMIT = 1 << 20


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization ((p, a), ...) of n, primes increasing; () for n < 2.

    A cofactor with no prime factor up to FACTOR_LIMIT that is still too
    large to be proven prime raises PointLimitExceeded.
    """
    out = []
    m, p = n, 2
    while p * p <= m and p <= FACTOR_LIMIT:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            out.append((p, a))
        p += 1 if p == 2 else 2
    if p * p <= m:
        raise PointLimitExceeded(
            f"factorizing {n} leaves the cofactor {m}, which has no prime factor up to "
            f"FACTOR_LIMIT = 2^{FACTOR_LIMIT.bit_length() - 1} and is not proven prime"
        )
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def _radical(n: int) -> int:
    return math.prod(p for p, _ in factorize(n))


@lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> MaskPolynomial:
    """Exact coefficients of Phi_d.

    Squarefree indices d > 1 use the Moebius form
    Phi_d(x) = prod over e | d of (1 - x^e)^mu(d/e), as a power series cut
    at degree phi(d): each factor 1 - x^e or its inverse 1 + x^e + x^2e + ...
    costs one pass over phi(d) + 1 coefficients.  Other indices use
    Phi_d(x) = Phi_rad(d)(x^(d/rad)).
    """
    if d < 1:
        raise ValueError("cyclotomic index must be >= 1")
    if d == 1:
        return MaskPolynomial(((0, -1), (1, 1)))
    rad = _radical(d)
    if rad != d:
        return cyclotomic_poly(rad).compose_power(d // rad)
    primes = [p for p, _ in factorize(d)]
    coeffs = [1] + [0] * euler_phi(d)
    for mask in range(1 << len(primes)):
        chosen = [p for i, p in enumerate(primes) if mask >> i & 1]
        e = d // math.prod(chosen)  # mu(d/e) = (-1)^len(chosen)
        if len(chosen) % 2:  # divide by 1 - x^e
            for i in range(e, len(coeffs)):
                coeffs[i] += coeffs[i - e]
        else:  # multiply by 1 - x^e
            for i in range(len(coeffs) - 1, e - 1, -1):
                coeffs[i] -= coeffs[i - e]
    return MaskPolynomial.from_dense(coeffs)


def euler_phi(n: int) -> int:
    out = n
    for p, _ in factorize(n):
        out -= out // p
    return out


def compose_cyclotomic_indices(d: int, s: int) -> dict[int, int]:
    """Cyclotomic factorization of Phi_d(x^s) as {index: multiplicity}.

    Phi_d(x^p) equals Phi_{dp}(x) when p | d and Phi_d(x)*Phi_{dp}(x)
    otherwise; applying this prime by prime over s gives the factor list
    without materializing any large polynomial.
    """
    if d < 1 or s < 1:
        raise ValueError("indices must be positive")
    current = {d: 1}
    for p, a in factorize(s):
        for _ in range(a):
            nxt: dict[int, int] = {}
            for e, m in current.items():
                if e % p == 0:
                    nxt[e * p] = nxt.get(e * p, 0) + m
                else:
                    nxt[e] = nxt.get(e, 0) + m
                    nxt[e * p] = nxt.get(e * p, 0) + m
            current = nxt
    return current


# ---------------------------------------------------------------------------
# Vanishing sums of roots of unity.

# Entries of the (digits, root order) verdict memo of vanishing_sum_test.
_ORDER_MEMO_SIZE = 1024


def _vanishes(counts: dict[int, int], n: int) -> bool:
    """Exact test: sum of counts[r] * zeta_n^r == 0, decided prime by prime.

    Write n = p^a * m with p the largest prime factor, so p does not
    divide m.  By the CRT, zeta_n^r may be replaced by
    zeta_(p^a)^(r mod p^a) * zeta_m^(r mod m): that is r -> zeta_n^(k*r)
    for a unit k, a Galois conjugate, which vanishes iff the sum does.
    Grouping the terms by u = r mod p^a writes the sum as
    sum over u of zeta_(p^a)^u * X_u, each X_u = sum of c * zeta_m^(r mod m)
    in Q(zeta_m).  Q(zeta_(p^a)) and Q(zeta_m) are linearly disjoint, so
    zeta_(p^a) keeps its minimal polynomial Phi_(p^a)(x) = Phi_p(x^(p^(a-1)))
    over Q(zeta_m), and the sum vanishes iff Phi_(p^a) divides
    sum of X_u * x^u.  The multiples of degree below p^a are
    g(x) * Phi_p(x^(p^(a-1))) with deg g < p^(a-1): one relation per class
    u0 mod p^(a-1), whose p groups u0 + v*p^(a-1), v < p, must hold equal
    values.  A class with an empty group needs each of its groups to
    vanish alone; a full class needs each X_v - X_w to vanish, w its
    group with fewest terms.  Each of these is a sum over Z_m, decided the
    same way on the next prime; at m = 1 it is an integer.  The first
    part that cannot vanish decides, and a single nonzero term never
    vanishes.  Only full classes loop over their p groups, so the cost
    follows the number of terms, never n or p, and Python ints never
    overflow.
    """
    reduced: dict[int, int] = {}
    for r, c in counts.items():
        reduced[r % n] = reduced.get(r % n, 0) + c
    return _vanishes_over(reduced, n, factorize(n))


def _vanishes_over(counts: dict[int, int], n: int, fac: tuple[tuple[int, int], ...]) -> bool:
    """``_vanishes`` on distinct residues mod n = product of ``fac``."""
    terms = [(r, c) for r, c in counts.items() if c]
    if len(terms) < 2:
        return not terms
    (p, a), rest = fac[-1], fac[:-1]
    q = p**a
    sub, m = q // p, n // q
    groups: dict[int, dict[int, int]] = {}
    for r, c in terms:
        group = groups.setdefault(r % q, {})
        group[r % m] = group.get(r % m, 0) + c
    classes: dict[int, list[dict[int, int]]] = {}
    for u, group in groups.items():
        classes.setdefault(u % sub, []).append(group)
    for members in classes.values():
        if len(members) < p:
            parts = members
        else:
            pivot = min(members, key=len)
            parts = (_minus(group, pivot) for group in members if group is not pivot)
        if not all(_vanishes_over(part, m, rest) for part in parts):
            return False
    return True


def _minus(group: dict[int, int], pivot: dict[int, int]) -> dict[int, int]:
    """group - pivot, in place."""
    for w, c in pivot.items():
        group[w] = group.get(w, 0) - c
    return group


def has_cyclotomic_factor(poly: MaskPolynomial, d: int, multiplicity: int = 1) -> bool:
    """Exact test Phi_d^m | poly for m = multiplicity.

    Phi_d is irreducible, so this holds iff zeta_d is a root of poly of
    multiplicity >= m, i.e. iff (x d/dx)^j poly = sum of c * e^j * x^e
    vanishes at zeta_d for every j < m.  Each value is decided by the
    prime-by-prime test, which reads exponents mod d itself, so no fold or
    division is needed whatever the degree.
    """
    return all(
        _vanishes({e: c * e**j for e, c in poly.terms}, d) for j in range(multiplicity)
    )


def vanishing_sum_test(d_set: DigitSet | Iterable[int], t: int, n: int) -> bool:
    """Decide exactly whether sum over d in D of e(2*pi*i*d*t/n) vanishes.

    zeta_n^t is a primitive m-th root of unity for m = n / gcd(t, n), say
    zeta_m^u with u a unit mod m.  So the sum is D(zeta_m^u), the Galois
    conjugate sigma_u(D(zeta_m)); sigma_u is a field automorphism, so the
    sum vanishes iff D(zeta_m) = sum of zeta_m^(d mod m) does.  The verdict
    depends on (D, m) alone and is decided once per pair by the
    prime-by-prime test, in a bounded memo keyed on the full digit tuple.
    A DigitSet also keeps its verdicts by m (at most _ORDER_MEMO_SIZE of
    them) in ``order_verdicts``, so a repeated question about it costs
    O(1), not a hash of its digits.  t = 0 (mod n) gives m = 1, where the
    sum is |D|; an empty D vanishes.  ``vanishing_by_division`` is the
    direct divisibility form, kept as the independent oracle.
    """
    if n < 2:
        raise ValueError("modulus must be >= 2")
    m = n // math.gcd(t, n)
    if not isinstance(d_set, DigitSet):
        return _vanishes_at_order(tuple(d_set), m)
    verdicts = d_set.order_verdicts
    verdict = verdicts.get(m)
    if verdict is None:
        verdict = _vanishes_at_order(d_set.digits, m)
        if len(verdicts) < _ORDER_MEMO_SIZE:
            verdicts[m] = verdict
    return verdict


@lru_cache(maxsize=_ORDER_MEMO_SIZE)
def _vanishes_at_order(digits: tuple[int, ...], m: int) -> bool:
    """sum over d in digits of zeta_m^d == 0, exactly."""
    counts: dict[int, int] = {}
    for d in digits:
        r = d % m
        counts[r] = counts.get(r, 0) + 1
    return _vanishes_over(counts, m, factorize(m))


def vanishing_by_division(d_set: Iterable[int], t: int, n: int) -> bool:
    """Same decision via exact polynomial division by Phi_n (slow, exact)."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    acc: dict[int, int] = {}
    for d in d_set:
        r = (d * t) % n
        acc[r] = acc.get(r, 0) + 1
    folded = MaskPolynomial(tuple(acc.items()))
    if folded.is_zero:
        return True
    return divides(cyclotomic_poly(n), folded)


# ---------------------------------------------------------------------------
# Cyclotomic factorization of mask polynomials.


@dataclass(frozen=True)
class CyclotomicFactorization:
    """factors: ((d, multiplicity), ...); residual has no Phi_d with
    phi(d) <= degree of the input.  The product identity
    prod Phi_d^mult * residual == input is re-checked at construction."""

    factors: tuple[tuple[int, int], ...]
    residual: MaskPolynomial
    input: MaskPolynomial

    def __post_init__(self):
        prod = MaskPolynomial.one()
        for d, m in self.factors:
            prod = prod * cyclotomic_poly(d) ** m
        if prod * self.residual != self.input:
            raise AssertionError("factorization does not multiply back to the input")


def _primes_upto(n: int) -> list[int]:
    """The primes p <= n, increasing."""
    sieve = bytearray([1]) * (n + 1)
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(sieve[p * p :: p]))
    return [p for p in range(2, n + 1) if sieve[p]]


def _candidate_indices(max_phi: int) -> list[int]:
    """All d >= 1 with phi(d) <= max_phi, increasing ([1] at 0).  phi(d)
    is the product of p^(a-1) * (p - 1) over p^a exactly dividing d, so each
    such d is built once from powers of increasing primes p <= max_phi + 1."""
    primes = _primes_upto(max_phi + 1)
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


def _shares_every_residue(exponents: Sequence[int], s: int) -> bool:
    """True iff each of the increasing exponents is congruent mod s to
    another one.  Once s passes the largest, each is alone in its class."""
    return s <= exponents[-1] and 1 not in Counter(e % s for e in exponents).values()


# Largest degree cyclotomic_factorization takes: it walks every index d with
# phi(d) up to the degree, so its cost grows with the degree, which a digit
# set's mask can make as large as it likes.  In process on a 2-core x86
# container {0, 1, 10000} factors in 0.05-0.07 s and {0, 1, 40000} in
# 0.2-0.3 s.  A mask with a term at every exponent leaves most indices to
# the exact test: {0, 1, ..., 800} takes 0.36 s.
FACTOR_DEGREE_LIMIT = 10_000


def cyclotomic_factorization(poly: MaskPolynomial) -> CyclotomicFactorization:
    """Split off every cyclotomic factor Phi_d (with multiplicity).

    The Phi_d are pairwise coprime, so the factors' degrees add up to at
    most deg poly.  Each multiplicity is decided on the sparse input by the
    exact test ``has_cyclotomic_factor``, within what is left of that
    budget; one exact division per factor then gives the residual.  A
    degree above FACTOR_DEGREE_LIMIT raises PointLimitExceeded before any
    work.

    Before the exact test, every index d that an integer criterion rules
    out is discarded, so only the indices kept are factored for phi(d).
    Let poly have k terms, P be the product of the primes up to k, and
    s(d) = d / gcd(d, P), d with its primes up to k divided out once.  If
    Phi_d | poly, every exponent e of poly is congruent mod s(d) to another
    exponent; the verdict depends on s(d) alone and is taken once per
    value.  Proof: reduce the exponents mod d.  If e shares its residue
    with another exponent, that one will do.  Otherwise the residue of e
    carries the nonzero coefficient of e in the vanishing sum over the
    residues with nonzero coefficients.  That sum splits into minimal
    vanishing sub-sums, each with at least two terms, since one nonzero
    term never vanishes, and at most k.  By Mann's theorem (H. B. Mann,
    "On linear relations between roots of unity", Mathematika 12 (1965)),
    in a vanishing sum of k' rational multiples of roots of unity with no
    vanishing proper sub-sum, every ratio of two of the roots is a P'-th
    root of unity, P' the product of the primes up to k'.  P' divides P,
    so d | P * (e - e') for the exponent e' of another residue in the
    sub-sum of e, which is s(d) | e - e'.  The argument holds for integer
    coefficients of any sign, and Phi_d^m | poly needs Phi_d | poly, so
    the factors found are those of the search without the criterion.
    """
    if poly.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    what = f"the complete index search would run to degree {poly.degree}"
    refuse_above("FACTOR_DEGREE_LIMIT", FACTOR_DEGREE_LIMIT, what, poly.degree)
    exponents = [e for e, _ in poly.terms]
    primorial = math.prod(_primes_upto(len(exponents)))
    shared: dict[int, bool] = {}  # the criterion's verdict, by s(d)
    budget = poly.degree
    found: list[tuple[int, int]] = []
    for d in _candidate_indices(poly.degree):
        s = d // math.gcd(d, primorial)
        if s not in shared:
            shared[s] = _shares_every_residue(exponents, s)
        if not shared[s]:
            continue
        phi_d, mult = euler_phi(d), 0
        while (mult + 1) * phi_d <= budget and has_cyclotomic_factor(poly, d, mult + 1):
            mult += 1
        if mult:
            found.append((d, mult))
            budget -= mult * phi_d
    residual = poly
    for d, mult in found:
        residual = exact_quotient(residual, cyclotomic_poly(d) ** mult)
    return CyclotomicFactorization(tuple(found), residual, poly)


# ---------------------------------------------------------------------------
# Kernel polynomials for modulo product-forms.


@dataclass(frozen=True)
class KernelData:
    """The cyclotomic factorization of K^(j) and both computations of its
    modulus.

    ``n_j`` is the defining value: the lcm of the cyclotomic indices of
    K^(j).  ``n_j_scaled`` is the alternative expression m_j * N^(l_1+..+l_j);
    the two agree exactly when every maximal index appears at the top
    stage scale (true for the canonical p^alpha*q shapes, not for all
    specs), and ``n_j`` always divides ``n_j_scaled``.
    """

    n_j: int
    n_j_scaled: int
    m_j: int
    cyclotomic_indices: tuple[tuple[int, int], ...]  # factorization of K^(j)

    @property
    def poly(self) -> MaskPolynomial:
        """K^(j) itself, the product of Phi_e^m over ``cyclotomic_indices``;
        multiplied out only here, since no decision reads it."""
        out = MaskPolynomial.one()
        for e, m in self.cyclotomic_indices:
            out = out * cyclotomic_poly(e) ** m
        return out


def kernel_polynomial(
    e_parts: Sequence[DigitSet | Iterable[int]],
    t_indices: Iterable[int],
    ells: Sequence[int],
    n: int,
) -> tuple[KernelData, ...]:
    """K^(0), ..., K^(k) from one pass, where
    K^(j)(x) = prod over i <= j, d in S_i of Phi_d(x^(N^(l_1+...+l_i))).

    S_i collects the indices d > 1 of the target set with Phi_d dividing the
    mask of factor i, each decided once by ``vanishing_sum_test`` (Phi_d
    divides the mask of E iff the sum of zeta_d^e over E vanishes); their
    union must cover the target set.  K^(j) extends K^(j-1) by level j's
    indices, kept as cyclotomic indices (obtained structurally, without
    factoring or multiplying); ``KernelData.poly`` multiplies one out on
    demand.  n_j, the lcm of those indices, must divide the independently
    computed m_j * N^(l_1+...+l_j).
    """
    if len(ells) != len(e_parts) - 1:
        raise ValueError("need one scale exponent per stage")
    t_set = {int(d) for d in t_indices}
    s_sets = [
        sorted(d for d in t_set if d > 1 and vanishing_sum_test(part, 1, d)) for part in e_parts
    ]
    covered = set().union(*s_sets)
    if covered != t_set:
        raise CoverageFailure(
            f"factor index sets cover {sorted(covered)} but target is {sorted(t_set)}"
        )
    levels = []
    indices: dict[int, int] = {}
    m_j = 1
    for j, s_set in enumerate(s_sets):
        scale = n ** sum(ells[:j])
        for d in s_set:
            for e, m in compose_cyclotomic_indices(d, scale).items():
                indices[e] = indices.get(e, 0) + m
        n_j = math.lcm(*(e for e in indices if e > 1))
        m_j = math.lcm(m_j, *s_set)
        if m_j * scale % n_j:
            raise AssertionError(f"kernel index lcm must divide m_j * N^L ({n_j} vs {m_j * scale})")
        levels.append(KernelData(n_j, m_j * scale, m_j, tuple(sorted(indices.items()))))
    return tuple(levels)
