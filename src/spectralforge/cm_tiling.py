"""Tiling conditions on Z_N, the associated spectra, and the modulo
product-form generators for tile digit sets of p^alpha*q.

The two divisibility conditions on a finite A in Z_N:

* size condition: P_A(1) equals the product of Phi_s(1) over the prime
  powers s | N with Phi_s | P_A (each contributes its prime);
* product condition: for prime powers s_1..s_k of pairwise distinct primes
  drawn from that set, Phi_{s_1...s_k} | P_A.

Together they certify that A tiles Z_N, with the Coven-Meyerowitz
complement, and carries the explicit spectrum {sum over s of eps_s * N/s}.
Failure of the size condition certifies that A does not tile Z_N, and so
does failure of the product condition when |A| has at most two prime
factors.  Nothing is assumed: every emitted spectrum is pushed through the
exact Hadamard checker and every complement is checked by counting.  Only
sets that no theorem decides get the exhaustive complement search, under
an explicit cap on its states.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .cyclotomic import (
    KernelData,
    MaskPolynomial,
    _divisors,
    factorize,
    has_cyclotomic_factor,
    kernel_polynomial,
    vanishing_sum_test,
)
from .digitsets import DigitSet, _expand_layers, direct_sum_digits
from .errors import (
    CMConditionFailure,
    InputError,
    InvalidVariantParams,
    KernelDivisibilityFailure,
    NotCompleteResidues,
    SearchLimitReached,
    ValidationFailure,
    refuse_above,
)
from .hadamard import _duplicate_residue, verify_triple
from .productform import KStageForm, ValidationReport, expand_k_stage, validate_k_stage


def is_prime(n: int) -> bool:
    return factorize(n) == ((n, 1),)


# ---------------------------------------------------------------------------
# Profiles.


@dataclass(frozen=True)
class CMProfile:
    s_indices: tuple[int, ...]
    t1: bool
    t2: bool
    tiling_spectrum: DigitSet | None
    t1_detail: str = ""
    t2_detail: str = ""


def cm_profile(a: DigitSet, n: int) -> CMProfile:
    """Divisibility profile of A mod N with the explicit spectrum when both
    conditions hold.  The prime powers s | N are read from the
    factorization of N, and each "Phi_s divides the mask" question, T2's
    products included, is asked of ``vanishing_sum_test``: Phi_s divides
    the mask of the residues iff the sum of zeta_s^r over them vanishes.
    The spectrum is certified through verify_triple before being emitted;
    emission without certification is a bug, not an option.
    """
    residues = tuple(sorted({d % n for d in a.digits}))
    by_prime: dict[int, list[int]] = {}  # prime -> its powers s in S_A, increasing
    for p, k in factorize(n):
        powers = [p**e for e in range(1, k + 1) if vanishing_sum_test(residues, n // p**e, n)]
        if powers:
            by_prime[p] = powers
    s_indices = tuple(sorted(s for powers in by_prime.values() for s in powers))
    expected = math.prod(p ** len(powers) for p, powers in by_prime.items())
    t1 = len(residues) == expected
    t1_detail = f"|A mod N| = {len(residues)} vs product {expected}"

    combos = (
        combo
        for r in range(2, len(by_prime) + 1)
        for chosen in itertools.combinations(by_prime.values(), r)
        for combo in itertools.product(*chosen)
    )
    failed = next((c for c in combos if not vanishing_sum_test(residues, n // math.prod(c), n)), None)
    t2 = failed is None
    t2_detail = "" if t2 else f"Phi_{math.prod(failed)} (from {failed}) does not divide the mask"

    spectrum = None
    if t1 and t2:
        spectrum = explicit_tiling_spectrum(s_indices, n)
        verify_triple(n, DigitSet(max(n, 2), residues), spectrum)
    return CMProfile(
        s_indices=s_indices,
        t1=t1,
        t2=t2,
        tiling_spectrum=spectrum,
        t1_detail=t1_detail,
        t2_detail=t2_detail,
    )


def explicit_tiling_spectrum(s_indices: Sequence[int], n: int) -> DigitSet:
    """{sum over s of eps_s * N/s : 0 <= eps_s < prime of s}."""
    ranges = []
    for s in s_indices:
        fac = factorize(s)
        if len(fac) != 1 or n % s:
            raise ValueError(f"{s} is not a prime power dividing {n}")
        ranges.append([e * (n // s) for e in range(fac[0][0])])
    digits = direct_sum_digits(*ranges) if ranges else (0,)
    return DigitSet(max(n, 2), digits)


# ---------------------------------------------------------------------------
# Tiling verdicts.


@dataclass(frozen=True)
class TileVerdict:
    """Whether A tiles Z_N, and the result that decided it.

    ``tiles`` is None only when the search of a set no theorem decides
    stopped at SEARCH_STATE_CAP.  ``witness`` is a complement C with
    A (+) C == Z_N, checked by counting, whenever ``tiles`` is True.
    ``detail`` names the failed condition, the congruent pair or the cap.
    """

    # TilesByT1T2 | NotTileByT1Failure | NotTileByCMB2 | NotTileByCongruentDigits | Unknown
    verdict: str
    tiles: bool | None
    witness: DigitSet | None
    detail: str = ""


# States tile_complement visits before it gives up; its memo of dead states
# then holds at most this many N-bit masks.
SEARCH_STATE_CAP = 100_000


def tile_complement(a: DigitSet, n: int) -> tuple[int, ...] | None:
    """Exhaustive search for C with A (+) C == Z_N; None when there is none.

    Depth-first over the lowest uncovered residue, with a memo of dead
    cover states; bitmask arithmetic keeps states cheap.  The search keeps
    its own stack, since a complement can hold N/|A| translates.  Visiting
    more than SEARCH_STATE_CAP states raises SearchLimitReached.
    """
    residues = sorted({d % n for d in a.digits})
    if n % len(residues):
        return None
    full = (1 << n) - 1
    shape = sum(1 << r for r in residues)

    def translate(c: int) -> int:  # the mask of A + c
        x = shape << c
        return (x | x >> n) & full

    def frame(used: int):
        # translates covering the lowest uncovered residue, in increasing order
        r = ((~used) & -(~used)).bit_length() - 1
        return used, iter(sorted({(r - x) % n for x in residues}))

    cap = SEARCH_STATE_CAP
    visited = 1
    stack = [frame(0)]
    chosen: list[int] = []
    dead: set[int] = set()
    while stack:
        used, todo = stack[-1]
        for c in todo:
            mask = translate(c)
            if mask & used:
                continue
            nxt = used | mask
            if nxt == full:
                return tuple(chosen) + (c,)
            if nxt in dead:
                continue
            visited += 1
            if visited > cap:
                raise SearchLimitReached(f"search stopped at SEARCH_STATE_CAP = {cap} states")
            chosen.append(c)
            stack.append(frame(nxt))
            break
        else:
            dead.add(used)
            stack.pop()
            if chosen:
                chosen.pop()
    return None


def cm_complement(s_indices: Sequence[int], n: int) -> tuple[int, ...]:
    """The Coven-Meyerowitz complement of a set whose prime-power indices
    S_A = ``s_indices`` satisfy T1 and T2, as residues mod N.

    With M = lcm(S_A), B(x) = prod Phi_s(x^t(s)) over the prime powers
    s | M outside S_A, t(s) the largest divisor of M prime to s, and
    C = B (+) M*{0..N/M-1}.  Phi_(p^e)(x^t) is the mask of
    t*p^(e-1)*{0..p-1}.
    """
    m = math.lcm(*s_indices)
    members = set(s_indices)
    c = [0]
    for p, k in factorize(m):
        t = m // p**k
        for e in range(1, k + 1):
            if p**e not in members:
                step = t * p ** (e - 1)
                c = [x + i * step for x in c for i in range(p)]
    return tuple((x + y) % n for x in c for y in range(0, n, m))


def _factors_zn(n: int, parts: Sequence[Sequence[int]]) -> bool:
    """Z_N = A_0 (+) ... (+) A_k: N = |A_0|...|A_k| sums, one digit from each part, all distinct mod N."""
    if math.prod(map(len, parts)) != n:
        return False
    sums = {0}
    for part in parts:
        sums = {(s + d) % n for s in sums for d in part}
    return len(sums) == n


def _checked_witness(residues: Sequence[int], complement: Sequence[int], n: int) -> DigitSet:
    """C as a witness, after counting that A (+) C == Z_N."""
    if not _factors_zn(n, (residues, complement)):
        raise AssertionError(f"complement {sorted(complement)} does not tile Z_{n} with the set")
    return DigitSet(max(n, 2), tuple(complement))


# Largest N check_tile_zn decides: a tile's complement witness holds N/|A|
# residues.  A whole check-tile process on {0, 1} takes 0.44 s at N = 2^18
# and 0.95 s at N = 2^20 on a 2-core x86 container.
TILE_BASE_LIMIT = 1 << 20


def check_tile_zn(a: DigitSet, n: int) -> TileVerdict:
    """Does A tile Z_N?  A theorem decides wherever one applies; the
    exhaustive search runs only where the theory is silent.

    S_A is the set of prime powers s | N with Phi_s dividing the mask of
    the residues of A, and T1, T2 are the two conditions over S_A, as
    ``cm_profile`` computes them.  In order:

    * Two digits congruent mod N: not a tile, since A (+) C needs |A|
      distinct residues.
    * T1 fails: not a tile.  This is Coven-Meyerowitz (J. Algebra 212
      (1999)) Theorem B1, and the restriction to s | N is sound: from
      A (+) C = Z_N, every prime power s | N has Phi_s dividing A(x) or
      C(x).  As Phi_s(1) = p, the product of the primes over S_A divides
      |A|, and likewise for C.  The primes of all prime powers s | N
      multiply to N = |A||C|, so both divisibilities are equalities.
    * T1 and T2 hold: a tile (CM Theorem A), and ``cm_complement`` builds
      the complement of Lemma 2.5.  With M = lcm(S_A), which divides N,
      the proof shows that Phi_d divides A(x)B(x) for every d | M, d > 1,
      and |A||B| = M; only prime powers of M, which divide N, enter it.
      So A (+) B = Z_M and A (+) C = Z_N.  The complement is checked by
      counting before it is returned; a failed count raises.  Laba
      (J. London Math. Soc. 65 (2002)) shows the set is also spectral.
    * T1 holds, T2 fails and |A| has at most two prime factors: not a
      tile (CM Theorem B2: a tile of Z of such a size satisfies T2).  A
      tile of Z_N tiles Z with C + NZ, and a T2 failure over s | N is one
      over all prime powers.
    * Otherwise no theorem applies, and ``tile_complement`` decides.  A
      search that reaches SEARCH_STATE_CAP gives tiles None.

    N above TILE_BASE_LIMIT raises PointLimitExceeded before any work.
    """
    refuse_above("TILE_BASE_LIMIT", TILE_BASE_LIMIT, f"a tiling of Z_{n}", n)
    dup = _duplicate_residue(a.digits, n)
    if dup:
        return TileVerdict(
            "NotTileByCongruentDigits", False, None,
            f"digits {dup[0]} and {dup[1]} are congruent mod {n}",
        )
    residues = sorted(d % n for d in a.digits)
    profile = cm_profile(a, n)
    if not profile.t1:
        return TileVerdict("NotTileByT1Failure", False, None, profile.t1_detail)
    if profile.t2:
        witness = _checked_witness(residues, cm_complement(profile.s_indices, n), n)
        return TileVerdict("TilesByT1T2", True, witness)
    if len(factorize(len(residues))) <= 2:
        return TileVerdict("NotTileByCMB2", False, None, profile.t2_detail)
    try:
        comp = tile_complement(a, n)
    except SearchLimitReached as exc:
        return TileVerdict("Unknown", None, None, str(exc))
    if comp is None:
        return TileVerdict("Unknown", False, None, profile.t2_detail)
    return TileVerdict("Unknown", True, _checked_witness(residues, comp, n), profile.t2_detail)


# ---------------------------------------------------------------------------
# Modulo product-forms.


@dataclass(frozen=True)
class ModuloProductFormSpec:
    """Factor sets E_0..E_k, target index set, stage scales, and explicit
    representative shifts z(stage, parent, e) for the mod-n_j freedom."""

    base: int
    parts: tuple[DigitSet, ...]
    t_indices: tuple[int, ...]
    ells: tuple[int, ...]
    zshifts: tuple[tuple[tuple[int, int, int], int], ...] = ()

    def __post_init__(self):
        if len(self.ells) != len(self.parts) - 1:
            raise ValueError("need one scale per stage beyond level 0")
        if any(e < 1 for e in self.ells):
            raise ValueError("stage scales must be positive")
        object.__setattr__(self, "t_indices", tuple(sorted(set(self.t_indices))))
        object.__setattr__(self, "zshifts", tuple(sorted(self.zshifts)))

    @property
    def stages(self) -> int:
        return len(self.parts) - 1

    def z(self, stage: int) -> dict[tuple[int, int], int]:
        """The shifts z(stage, parent, e) of one stage, keyed (parent, e);
        an absent key means 0."""
        return {(parent, e): val for (j, parent, e), val in self.zshifts if j == stage}


def modulo_spec(base, parts, t_indices, ells, zshifts=None) -> ModuloProductFormSpec:
    """The spec of ``parts``; ``zshifts`` maps (stage, parent, e) to z, or is None."""
    fixed = tuple(p if isinstance(p, DigitSet) else DigitSet(base, tuple(p)) for p in parts)
    zs = tuple(sorted((tuple(k), v) for k, v in (zshifts or {}).items()))
    return ModuloProductFormSpec(base, fixed, tuple(t_indices), tuple(ells), zs)


def spec_kernels(spec: ModuloProductFormSpec) -> tuple[KernelData, ...]:
    """Kernel data for every level, from one ``kernel_polynomial`` pass.

    The factor sets must sum directly (else OverlapError).  The mask of a
    direct sum is the product of its parts' masks, and the irreducible
    Phi_d divides that product only by dividing one part's mask, so
    ``kernel_polynomial``'s coverage check decides every target on the
    parts alone: a target that no part covers, or one below 2, raises
    CoverageFailure.
    """
    direct_sum_digits(*[p.digits for p in spec.parts])
    return kernel_polynomial(spec.parts, spec.t_indices, spec.ells, spec.base)


def _certified_levels(spec: ModuloProductFormSpec):
    """The one derivation of a spec: its kernels, its stages
    (j, N^(l_1+..+l_j), E_j) with E_j(d) = {e + m_j * z(j, d, e) : e in E_j},
    and the sorted digits of every level from one layered expansion.  A
    z(j, d, e) with j outside 1..k, e not in E_j or d no digit of level j - 1
    is an InputError.  The top kernel polynomial is certified to divide the
    mask of the top level before the stages and levels are returned."""
    kernels = spec_kernels(spec)
    stages = []
    total = 0
    for j in range(1, spec.stages + 1):
        total += spec.ells[j - 1]

        def layer(d, part=spec.parts[j].digits, m_j=kernels[j].m_j, z=spec.z(j)):
            return tuple(e + m_j * z.get((d, e), 0) for e in part)

        stages.append((j, spec.base**total, layer))
    levels = _expand_layers(spec.parts[0].digits, stages)
    parents = [set(level) for level in levels[:-1]] if spec.zshifts else []
    for (j, d, e), _ in spec.zshifts:
        if not (1 <= j <= spec.stages and e in spec.parts[j].digits and d in parents[j - 1]):
            raise InputError(f"z-shift (stage {j}, parent {d}, e {e}) names no digit of the form")
    top = levels[-1]
    mask = MaskPolynomial.from_digits(tuple(x - top[0] for x in top))
    # K^(k) is a product of pairwise coprime powers Phi_e^m, so it divides
    # the mask iff each of them does
    if not all(has_cyclotomic_factor(mask, e, m) for e, m in kernels[spec.stages].cyclotomic_indices):
        raise KernelDivisibilityFailure(
            "kernel polynomial does not divide the generated mask; invalid spec or bug"
        )
    return stages, levels


def generate_modulo_product_form(spec: ModuloProductFormSpec) -> DigitSet:
    """Iterate D_j = D_(j-1) + N^(l_1+..+l_j) * (E_j + m_j * z), certified
    against the top kernel polynomial."""
    return DigitSet(spec.base, tuple(_certified_levels(spec)[1][-1]))


def modulo_to_k_stage(
    spec: ModuloProductFormSpec, spectra: Sequence[DigitSet]
) -> tuple[KStageForm, ValidationReport]:
    """Parent-keyed layer tree E_j(d) = {e + m_j * z(d,e)} of the certified
    expansion, with one given spectrum per factor set, validated exactly;
    failures are reported in the returned report, never patched."""
    if len(spectra) != len(spec.parts):
        raise ValueError("need one spectrum per factor set")

    stages, levels = _certified_levels(spec)
    layers: list = []
    for (j, _, layer), level in zip(stages, levels[:-1]):
        this_layer = {d: DigitSet(spec.base, layer(d)) for d in level}
        constant = all(part.digits == spec.parts[j].digits for part in this_layer.values())
        layers.append(spec.parts[j] if constant else this_layer)
    form = KStageForm(
        base=spec.base,
        ells=spec.ells,
        e0=spec.parts[0],
        layers=tuple(layers),
        spectra=tuple(spectra),
    )
    return form, validate_k_stage(form)


# ---------------------------------------------------------------------------
# p^alpha * q generators.


def _scaled(base: int, s: int, p: int) -> DigitSet:
    return DigitSet(base, tuple(s * e for e in range(p)))


@dataclass(frozen=True)
class CongruenceCheck:
    label: str
    lhs: tuple[int, ...]
    rhs: tuple[int, ...]
    modulus: int

    @property
    def ok(self) -> bool:
        return {x % self.modulus for x in self.lhs} == {y % self.modulus for y in self.rhs}


@dataclass(frozen=True)
class PaqResult:
    multiplier: int
    digits: DigitSet  # tile digit set (generated set divided by multiplier)
    form: KStageForm  # validated form for multiplier * digits
    report: ValidationReport
    generated: DigitSet  # expansion of the factor data the form came from
    spec_generated: ModuloProductFormSpec
    congruences: tuple[CongruenceCheck, ...] = ()


# Largest N = p^alpha * q that paq_type_generator builds.  Whole processes on
# a 2-core x86 container: variant i with p = 2, q = 3 takes 0.55 s at
# N = 3,072 and, with this limit lifted, 0.96 s at N = 6,144 and 1.65 s at
# N = 12,288; variant ii at p = 2, q = 1021, N = 4,084 takes 0.39 s.
PAQ_LIMIT = 1 << 12

# Largest scale N^e of variant ii's top stage, e = max over j of j + 1 + M_j.
# The shift exponents M_j set it, and the cost grows with it: whole
# processes on a 2-core x86 container at p = 2, q = 3, alpha = 2 take 0.31 s
# at M = 1, 0.35 s at M = 33 (the largest under the limit), 0.81 s at
# M = 200 and 13.5 s at M = 800; at p = 2, q = 1021 they take 7.3 s at
# M = 1 and 20 s at M = 8.  Every shape under PAQ_LIMIT passes at the
# default M_j = 1, the largest being (2, 3, 10) at 3,072^11 < 2^128.
PAQ_SCALE_LIMIT = 1 << 128


def paq_type_generator(
    p: int,
    q: int,
    alpha: int,
    variant: str,
    m_values: Sequence[int] | None = None,
    zshifts=None,
) -> PaqResult:
    """Generate a tile digit set of N = p^alpha * q of the given shape.

    Variants:
      i   : E_p (+) p*E_q (+) p^j*q*E_p for j = 1..alpha-1
      ii  : E_p (+) p^(alpha*(M+1)+k)*E_q (+) p^(alpha*M_j+j)*E_p; the
            returned form lives over q^M times the digit set, where the
            scaling turns the nested shape into a first-order one
      iii : E_q (+) p^j*q*E_p for j = 0..alpha-1

    Each variant only names its staged factor sets, their spectra and a
    multiplier; one staged builder, ``_staged_tile``, makes and checks all
    three.  Spectra attached per level make every stage an exactly verified
    Hadamard triple; the form validation re-checks all products.  For
    variant ii the defining residue congruences of the q^M scaling are
    checked exactly and returned.  N above PAQ_LIMIT, or a variant ii top
    stage above PAQ_SCALE_LIMIT, raises PointLimitExceeded before any work,
    the primality test included.
    """
    if min(p, q) < 2 or p == q:
        raise InvalidVariantParams("p, q must be distinct primes")
    if alpha < 1:
        raise InvalidVariantParams("alpha must be >= 1")
    if m_values is not None and variant != "ii":
        raise InvalidVariantParams(f"shift exponents apply to variant ii only, not {variant!r}")
    if variant not in ("i", "ii", "iii"):
        raise InvalidVariantParams(f"unknown variant {variant!r}")
    if variant == "ii":
        if alpha < 2:
            raise InvalidVariantParams("variant ii needs alpha >= 2")
        if m_values is not None and len(m_values) != alpha - 1:
            raise InvalidVariantParams(
                f"variant ii needs alpha-1 = {alpha - 1} shift exponents, got {len(m_values)}"
            )
        if any(m < 0 for m in m_values or ()):
            raise InvalidVariantParams("variant ii needs alpha-1 shift exponents >= 0")
    refuse_above("PAQ_LIMIT", PAQ_LIMIT, f"the tile digit set would hold {p}^{alpha} * {q} digits", p, alpha, q)
    n = p**alpha * q
    ms = list(m_values) if m_values is not None else [1] * (alpha - 1)
    if variant == "ii":
        top = max(j + 1 + m for j, m in enumerate(ms, start=1))
        refuse_above("PAQ_SCALE_LIMIT", PAQ_SCALE_LIMIT, f"variant ii's top stage would sit at {n}^{top}", n, top)
    if not (is_prime(p) and is_prime(q)):
        raise InvalidVariantParams("p, q must be distinct primes")

    def stage(exp: int, s: int, r: int, t: int):  # s*E_r at N^exp, with spectrum t*E_r
        return exp, _scaled(n, s, r), _scaled(n, t, r)

    if variant == "i":
        stages = [stage(0, 1, p, p ** (alpha - 1) * q), stage(1, p, q, p ** (alpha - 1))]
        stages += [stage(j + 1, p**j * q, p, p ** (alpha - j - 1)) for j in range(1, alpha)]
        return _staged_tile(n, 1, stages, zshifts)
    if variant == "iii":
        stages = [stage(0, 1, q, p**alpha)]
        stages += [stage(j + 1, p**j * q, p, p ** (alpha - j - 1)) for j in range(alpha)]
        return _staged_tile(n, 1, stages, zshifts)

    big_m = max(ms)
    k_idx = max(j for j in range(1, alpha) if ms[j - 1] == big_m)
    # Multiplying the nested digits by q^M turns each p-power factor into
    # N^(fixed shift) times a residue-level factor; the stage exponents
    # absorb the N powers.
    mult = q**big_m
    stages = [stage(0, mult, p, p ** (alpha - 1) * q), stage(1 + big_m, p ** (alpha + k_idx), q, 1)]
    stages += [
        stage(j + 1 + ms[j - 1], q ** (big_m - ms[j - 1]) * p**j, p, p ** (alpha - j - 1) * q)
        for j in range(1, alpha)
    ]
    congruences = _variant_ii_congruences(p, q, alpha, ms, big_m, k_idx)
    res = _staged_tile(n, mult, stages, zshifts, f" (multiplier exponent {big_m})", congruences)
    if not any((zshifts or {}).values()) and res.digits.digits != _variant_ii_nested(p, q, alpha, ms, big_m, k_idx).digits:
        raise AssertionError("multiplied first-order expansion must match the nested shape")
    return res


def _variant_ii_nested(p, q, alpha, ms, big_m, k_idx) -> DigitSet:
    """Variant ii's nested shape (gcd 1), generated under its own kernel
    certificate: the indices of a factor s*{0..r-1} are the divisors of r*s
    not dividing s."""
    n = p**alpha * q
    scales = [(p, 1), (q, p ** (alpha * (big_m + 1) + k_idx))]
    scales += [(p, p ** (alpha * ms[j - 1] + j)) for j in range(1, alpha)]
    parts = [_scaled(n, s, r) for r, s in scales]
    t_indices = sorted({d for r, s in scales for d in _divisors(r * s) if s % d})
    return generate_modulo_product_form(modulo_spec(n, parts, t_indices, [1] * alpha))


def _variant_ii_congruences(p, q, alpha, ms, big_m, k_idx) -> tuple[CongruenceCheck, ...]:
    """The residue congruences behind the q^M scaling of variant ii."""
    # (label, scale, the scale it must match, modulus, factor size)
    rows = [
        ("q^M * E_p == E_p (mod p)", q**big_m, 1, p, p),
        ("p^(alpha+k) * E_q == p^alpha * E_q (mod q)", p ** (alpha + k_idx), p**alpha, q, q),
    ]
    rows += [
        (f"q^(M-M_{j}) * p^{j} * E_p == p^{j} * E_p (mod p^{j + 1})",
         q ** (big_m - ms[j - 1]) * p**j, p**j, p ** (j + 1), p)
        for j in range(1, alpha)
    ]
    return tuple(
        CongruenceCheck(label, tuple(a * e for e in range(r)), tuple(b * e for e in range(r)), m)
        for label, a, b, m, r in rows
    )


def _staged_tile(n, mult, stages, zshifts, note="", congruences=()) -> PaqResult:
    """The one staged builder: the p^alpha*q shapes and the CM product
    triples all come through here.

    Each stage (exponent, factor set, spectrum) puts its factor set at
    N^exponent, level 0 at exponent 0.  Stages at one exponent merge by
    direct sum, and the gaps between the exponents become the stage
    scales.  The factor sets must factor Z_N (``_factors_zn``); their
    expansion is certified against its kernel polynomial and,
    divided by ``mult``, is the tile digit set.  A form that fails
    validation raises.
    """
    exps, parts, spectra = [], [], []
    for exp, group in itertools.groupby(sorted(stages, key=lambda st: st[0]), key=lambda st: st[0]):
        group = list(group)
        exps.append(exp)
        parts.append(DigitSet(n, direct_sum_digits(*[part.digits for _, part, _ in group])))
        spectra.append(DigitSet(n, direct_sum_digits(*[spec.digits for _, _, spec in group])))
    if not _factors_zn(n, [part.digits for part in parts]):
        raise NotCompleteResidues(f"multiplied factor sets do not factor Z_{n}{note}")

    t_indices = [d for d in _divisors(n) if d > 1]
    spec = modulo_spec(n, parts, t_indices, [b - a for a, b in zip(exps, exps[1:])], zshifts)
    form, report = modulo_to_k_stage(spec, spectra)
    generated = expand_k_stage(form)
    if any(x % mult for x in generated.digits):
        raise AssertionError("generated digits must be divisible by the multiplier")
    if not report.ok:
        raise ValidationFailure(report)
    digits = DigitSet(n, tuple(x // mult for x in generated.digits))
    return PaqResult(multiplier=mult, digits=digits, form=form, report=report, generated=generated,
                     spec_generated=spec, congruences=congruences)


# ---------------------------------------------------------------------------
# Product triples from tiling complements.


def cm_regular_product_triple(n: int, parts: Sequence[DigitSet]) -> KStageForm:
    """Constant-layer stage form from a factorization of Z_N.

    Requires the parts to factor Z_N and every part, and the sums of parts
    0..m and m..k for 0 < m < k, to carry the two tiling conditions (the
    sum of all parts is Z_N, which carries both).  Part j, with its
    explicit tiling spectrum, is the stage at N^j of ``_staged_tile``,
    which certifies the form against its kernel polynomial and validates
    it exactly.  The certificate cannot refuse a factorization: the parts'
    masks multiply to one that vanishes at every zeta_d, d | N, d > 1, and
    Phi_d dividing part j's mask makes Phi_d(x^(N^j)) divide the top mask.
    """
    fixed = [part if isinstance(part, DigitSet) else DigitSet(n, tuple(part)) for part in parts]
    if not _factors_zn(n, [part.digits for part in fixed]):
        raise NotCompleteResidues(f"the parts do not factor Z_{n}")

    k = len(fixed) - 1
    chunks = [(f"part {j}", [part]) for j, part in enumerate(fixed)]
    for m in range(1, k):
        chunks += [(f"prefix 0..{m}", fixed[: m + 1]), (f"suffix {m}..{k}", fixed[m:])]
    spectra = []
    for tag, chunk in chunks:
        prof = cm_profile(DigitSet(n, direct_sum_digits(*[c.digits for c in chunk])), n)
        if not prof.t1:
            raise CMConditionFailure(tag, "size condition")
        if not prof.t2:
            raise CMConditionFailure(tag, "product condition")
        spectra.append(prof.tiling_spectrum)
    return _staged_tile(n, 1, [(j, part, spectra[j]) for j, part in enumerate(fixed)], None).form
