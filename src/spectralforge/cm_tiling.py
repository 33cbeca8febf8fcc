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
from functools import lru_cache
from typing import Mapping, Sequence

from .cyclotomic import (
    KernelData,
    MaskPolynomial,
    factorize,
    has_cyclotomic_factor,
    kernel_polynomial,
)
from .digitsets import DigitSet, _expand_layers, direct_sum_digits
from .errors import (
    CMConditionFailure,
    InvalidVariantParams,
    KernelDivisibilityFailure,
    NotCompleteResidues,
    OverlapError,
    SearchLimitReached,
    SpectrumUnavailable,
    ValidationFailure,
)
from .hadamard import _duplicate_residue, verify_triple
from .productform import KStageForm, ValidationReport, as_layer, validate_k_stage


def _divisors(n: int) -> list[int]:
    out = [1]
    for p, a in factorize(n):
        out = [d * p**i for d in out for i in range(a + 1)]
    return sorted(out)


def is_prime(n: int) -> bool:
    return factorize(n) == ((n, 1),)


def _prime_power_base(s: int) -> int | None:
    f = factorize(s)
    return f[0][0] if len(f) == 1 else None


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
    conditions hold.  The spectrum is certified through verify_triple before
    being emitted; emission without certification is a bug, not an option.
    """
    residues = tuple(sorted({d % n for d in a.digits}))
    mask = MaskPolynomial.from_digits(residues)
    s_indices = tuple(
        s
        for s in _divisors(n)
        if s > 1 and _prime_power_base(s) is not None and has_cyclotomic_factor(mask, s)
    )
    expected = 1
    for s in s_indices:
        expected *= _prime_power_base(s)
    t1 = mask.evaluate_int(1) == expected
    t1_detail = f"|A mod N| = {len(residues)} vs product {expected}"

    t2 = True
    t2_detail = ""
    by_prime: dict[int, list[int]] = {}
    for s in s_indices:
        by_prime.setdefault(_prime_power_base(s), []).append(s)
    primes = sorted(by_prime)
    for r in range(2, len(primes) + 1):
        for chosen in itertools.combinations(primes, r):
            for combo in itertools.product(*[by_prime[p] for p in chosen]):
                idx = math.prod(combo)
                if not has_cyclotomic_factor(mask, idx):
                    t2 = False
                    t2_detail = f"Phi_{idx} (from {combo}) does not divide the mask"
                    break
            if not t2:
                break
        if not t2:
            break

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
        p = _prime_power_base(s)
        if p is None or n % s:
            raise ValueError(f"{s} is not a prime power dividing {n}")
        ranges.append([e * (n // s) for e in range(p)])
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


def _checked_witness(residues: Sequence[int], complement: Sequence[int], n: int) -> DigitSet:
    """C as a witness, after counting that A (+) C == Z_N."""
    if len(residues) * len(complement) != n or len(
        {(x + y) % n for x in residues for y in complement}
    ) != n:
        raise AssertionError(f"complement {sorted(complement)} does not tile Z_{n} with the set")
    return DigitSet(max(n, 2), tuple(complement))


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
    """
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
    fixed = tuple(p if isinstance(p, DigitSet) else DigitSet(base, tuple(p)) for p in parts)
    zs = tuple(sorted((tuple(k), v) for k, v in (zshifts or {}).items())) if isinstance(
        zshifts, Mapping
    ) else tuple(zshifts or ())
    return ModuloProductFormSpec(base, fixed, tuple(t_indices), tuple(ells), zs)


@lru_cache(maxsize=None)
def spec_kernels(spec: ModuloProductFormSpec) -> tuple[KernelData, ...]:
    """Kernel data for every level; validates coverage and index divisibility."""
    e_all = direct_sum_digits(*[p.digits for p in spec.parts])
    mask = MaskPolynomial.from_digits(tuple(x - min(e_all) for x in e_all))
    for d in spec.t_indices:
        if not has_cyclotomic_factor(mask, d):
            raise ValueError(f"Phi_{d} does not divide the mask of the full direct sum")
    return tuple(
        kernel_polynomial(list(spec.parts), spec.t_indices, list(spec.ells), spec.base, j)
        for j in range(spec.stages + 1)
    )


def _modulo_stages(spec: ModuloProductFormSpec, kernels: Sequence[KernelData]):
    """Stages (j, N^(l_1+..+l_j), E_j) for the layered expansion, where
    E_j(d) = {e + m_j * z(j, d, e) : e in E_j}."""
    stages = []
    total = 0
    for j in range(1, spec.stages + 1):
        total += spec.ells[j - 1]

        def layer(d, part=spec.parts[j].digits, m_j=kernels[j].m_j, z=spec.z(j)):
            return tuple(e + m_j * z.get((d, e), 0) for e in part)

        stages.append((j, spec.base**total, layer))
    return stages


def generate_modulo_product_form(spec: ModuloProductFormSpec) -> DigitSet:
    """Iterate D_j = D_(j-1) + N^(l_1+..+l_j) * (E_j + m_j * z) and certify
    that the top kernel polynomial divides the mask of the result."""
    kernels = spec_kernels(spec)
    digits = _expand_layers(spec.parts[0].digits, _modulo_stages(spec, kernels))[-1]
    low = min(digits)
    mask = MaskPolynomial.from_digits(tuple(x - low for x in digits))
    # K^(k) is a product of pairwise coprime powers Phi_e^m, so it divides
    # the mask iff each of them does
    top = kernels[spec.stages]
    if not all(has_cyclotomic_factor(mask, e, m) for e, m in top.cyclotomic_indices):
        raise KernelDivisibilityFailure(
            "kernel polynomial does not divide the generated mask; invalid spec or bug"
        )
    return DigitSet(spec.base, tuple(digits))


def modulo_to_k_stage(
    spec: ModuloProductFormSpec,
    spectra: Sequence[DigitSet] | None = None,
) -> tuple[KStageForm, ValidationReport]:
    """Parent-keyed layer tree E_j(d) = {e + m_j * z(d,e)} with spectra.

    Spectra default to the explicit tiling spectra of the factor sets; a
    factor failing the tiling conditions raises SpectrumUnavailable.  The
    resulting form is validated exactly and the report returned; failures
    are reported, never patched.
    """
    kernels = spec_kernels(spec)
    if spectra is None:
        spectra = []
        for idx, part in enumerate(spec.parts):
            prof = cm_profile(part, spec.base)
            if prof.tiling_spectrum is None:
                raise SpectrumUnavailable(idx, prof.t1_detail or prof.t2_detail)
            spectra.append(prof.tiling_spectrum)
    if len(spectra) != len(spec.parts):
        raise ValueError("need one spectrum per factor set")

    stages = _modulo_stages(spec, kernels)
    parents = _expand_layers(spec.parts[0].digits, stages)[:-1]
    layers: list = []
    for (j, _, layer), level in zip(stages, parents):
        this_layer = {d: DigitSet(spec.base, layer(d)) for d in level}
        constant = all(part.digits == spec.parts[j].digits for part in this_layer.values())
        layers.append(spec.parts[j] if constant else as_layer(this_layer))
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


def _range_set(p: int) -> tuple[int, ...]:
    return tuple(range(p))


def _scaled(base: int, s: int, p: int) -> DigitSet:
    return DigitSet(base, tuple(s * e for e in range(p)))


def _scaled_prime_indices(r: int, s: int) -> set[int]:
    """Cyclotomic indices of the mask of s*{0..r-1}: divisors of r*s not
    dividing s."""
    return {d for d in _divisors(r * s) if s % d}


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

    Spectra attached per level make every stage an exactly verified
    Hadamard triple; the form validation re-checks all products.  For
    variant ii the defining residue congruences of the q^M scaling are
    checked exactly and returned.
    """
    if not (is_prime(p) and is_prime(q)) or p == q:
        raise InvalidVariantParams("p, q must be distinct primes")
    if alpha < 1:
        raise InvalidVariantParams("alpha must be >= 1")
    if m_values is not None and variant != "ii":
        raise InvalidVariantParams(f"shift exponents apply to variant ii only, not {variant!r}")
    n = p**alpha * q
    ep = _range_set(p)
    eq = _range_set(q)

    if variant == "i":
        parts = [DigitSet(n, ep), _scaled(n, p, q)]
        parts += [_scaled(n, p**j * q, p) for j in range(1, alpha)]
        spectra = [_scaled(n, p ** (alpha - 1) * q, p), _scaled(n, p ** (alpha - 1), q)]
        spectra += [_scaled(n, p ** (alpha - j), p) for j in range(2, alpha + 1)]
    elif variant == "iii":
        parts = [DigitSet(n, eq)]
        parts += [_scaled(n, p**j * q, p) for j in range(0, alpha)]
        spectra = [_scaled(n, p**alpha, q)]
        spectra += [_scaled(n, p ** (alpha - j), p) for j in range(1, alpha + 1)]
    elif variant == "ii":
        if alpha < 2:
            raise InvalidVariantParams("variant ii needs alpha >= 2")
        ms = list(m_values) if m_values is not None else [1] * (alpha - 1)
        if len(ms) != alpha - 1:
            raise InvalidVariantParams(
                f"variant ii needs alpha-1 = {alpha - 1} shift exponents, got {len(ms)}"
            )
        if any(m < 0 for m in ms):
            raise InvalidVariantParams("variant ii needs alpha-1 shift exponents >= 0")
        big_m = max(ms)
        k_idx = max(j for j in range(1, alpha) if ms[j - 1] == big_m)
        return _variant_ii(p, q, alpha, ms, big_m, k_idx, zshifts)
    else:
        raise InvalidVariantParams(f"unknown variant {variant!r}")

    t_indices = sorted(d for d in _divisors(n) if d > 1)
    spec = modulo_spec(n, parts, t_indices, [1] * (len(parts) - 1), zshifts)
    generated = generate_modulo_product_form(spec)
    form, report = modulo_to_k_stage(spec, spectra=spectra)
    if not report.ok:
        raise ValidationFailure(report)
    return PaqResult(
        multiplier=1,
        digits=generated,
        form=form,
        report=report,
        generated=generated,
        spec_generated=spec,
    )


def _variant_ii(p, q, alpha, ms, big_m, k_idx, zshifts):
    n = p**alpha * q

    # nested shape (gcd 1); its own kernel certificate is checked on
    # generation below
    parts_orig = [DigitSet(n, _range_set(p)), _scaled(n, p ** (alpha * (big_m + 1) + k_idx), q)]
    parts_orig += [_scaled(n, p ** (alpha * ms[j - 1] + j), p) for j in range(1, alpha)]
    t_orig: set[int] = set()
    t_orig |= _scaled_prime_indices(p, 1)
    t_orig |= _scaled_prime_indices(q, p ** (alpha * (big_m + 1) + k_idx))
    for j in range(1, alpha):
        t_orig |= _scaled_prime_indices(p, p ** (alpha * ms[j - 1] + j))
    spec_orig = modulo_spec(n, parts_orig, sorted(t_orig), [1] * alpha)
    d_orig = generate_modulo_product_form(spec_orig)

    mult = q**big_m

    # Multiplied first-order shape.  Multiplying the nested digits by q^M
    # turns each p-power factor into N^(fixed shift) times a residue-level
    # factor; the cumulative stage scales below absorb the N powers.
    staged = [
        (
            1 + big_m,
            _scaled(n, p ** (alpha + k_idx), q),
            _scaled(n, 1, q),
        )
    ]
    for j in range(1, alpha):
        staged.append(
            (
                j + 1 + ms[j - 1],
                _scaled(n, q ** (big_m - ms[j - 1]) * p**j, p),
                _scaled(n, p ** (alpha - j - 1) * q, p),
            )
        )
    staged.sort(key=lambda item: item[0])
    merged: list[tuple[int, DigitSet, DigitSet]] = []
    for exp, part, spec_l in staged:
        if merged and merged[-1][0] == exp:
            prev_exp, prev_part, prev_l = merged.pop()
            part = DigitSet(n, direct_sum_digits(prev_part.digits, part.digits))
            spec_l = DigitSet(n, direct_sum_digits(prev_l.digits, spec_l.digits))
            exp = prev_exp
        merged.append((exp, part, spec_l))
    parts = [_scaled(n, mult, p)] + [part for _, part, _ in merged]
    spectra = [_scaled(n, p ** (alpha - 1) * q, p)] + [l for _, _, l in merged]
    exps = [exp for exp, _, _ in merged]
    new_ells = [exps[0]] + [b - a for a, b in zip(exps, exps[1:])]

    total = direct_sum_digits(*[part.digits for part in parts])
    if sorted({x % n for x in total}) != list(range(n)):
        raise NotCompleteResidues(
            f"multiplied factor sets are not a complete residue system mod {n} "
            f"(multiplier exponent {big_m})"
        )

    t_first = sorted(d for d in _divisors(n) if d > 1)
    spec_first = modulo_spec(n, parts, t_first, new_ells, zshifts)
    generated = generate_modulo_product_form(spec_first)
    if any(x % mult for x in generated.digits):
        raise AssertionError("generated digits must be divisible by the multiplier")
    digits = DigitSet(n, tuple(x // mult for x in generated.digits))
    if not (zshifts or ()) and digits.digits != d_orig.digits:
        raise AssertionError("multiplied first-order expansion must match the nested shape")

    form, report = modulo_to_k_stage(spec_first, spectra=spectra)
    if not report.ok:
        raise ValidationFailure(report)

    congruences = [
        CongruenceCheck(
            "q^M * E_p == E_p (mod p)",
            tuple(q**big_m * e for e in range(p)),
            tuple(range(p)),
            p,
        ),
        CongruenceCheck(
            "p^(alpha+k) * E_q == p^alpha * E_q (mod q)",
            tuple(p ** (alpha + k_idx) * e for e in range(q)),
            tuple(p**alpha * e for e in range(q)),
            q,
        ),
    ]
    for j in range(1, alpha):
        congruences.append(
            CongruenceCheck(
                f"q^(M-M_{j}) * p^{j} * E_p == p^{j} * E_p (mod p^{j + 1})",
                tuple(q ** (big_m - ms[j - 1]) * p**j * e for e in range(p)),
                tuple(p**j * e for e in range(p)),
                p ** (j + 1),
            )
        )

    return PaqResult(
        multiplier=mult,
        digits=digits,
        form=form,
        report=report,
        generated=generated,
        spec_generated=spec_first,
        congruences=tuple(congruences),
    )


# ---------------------------------------------------------------------------
# Product triples from tiling complements.


def cm_regular_product_triple(n: int, parts: Sequence[DigitSet]) -> KStageForm:
    """Constant-layer stage form from a factorization of Z_N.

    Requires the direct sum of the parts to be a complete residue system
    and every part, prefix sum, and suffix sum to carry the two tiling
    conditions; the per-part spectra are the explicit tiling spectra.  The
    assembled form is re-validated exactly; nothing rides on regularity
    assumptions about the group.
    """
    fixed = [part if isinstance(part, DigitSet) else DigitSet(n, tuple(part)) for part in parts]
    try:
        total = direct_sum_digits(*[part.digits for part in fixed])
    except OverlapError as exc:
        raise NotCompleteResidues(f"parts do not sum directly: {exc}") from exc
    if sorted({x % n for x in total}) != list(range(n)):
        raise NotCompleteResidues("direct sum of parts is not a complete residue system")

    spectra = []
    for idx, part in enumerate(fixed):
        prof = cm_profile(part, n)
        if not prof.t1:
            raise CMConditionFailure(f"part {idx}", "size condition")
        if not prof.t2:
            raise CMConditionFailure(f"part {idx}", "product condition")
        spectra.append(prof.tiling_spectrum)

    k = len(fixed) - 1
    for m in range(1, k + 1):
        for tag, chunk in (
            (f"prefix 0..{m}", fixed[: m + 1]),
            (f"suffix {m}..{k}", fixed[m:]),
        ):
            digits = DigitSet(n, direct_sum_digits(*[c.digits for c in chunk]))
            prof = cm_profile(digits, n)
            if not prof.t1:
                raise CMConditionFailure(tag, "size condition")
            if not prof.t2:
                raise CMConditionFailure(tag, "product condition")

    form = KStageForm(
        base=n,
        ells=(1,) * k,
        e0=fixed[0],
        layers=tuple(fixed[1:]),
        spectra=tuple(spectra),
    )
    report = validate_k_stage(form)
    if not report.ok:
        raise ValidationFailure(report)
    return form
