"""One-stage and multi-stage product forms over a base N.

A one-stage form places two families of Hadamard triples at different
scales: digits expand as the union of a_s + N^r * B_s.  A k-stage form
iterates that layering, with each layer set allowed to depend on the digit
it extends.  One validator decides both: a one-stage form is the staged
form with one keyed layer.  It re-derives every defining condition
through the exact Hadamard checker; nothing is taken on faith from the
constructors.

Layer maps are keyed by the parent digit (not by position) so that
one-stage forms, whose B-sets are keyed by a_s, and k-stage layer trees use
one convention.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Union

from .digitsets import DigitSet, _expand_layers, direct_sum_digits, stacked_digits
from .errors import InputError, OverlapError, ValidationFailure, refuse_above
from .hadamard import _duplicate_residue, check_triple

LayerSpec = Union[DigitSet, tuple[tuple[int, DigitSet], ...]]


def layer_lookup(layer: LayerSpec) -> Callable[[int], DigitSet]:
    """parent -> layer set, read through one dict built per call."""
    if isinstance(layer, DigitSet):
        return lambda parent: layer
    table = dict(layer)

    def lookup(parent: int) -> DigitSet:
        if parent not in table:
            raise KeyError(f"layer has no entry for parent digit {parent}")
        return table[parent]

    return lookup


def as_layer(spec: DigitSet | Mapping[int, DigitSet]) -> LayerSpec:
    """A constant layer as it is; a map keyed by the parent digit as its
    sorted (parent, set) pairs."""
    return spec if isinstance(spec, DigitSet) else tuple(sorted(spec.items()))


# Largest scale a form may have: N^r of a one-stage form, N^(l_1+..+l_k)
# of a staged one (both sized when the form is built, before anything is
# expanded; at r = 10^30 validate-form ran past 10 s), and the base N^k
# k_stage_to_one_stage builds.  The cost of a reduction grows with k even
# when every set holds one digit: on a 2-core x86 container such a base-2
# form takes 0.45 s as a whole process at k = 256, 1.4 s at k = 512 and
# 5.1 s at k = 1000, and base 10^300 at k = 256 runs past 30 s.
BASE_LIMIT = 1 << 256

# Most digits a staged form may expand to (by its ``width``) and
# k_stage_to_one_stage may build, and most points a form's spectrum sum
# (L1 (+) L2, or L_0 (+) .. (+) L_k) may hold.  As whole processes on a
# 2-core x86 container, reduce-kstage takes 0.27 s on (2,3,3,iii) with
# 24^3 = 13,824 digits and 0.30 s on (2,3,2,i) at k = 4 with 12^4 = 20,736;
# with this limit lifted, (2,3,3,ii) with 24^4 = 331,776 takes 1.6 s, 119 MB.
DIGIT_LIMIT = 1 << 15


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "ok" if self.ok else "FAIL"
        tail = f" -- {self.detail}" if self.detail else ""
        return f"[{mark}] {self.name}{tail}"


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.checks)


@dataclass(frozen=True)
class OneStageForm:
    """Digits expand to the union of a + N^r * B_a over a in A.  N^r above
    BASE_LIMIT, or |L1| * |L2| above DIGIT_LIMIT, raises PointLimitExceeded.

    Equal B-sets (same base, digits and offset) become one DigitSet, so
    the answers it keeps (``order_verdicts``, ``modulus_facts``) serve
    every row that shares it."""

    base: int
    r: int
    a_set: DigitSet
    b_sets: tuple[tuple[int, DigitSet], ...]  # keyed by the digit a
    l1: DigitSet
    l2: DigitSet

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("scale exponent r must be >= 0")
        refuse_above("BASE_LIMIT", BASE_LIMIT, f"the scale N^r would be {self.base}^{self.r}", self.base, self.r)
        what = f"the spectrum sum L1 (+) L2 would hold {len(self.l1)} * {len(self.l2)} points"
        refuse_above("DIGIT_LIMIT", DIGIT_LIMIT, what, len(self.l1), factor=len(self.l2))
        keys = tuple(k for k, _ in self.b_sets)
        if sorted(keys) != sorted(self.a_set.digits):
            raise ValueError("B-sets must be keyed exactly by the digits of A")
        shared: dict[tuple, DigitSet] = {}
        b_sets = sorted((a, shared.setdefault((b.base, b.digits, b.offset), b)) for a, b in self.b_sets)
        object.__setattr__(self, "b_sets", tuple(b_sets))

    @property
    def b_map(self) -> dict[int, DigitSet]:
        return dict(self.b_sets)

    def b_list(self) -> list[DigitSet]:
        return [b for _, b in self.b_sets]


def one_stage_form(base: int, r: int, a_digits, b_map: Mapping[int, DigitSet], l1, l2) -> OneStageForm:
    """Convenience constructor: A, L1 and L2 as digit sets or sequences,
    the B-sets keyed by the digit a."""
    a_set = a_digits if isinstance(a_digits, DigitSet) else DigitSet(base, tuple(a_digits))
    l1 = l1 if isinstance(l1, DigitSet) else DigitSet(base, tuple(l1))
    l2 = l2 if isinstance(l2, DigitSet) else DigitSet(base, tuple(l2))
    return OneStageForm(base, r, a_set, tuple(b_map.items()), l1, l2)


def expand_one_stage(form: OneStageForm) -> DigitSet:
    """Union of a + N^r * B_a; a digit collision is a hard error."""
    return DigitSet(form.base, tuple(_expand_layers(form.a_set.digits, _one_stage(form))[-1]))


def _one_stage(form: OneStageForm) -> list:
    """The one ``_expand_layers`` stage of a one-stage form, unlabelled."""
    b_map = form.b_map
    return [(None, form.base**form.r, lambda a: b_map[a].digits)]


def _triple_row(name: str, n: int, d: DigitSet, l: DigitSet) -> CheckResult:
    """The row for one exact check_triple call."""
    rep = check_triple(n, d, l)
    return CheckResult(name, rep is None, str(rep or ""))


def _level0_row(n: int, e0: DigitSet, l0: DigitSet) -> CheckResult:
    return _triple_row("level-0 triple (N, E0, L0)", n, e0, l0)


def _direct_sum(n: int, parts) -> DigitSet | OverlapError:
    try:
        return DigitSet(n, direct_sum_digits(*parts))
    except OverlapError as exc:
        return exc


def _product_verdict(n: int, parts, l_sum: DigitSet | OverlapError) -> tuple[bool, str]:
    """(ok, detail) of the triple (N, (+) parts, l_sum), where l_sum is a
    spectrum sum or the OverlapError that building it raised.  A repeated
    digit sum fails the row with its OverlapError, the digit sum's first."""
    s = _direct_sum(n, parts)
    bad = next((x for x in (s, l_sum) if isinstance(x, OverlapError)), None)
    if bad is not None:
        return False, str(bad)
    rep = check_triple(n, s, l_sum)
    return rep is None, str(rep or "")


def validate_one_stage(form: OneStageForm) -> ValidationReport:
    """``_validate`` of the one-stage form as the staged form it is: E0 = A,
    the keyed layer {a: B_a} at scale N^r, and the spectra (L1, L2)."""
    return _validate(form.base, form.a_set, _one_stage(form), (form.b_sets,), (form.l1, form.l2))


def require_valid_one_stage(form: OneStageForm) -> OneStageForm:
    report = validate_one_stage(form)
    if not report.ok:
        raise ValidationFailure(report)
    return form


# ---------------------------------------------------------------------------
# Normal form of one-stage forms.


def translate_and_gcd_normalize(
    form: OneStageForm,
) -> tuple[OneStageForm, dict[int, int], int]:
    """Shift each B to contain 0, then divide out the gcd of the level-0 set.

    Returns (normal form, per-a translation offsets, g).  Spectra scale as
    L -> g*L, so the normalized form's L1/L2 are multiplied by g.  Any
    spectrum found for the normal form turns into one for the input after
    division by g.
    """
    n, r = form.base, form.r
    scale = n**r
    shifts: dict[int, int] = {}
    owner: dict[int, int] = {}  # each key with the digit a whose branch made it
    moved: dict[int, DigitSet] = {}
    for a, b_set in form.b_sets:
        bmin = b_set.digits[0]
        shifts[a] = bmin
        key = a + scale * bmin
        if key in moved:
            # two branches can land on one key at any r: at r = 1, N = 2,
            # A = {0, 2}, B_0 = {1, 3} and B_2 = {0, 2} both give 2
            raise OverlapError(key, owner[key], a)
        owner[key] = a
        moved[key] = DigitSet(n, tuple(b - bmin for b in b_set.digits))
    g = math.gcd(*(x + b for x, b_set in moved.items() for b in b_set.digits)) or 1
    # each key x is in the level-0 set (its shifted B holds 0), so g divides it
    if g > 1:
        moved = {
            a // g: DigitSet(n, tuple(b // g for b in b_set.digits))
            for a, b_set in moved.items()
        }
    l1 = DigitSet(n, tuple(g * x for x in form.l1.digits))
    l2 = DigitSet(n, tuple(g * x for x in form.l2.digits))
    a_set = DigitSet(n, tuple(sorted(moved)))
    out = OneStageForm(n, r, a_set, tuple(sorted(moved.items())), l1, l2)
    return require_valid_one_stage(out), shifts, g


def is_normalized(form: OneStageForm) -> bool:
    """0 in every B_s and gcd of the level-0 set equal to 1."""
    if any(b.digits[0] != 0 for _, b in form.b_sets):
        return False
    return math.gcd(*(a + b for a, b_set in form.b_sets for b in b_set.digits)) in (0, 1)


# ---------------------------------------------------------------------------
# k-stage forms.


@dataclass(frozen=True)
class KStageForm:
    """Layered digit set: stage j adds N^(l_1+...+l_j) * E_j(parent).

    ``spectra`` lists L_0..L_k, one per level including level 0.  A top
    scale N^(l_1+...+l_k) above BASE_LIMIT, or a ``width`` above
    DIGIT_LIMIT (by its digits or by its spectra), raises
    PointLimitExceeded.
    """

    base: int
    ells: tuple[int, ...]
    e0: DigitSet
    layers: tuple[LayerSpec, ...]
    spectra: tuple[DigitSet, ...]

    def __post_init__(self):
        if len(self.layers) != len(self.ells):
            raise ValueError("one layer per stage scale")
        if len(self.spectra) != len(self.layers) + 1:
            raise ValueError("need a spectrum for level 0 and for every stage")
        if any(e < 1 for e in self.ells):
            raise ValueError("stage scales must be positive")
        top = sum(self.ells)
        what = f"the top stage scale N^(l_1+..+l_k) would be {self.base}^{top}"
        refuse_above("BASE_LIMIT", BASE_LIMIT, what, self.base, top)
        digits, points = self._sizes()
        refuse_above("DIGIT_LIMIT", DIGIT_LIMIT, f"the form would expand to up to {digits} digits", digits)
        refuse_above("DIGIT_LIMIT", DIGIT_LIMIT, f"the spectrum sum L_0 (+) .. (+) L_k would hold {points} points", points)

    @property
    def stages(self) -> int:
        return len(self.layers)

    def _sizes(self) -> tuple[int, int]:
        """|E0| times the largest set of each layer, a bound on the digits
        of the expansion, and the product of the |L_i|, the points of the
        spectrum sum."""
        digits = len(self.e0) * math.prod(
            len(l) if isinstance(l, DigitSet) else max((len(b) for _, b in l), default=0) for l in self.layers
        )
        return digits, math.prod(len(s) for s in self.spectra)

    @property
    def width(self) -> int:
        """The larger of the two ``_sizes``; for a valid form they are equal."""
        return max(self._sizes())


def k_stage_form(base, ells, e0, layers, spectra) -> KStageForm:
    e0 = e0 if isinstance(e0, DigitSet) else DigitSet(base, tuple(e0))
    fixed = tuple(as_layer(l) for l in layers)
    specs = tuple(s if isinstance(s, DigitSet) else DigitSet(base, tuple(s)) for s in spectra)
    return KStageForm(base, tuple(ells), e0, fixed, specs)


def check_layer_keys(form: KStageForm) -> None:
    """Raise ValueError if a keyed layer has no entry for a digit of the
    level it extends, naming the stage and the smallest such digit."""
    last_keyed = max((j for j, l in enumerate(form.layers, 1) if not isinstance(l, DigitSet)), default=0)
    parents = set(form.e0.digits)
    total = 0
    for j, (ell, layer) in enumerate(zip(form.ells, form.layers[:last_keyed]), start=1):
        if not isinstance(layer, DigitSet):
            missing = parents.difference(key for key, _ in layer)
            if missing:
                raise ValueError(f"stage-{j} layer has no entry for parent digit {min(missing)}")
        if j < last_keyed:
            total += ell
            lookup = layer_lookup(layer)
            parents = {d + form.base**total * e for d in parents for e in lookup(d).digits}


def expand_k_stage(form: KStageForm) -> DigitSet:
    return DigitSet(form.base, tuple(_expand_layers(form.e0.digits, _k_stages(form))[-1]))


def _k_stages(form: KStageForm) -> list:
    """The ``_expand_layers`` stages of a k-stage form, labelled 1..k."""
    stages = []
    total = 0
    for j, (ell, layer) in enumerate(zip(form.ells, form.layers), start=1):
        total += ell
        stages.append((j, form.base**total, lambda d, lookup=layer_lookup(layer): lookup(d).digits))
    return stages


def validate_k_stage(form: KStageForm) -> ValidationReport:
    """``_validate`` of the form over its own stages."""
    return _validate(form.base, form.e0, _k_stages(form), form.layers, form.spectra)


def _validate(n: int, e0: DigitSet, stages, layers, spectra) -> ValidationReport:
    """Exact pass/fail per defining condition of a staged form, with witnesses.

    ``stages`` are the form's ``_expand_layers`` stages, ``layers`` their
    LayerSpecs, ``spectra`` L_0..L_k.  Rows: the level-0 triple, the
    collision check of the expansion, then per stage j one triple row with
    L_j for a constant layer and one per parent digit for a keyed layer.
    Products are checked along every realizable path through the layer
    tree: one prefix-m row per distinct sequence of layer sets, for m =
    1..k, and one suffix-m row for m < k, each decided against one spectrum
    sum built per m.  The suffix-k product is the stage-k triple itself, so
    it has no row.  A repeated spectrum sum fails the product rows with its
    OverlapError.
    """
    checks = [_level0_row(n, e0, spectra[0])]
    try:
        _expand_layers(e0.digits, stages)
    except OverlapError as exc:
        checks.append(CheckResult("expansion collision-free", False, str(exc)))
        return ValidationReport(tuple(checks))
    checks.append(CheckResult("expansion collision-free", True))

    # digit -> the layer sets on its path, E_1(d_0) ... E_j(d_(j-1)); the
    # expansion is collision-free, so each digit has one path
    paths: dict[int, tuple[tuple[int, ...], ...]] = {d: () for d in e0.digits}
    k = len(layers)
    for j, (layer, (_, scale, _)) in enumerate(zip(layers, stages), start=1):
        lookup = layer_lookup(layer)
        parts = {d: lookup(d) for d in sorted(paths)}
        if isinstance(layer, DigitSet):
            checks.append(_triple_row(f"stage-{j} triple (N, E_{j}, L_{j})", n, layer, spectra[j]))
        else:
            checks += [_triple_row(f"stage-{j} triple (N, E_{j}({d}), L_{j})", n, part, spectra[j])
                       for d, part in parts.items()]
        extended = {d: paths[d] + (part.digits,) for d, part in parts.items()}
        # the top level's paths are its parents': only the sequences are read
        paths = extended if j == k else {d + scale * e: path for d, path in extended.items() for e in path[-1]}
    used = set(paths.values())

    ls = tuple(sp.digits for sp in spectra)
    for m in range(1, k + 1):
        l_sum = _direct_sum(n, ls[: m + 1])
        checks += [CheckResult(f"prefix-{m} product {_short(seq)}", *_product_verdict(n, (e0.digits, *seq), l_sum))
                   for seq in sorted({seq[:m] for seq in used})]
        if m < k:
            l_sum = _direct_sum(n, ls[m:])
            checks += [CheckResult(f"suffix-{m} product {_short(seq)}", *_product_verdict(n, seq, l_sum))
                       for seq in sorted({seq[m - 1 :] for seq in used})]
    return ValidationReport(tuple(checks))


def _short(seq) -> str:
    body = "x".join(str(len(s)) for s in seq)
    return f"[{body}]"


# ---------------------------------------------------------------------------
# Reduction of a k-stage form to a one-stage form over base N^k.


def k_stage_to_one_stage(form: KStageForm, k_target: int | None = None) -> OneStageForm:
    """Rebuild the k-stage digits as a one-stage form over base N^k.

    With D^(j) the digits at scale N^j, the level of the last stage at or
    below it (a power of N that no stage reaches holds the layer {0}), and
    D = D^(k), the stacked set D + N*D + ... + N^(k-1)*D is A (+) N^k * B_a,
    where the new A is the middle aggregate D^(k-1) + N*D^(k-2) + ... +
    N^(k-1)*D^(0) and each B_a is read off the stacked digits congruent to
    a mod N^k.  The two lifted spectra are direct sums of the scaled level
    spectra N^(k-1-m) * L_i over the levels that carry a stage spectrum,
    since the spectrum {0} of any other adds nothing.
    The target k defaults to the form's own stage count, sum(ells), or to 1
    for a form with no stages; a k below either raises InputError, a
    ValueError.
    The result is validated exactly; a ValidationFailure's report names the
    failing row: the level-0 triple of A, a stage-1 triple of some B_a, or
    the product A (+) B_a.  A result of more than DIGIT_LIMIT
    digits or spectrum points (width^k), or over a base above BASE_LIMIT,
    raises PointLimitExceeded before any work.
    """
    total = sum(form.ells)
    k = max(total, 1) if k_target is None else k_target
    if k < 1:
        raise InputError(f"target stage count {k} below 1")
    if k < total:
        raise InputError(f"target stage count {k} below intrinsic {total}")
    digits, points = form._sizes()
    what = (f"the one-stage form would hold {digits}^{k} digits" if digits >= points
            else f"the one-stage spectrum sum L1 (+) L2 would hold {points}^{k} points")
    refuse_above("DIGIT_LIMIT", DIGIT_LIMIT, what, form.width, k)
    refuse_above("BASE_LIMIT", BASE_LIMIT, f"the one-stage base would be {form.base}^{k}", form.base, k)
    n, big = form.base, form.base**k
    marks = list(itertools.accumulate(form.ells))  # the power of N of each stage
    spectra = dict(zip([0, *marks], form.spectra))
    # D^(j) for j = 0..k
    levels = _expand_layers(form.e0.digits, _k_stages(form))
    stagewise = [levels[bisect.bisect_right(marks, j)] for j in range(k + 1)]
    a_digits = direct_sum_digits(*[[n**j * d for d in stagewise[k - 1 - j]] for j in range(k)])
    d_big = stacked_digits(stagewise[k], n, k)

    # L1 = sum over m < k of N^(k-1-m) * (L_0 (+) ... (+) L_m) and
    # L2 = sum over m < k of N^(k-1-m) * (L_(m+1) (+) ... (+) L_k)
    def lifted(pairs):
        parts = [[n ** (k - 1 - m) * x for x in spectra[i].digits] for m, i in pairs if i in spectra]
        return DigitSet(big, direct_sum_digits(*parts))

    l1 = lifted((m, i) for m in range(k) for i in range(m + 1))
    l2 = lifted((m, i) for m in range(k) for i in range(m + 1, k + 1))
    a_set = DigitSet(big, a_digits)

    # two new A digits in one class mod N^k would each read the whole class
    # as their B, so the level-0 failure is reported alone
    dup = _duplicate_residue(a_digits, big)
    if dup is not None:
        extraction = CheckResult("B-extraction", False, f"new A digits {dup[0]} == {dup[1]} (mod {big})")
        raise ValidationFailure(ValidationReport((_level0_row(big, a_set, l1), extraction)))

    # every class of A has stacked digits over it: a digit of D^(i) extends
    # to D^(k) by layer digits at scales N^(i+1) and up
    over: dict[int, list[int]] = {}
    for x in d_big:
        over.setdefault(x % big, []).append(x)
    # A's classes are distinct, so the union of the a + N^k * B_a is the
    # stacked set exactly when the digits over those classes are all of it
    covered = sum(len(over[a % big]) for a in a_digits)
    # a generator: the form keeps one DigitSet per distinct B-set, and no
    # tuple here keeps the duplicates alive through the validation
    b_sets = ((a, DigitSet(big, tuple((x - a) // big for x in over[a % big]))) for a in a_digits)
    out = require_valid_one_stage(OneStageForm(big, 1, a_set, tuple(b_sets), l1, l2))
    if covered != len(d_big):
        raise AssertionError("one-stage expansion must reproduce the stacked digits")
    return out


# ---------------------------------------------------------------------------
# The four-digit construction.


def build_four_digit_form(
    n: int, a: int, t: int, ell: int, ell2: int
) -> tuple[int, OneStageForm]:
    """One-stage form behind the digit set {0, a, 2^t*ell, a + 2^t*ell2}.

    Writes N = 2^beta * m (m odd) and t = beta*k + r; requires r != 0, odd
    positive a, ell, ell2.  Returns (m^k, form) where the form expands to
    m^k times the four-digit set, with spectra L1 = {0, N/2} and
    L2 = {0, N/2^(r+1)}, both verified exactly.
    """
    from .errors import InvalidVariantParams, TDivisibleByBeta

    if n < 2 or n % 2:
        raise InvalidVariantParams("base must be even and >= 2")
    if min(a, ell, ell2) < 1 or not all(v % 2 for v in (a, ell, ell2)):
        raise InvalidVariantParams("a, ell, ell2 must be positive odd integers")
    if t < 1:
        raise InvalidVariantParams("t must be a positive integer")
    beta = (n & -n).bit_length() - 1
    m = n >> beta
    k, r = divmod(t, beta)
    if r == 0:
        raise TDivisibleByBeta(f"t={t} divisible by beta={beta}")
    mk = m**k
    a_big = a * mk
    a_set = DigitSet(n, (0, a_big))
    b0 = DigitSet(n, (0, 2**r * ell))
    ba = DigitSet(n, (0, 2**r * ell2))
    l1 = DigitSet(n, (0, n // 2))
    l2 = DigitSet(n, (0, n // 2 ** (r + 1)))
    form = OneStageForm(n, k, a_set, ((0, b0), (a_big, ba)), l1, l2)
    require_valid_one_stage(form)
    target = sorted({0, a, 2**t * ell, a + 2**t * ell2})
    got = expand_one_stage(form).digits
    if got != tuple(x * mk for x in target):
        raise AssertionError("expansion must equal m^k times the four-digit set")
    return mk, form
