"""Numerics for the self-similar measure attached to a digit set.

mu = mu_{N,D} is the infinite convolution of the uniform atomic measures on
D/N^j, so its Fourier transform is the infinite product of digit masks
M_D(xi/N^j).  Everything here works with truncated products and reads only
their magnitudes, under a one-sided, second-order tail bound: at depth p and
height |xi| <= x, |mu_hat(xi)|^2 lies between (1 - S) times the truncated
value and the truncated value itself, S = (2*pi*sigma*x/N^p)^2 / (N^2 - 1)
with sigma an upper bound on the population standard deviation of D
(TruncatedMeasure.tail_sum).  So a truncated frame sum bounds the true one
from above, within a relative S.

The finite-level identity, the shift search, the frame sums and the
weakly-periodic scan all run on one split-phase kernel: the transform at
every sum a + b of a row list and a column list, from e(-d(a+b)/N^j) =
e(-d*a/N^j) * e(-d*b/N^j), so each block of levels takes, on each side,
one cos/sin pass over the phases of every level, nonzero digit and entry
(_unit_roots, which mask_value shares); the zero digit's unit is exactly 1
and costs nothing.  A measure carries direct-sum factors of its digits,
and each level multiplies one mask per factor, built from that factor's
own units: a form whose B-sets are one set B has D = A (+) N^r*B and
M_D(y) = M_A(y) * M_B(N^r*y) (form_measure), so a level costs the sum
over the factors F of |F| - 1 nonzero units and pair products, 2 instead
of 3 on a four-digit form.
Every point (spectrum points, shifted gammas, aggregates, samples, the
scan grid) enters it through _RationalSide, as integer numerators over one
common denominator, whose phase d*v/N^j mod 1 is reduced in integer
arithmetic, so points at height 1e8 lose nothing.  The Chebyshev samples
lie on the lattice 2^-SAMPLE_BITS, so their denominator stays small.  A
candidate's points come as such integers from SpectrumCandidate.numerators,
with no Fraction per point.  The kernel works in tiles of at most
_TILE_PAIRS (level, row, column) entries, so its memory does not grow,
while a call of few pairs takes all of its levels in one block.  Each
pair's value depends on that pair alone, whatever the shape of the call
(the running product is taken out of place, which numpy rounds alike for
every length).  So jp_levels reads every level of a candidate from one
pass over the top level, all at the top level's depth, each level a
prefix of its columns, and the weakly-periodic scan reports bit for bit
what a scan of every shift at every point would.  That
scan gives every grid point a lower bound on its shift-0 value from a
shallow depth q, whose tail sum at height 1 is at most 1/4, and climbs
from it twice (the near shifts |k| <= 2 at the scan's depth, then the
rest of the window) only with the points still in contention.  Every
averaged B-mask energy (_b_energy) comes from the kernel too; mask_value,
mask_value_rational and TruncatedMeasure's mu_hat and mu_hat_rational are
the tests' oracles alone.

Each numeric command takes what it needs from here, and builds its measure,
expanding the form, once (form_measure): build_spectrum, whose candidate
carries that measure, then jp_levels, which reads the scale s as x -> x/s;
finite_level_identity_check over the depths 1..p, each at its
own depth q, which the identity fixes; weakly_periodic_check.  Every other
truncation depth is the smallest whose tail bound is below its target
(auto_depth), and a digit or a tail past the doubles raises
TailBoundUnavailable before any work.

Sums over candidate points are accumulated with math.fsum, and the digit sums
with elementwise numpy operations in digit order (a leading zero digit's
term second), so repeated runs give identical results.
"""

from __future__ import annotations

import cmath
import copy
import itertools
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .digitsets import DigitSet, direct_sum_digits, stacked_digits
from .errors import InputError, ShiftSearchFailure, TailBoundUnavailable, refuse_above
from .productform import OneStageForm, expand_one_stage, is_normalized

TWO_PI = 2.0 * math.pi
_DOUBLE_MAX = sys.float_info.max


# ---------------------------------------------------------------------------
# Masks and truncated transforms.


def _unit_roots(theta: np.ndarray) -> np.ndarray:
    """e^(i*theta) as cos(theta) + i*sin(theta), elementwise.  Equal to
    np.exp(-2j*np.pi*phase) for theta = (-2*np.pi)*phase (the product of a
    complex with a zero real part and a float keeps theta the same double),
    without the cost of the complex exponential."""
    out = np.empty(np.shape(theta), dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def mask_value(digits: Iterable[int], xi):
    """M_D(xi) = (1/|D|) * sum of e(-d*xi); a numpy array for an array xi,
    else a Python complex."""
    ds = tuple(digits)
    x = np.asarray(xi, dtype=float)
    acc = np.zeros(x.shape, dtype=complex)
    for d in ds:
        acc += _unit_roots((-2 * np.pi * float(d)) * x)
    acc /= len(ds)
    return acc if isinstance(xi, np.ndarray) else complex(acc)


def mask_value_rational(digits: Iterable[int], num: int, den: int):
    """M_D at the rational num/den with exact integer phase reduction."""
    ds = tuple(digits)
    total = 0j
    for d in ds:
        ph = (d * num) % den
        total += cmath.exp(-2j * math.pi * (ph / den))
    return total / len(ds)


def auto_depth(base: int, digits: DigitSet, xi_max: float, target: float = 1e-14) -> int:
    """Smallest depth p whose tail sum at height xi_max is below target, so
    that each |mu_hat(xi)|^2 with |xi| <= xi_max is at most its depth-p
    truncation and above (1 - target) times it.  The digits' spread
    (DigitSet.deviation_bound) is taken once.  TailBoundUnavailable, before any work, for an infinite
    height or spread, and when no depth whose N^p a double holds is deep
    enough."""
    if math.isfinite(digits.deviation_bound * xi_max):
        p = 1
        while base**p <= _DOUBLE_MAX:
            if TruncatedMeasure(base, digits, p).tail_sum(xi_max) < target:
                return p
            p += 1
    raise TailBoundUnavailable(f"no depth within the range of a double bounds the tail at height {xi_max}")


def _require_doubles(digit_sets: Iterable[DigitSet]) -> None:
    """TailBoundUnavailable, before any work, for a digit d whose phase 2*pi*d no double holds."""
    top = max(abs(d) for ds in digit_sets for d in ds.digits)
    if top > _DOUBLE_MAX / TWO_PI:
        raise TailBoundUnavailable(f"a digit of {top.bit_length()} bits puts its phase past the range of a double")


@dataclass(frozen=True)
class TruncatedMeasure:
    """First ``depth`` convolution factors of the self-similar measure.

    ``factors`` are digit sets whose direct sum is ``digits``, so that the
    mask M_D is the product of their masks; the kernel multiplies one mask
    per factor.  By default the digits alone; factors whose sums are not
    the digits, each once, raise ValueError."""

    base: int
    digits: DigitSet
    depth: int
    factors: tuple[DigitSet, ...] = ()

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if not self.factors:
            object.__setattr__(self, "factors", (self.digits,))
        elif sorted(map(sum, itertools.product(*(f.digits for f in self.factors)))) != list(self.digits.digits):
            raise ValueError("the factors' direct sum must be the digits")

    def mu_hat(self, xi):
        """Truncated transform, an array for an array xi, else a Python
        complex; exact 1 at xi = 0.  The tests' float reference."""
        x = np.asarray(xi, dtype=float)
        acc = np.ones(x.shape, dtype=complex)
        for j in range(1, self.depth + 1):
            acc *= mask_value(self.digits, x / float(self.base) ** j)
        return acc if isinstance(xi, np.ndarray) else complex(acc)

    def mu_hat_rational(self, num: int, den: int) -> complex:
        acc = 1.0 + 0.0j
        scale = den
        for _ in range(self.depth):
            scale *= self.base
            acc *= mask_value_rational(self.digits, num, scale)
            if acc == 0:
                break
        return acc

    def tail_sum(self, xi_max: float) -> float:
        """S = (2*pi*sigma*xi_max/N^p)^2 / (N^2 - 1), p the depth and sigma
        the digits' deviation_bound, so that for |xi| <= xi_max the dropped
        factors prod_{j>p} |M_D(xi/N^j)|^2 lie in [1 - S, 1]: each
        |mu_hat(xi)|^2 is at most its truncation and at least (1 - S)
        times it.  From 1 - cos(t) <= t^2/2, |M_D(y)|^2 >= 1 - (2*pi*
        sigma_D*y)^2, and the sum of those losses over y = xi/N^j, j > p,
        is S.  The bound is second order in xi/N^p and, like sigma_D,
        does not move when the digits are translated."""
        r = TWO_PI * self.digits.deviation_bound * xi_max / self.base**self.depth
        return r * r / (self.base**2 - 1)


def form_measure(form: OneStageForm) -> TruncatedMeasure:
    """The depth-1 measure of the form's expansion D, the union of a + N^r*B_a,
    with the direct-sum factors its kernel multiplies: when every B_a is one
    set B and |A|, |B| >= 2, D = A (+) N^r*B, so M_D(y) = M_A(y) *
    M_B(N^r*y), and the factors are A + N^r*b and N^r*(B - b), b = min B;
    else D alone.  The first factor lies inside D and the second holds
    differences of D's digits, so no factor's digit passes the span of D,
    however A and B are translated against each other.  Every numeric
    command builds its measure here, so it expands the form once, and a
    digit of D, of a factor or of a B-set whose phase no double holds
    raises TailBoundUnavailable here, before any work."""
    d_set = expand_one_stage(form)
    b_sets = list(dict.fromkeys(form.b_list()))
    b, *others = b_sets
    if others or len(form.a_set) < 2 or len(b) < 2:
        factors = ()
    else:
        step, low = form.base**form.r, min(b.digits)
        first = DigitSet(form.base, tuple(a + step * low for a in form.a_set.digits))
        factors = (first, DigitSet(form.base, tuple(step * (x - low) for x in b.digits)))
    _require_doubles([d_set, *factors, *b_sets])
    return TruncatedMeasure(form.base, d_set, 1, factors)


# ---------------------------------------------------------------------------
# Split-phase kernel: the truncated transform at every sum row + column.

# Most (level, row, column) entries in one tile: a tile of r x c pairs takes
# max(1, _TILE_PAIRS // (r*c)) levels at a time.  Its complex work arrays,
# one per factor and a scratch one unless every factor has one nonzero
# digit, take 16 bytes per entry each, and its running product 16 per pair.
_TILE_PAIRS = 1 << 13
_INT64_LIMIT = 2**63


class _RationalSide:
    """Exact rationals, as integer numerators over one common denominator:
    the one form in which points reach the kernel.  The numerators are
    ints, or an int64 array, taken as it is."""

    def __init__(self, den: int, nums: Sequence[int] | np.ndarray):
        self.den = den
        if isinstance(nums, np.ndarray):
            self.bound, self.nums = int(np.abs(nums).max(initial=0)), nums
        else:
            self.bound = max(map(abs, nums), default=0)
            self.nums = np.array(nums, dtype=np.int64 if self.bound < _INT64_LIMIT else object)

    @classmethod
    def of(cls, values: Sequence[Fraction | int | float]) -> _RationalSide:
        """The values, exactly, over the lcm of their denominators."""
        ratios = [v.as_integer_ratio() for v in values]
        den = math.lcm(*(d for _, d in ratios))
        return cls(den, [a * (den // d) for a, d in ratios])

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, part: slice | np.ndarray) -> _RationalSide:
        """The entries in ``part`` (a slice or an index array), over the same
        denominator and bound, so each keeps its unit values bit for bit."""
        sub = copy.copy(self)
        sub.nums = self.nums[part]
        return sub

    def units(self, base: int, js: range, ds: Sequence[int], part: slice) -> np.ndarray:
        """e(-d*v/N^j), one (digit, entry) plane per level j of js, with one
        row per digit d of ds (nonzero) and one column per entry v in part,
        and the phase (d*num mod den*N^j)/(den*N^j) exact before its final
        rounding."""
        mods = [self.den * base**j for j in js]
        x = self.nums[part]
        if max(map(abs, ds)) * max(self.bound, 1) < _INT64_LIMIT:
            prod = np.multiply.outer(np.array(ds, dtype=np.int64), x)
            phase = np.empty((len(mods), *prod.shape))
            # the moduli grow with j, so those within int64 come first
            small = sum(m < _INT64_LIMIT for m in mods)
            if small:
                # the residues go into the phases as doubles and are divided
                # in place: np.divide casts int64 residues to double first,
                # so the quotients are the same doubles
                m = np.array(mods[:small], dtype=np.int64)[:, None, None]
                np.remainder(prod, m, out=phase[:small])
                np.divide(phase[:small], m, out=phase[:small])
            if small < len(mods):
                # past int64, |d*num| < m: the phase is already reduced, up
                # to a sign the period absorbs
                np.divide(prod, np.array(mods[small:], dtype=float)[:, None, None], out=phase[small:])
            del prod  # not held beside the unit roots
        elif len(ds) > 1:
            # each digit on the route it takes alone
            return np.concatenate([self.units(base, js, (d,), part) for d in ds], axis=1)
        else:
            phase = np.array([[[(ds[0] * v) % m / m for v in x.tolist()]] for m in mods], dtype=float)
        phase *= -2 * np.pi  # in place: the same doubles as (-2 * np.pi) * phase
        return _unit_roots(phase)


def _tiles(n_rows: int, n_cols: int):
    """Row-major (row slice, column slice) blocks of at most _TILE_PAIRS
    pairs, near square unless one side is short."""
    if not (n_rows and n_cols):
        return
    rows = min(n_rows, max(math.isqrt(_TILE_PAIRS), _TILE_PAIRS // n_cols))
    cols = _TILE_PAIRS // rows
    for r0 in range(0, n_rows, rows):
        for c0 in range(0, n_cols, cols):
            yield slice(r0, min(r0 + rows, n_rows)), slice(c0, min(c0 + cols, n_cols))


def _split_phase_abs(m: TruncatedMeasure, rows: _RationalSide, cols: _RationalSide):
    """Yields (row slice, column slice, |mu_hat(a + b)|) over the tiles of
    rows x cols, rows outermost, with mu_hat the transform of m truncated at
    m.depth.

    A tile is a block of levels x a row slice x a column slice of at most
    _TILE_PAIRS (level, row, column) entries: a tile of r x c pairs takes
    max(1, _TILE_PAIRS // (r*c)) levels at a time, each side's units of a
    block from one call.  A full tile takes one level per block; a few
    shifts against a few points take every level in one.  Each level is
    one mask per factor of m, from that factor's own units, so it costs
    the sum over the factors F of |F| - 1 nonzero units and pair products.
    The kernel is elementwise and the running product takes the levels one
    by one, factor by factor, so a pair's value does not depend on how the
    levels are blocked."""
    # a power of two |F| has an exact weight 1/|F|: weighing each row unit
    # by it weighs every term, and so the sum, as dividing the sum would,
    # bit for bit; other sizes keep weight 1 and divide the sum.  A leading
    # zero digit's term goes second, so the first product writes the mask
    # with no fill: t + 1 is 1 + t, up to the sign of a zero part, which no
    # magnitude sees.
    plans = []
    for f in m.factors:
        ds = f.digits
        weight = 1.0 / len(ds) if len(ds) & (len(ds) - 1) == 0 else 1.0
        plans.append(((ds[1], 0, *ds[2:]) if ds[0] == 0 and len(ds) > 1 else ds, weight))
    nonzero = [d for order, _ in plans for d in order if d]
    weights = np.array([weight for order, weight in plans for d in order if d])[:, None]
    summed = any(sum(map(bool, order)) > 1 for order, _ in plans)
    for rs, cs in _tiles(len(rows), len(cols)):
        shape = (rs.stop - rs.start, cs.stop - cs.start)
        block = min(m.depth, max(1, _TILE_PAIRS // (shape[0] * shape[1])))
        # the last tile's arrays go first, so that one tile's are held at a time
        prod = spare = masks = term = None
        prod, spare = np.ones(shape, dtype=complex), np.empty(shape, dtype=complex)
        masks = np.empty((len(plans), block, *shape), dtype=complex)
        # scratch for the terms after a factor's first, needed only when
        # some factor has two nonzero digits or more
        term = np.empty((block, *shape), dtype=complex) if summed else None
        for j0 in range(1, m.depth + 1, block):
            js = range(j0, min(j0 + block, m.depth + 1))
            tv = term[: len(js)] if summed else None
            if nonzero:
                # one (level, entry) plane per digit on each side, factor by factor
                row_units = rows.units(m.base, js, nonzero, rs)
                row_units *= weights
                units = zip(row_units.swapaxes(0, 1), cols.units(m.base, js, nonzero, cs).swapaxes(0, 1))
            for (order, weight), mask in zip(plans, masks):
                lv = mask[: len(js)]
                for i, d in enumerate(order):
                    if d == 0:
                        # e(0) is exactly 1 on both sides, and so is its product
                        if i:
                            lv.real += weight
                        else:
                            lv.fill(weight)
                        continue
                    ru, cu = next(units)
                    np.multiply(ru[:, :, None], cu[:, None, :], out=tv if i else lv)
                    if i:
                        lv += tv
                if weight == 1.0 and len(order) > 1:
                    # the parts one by one: what complex / int gives, without
                    # the cost of numpy's complex division
                    lv.view(float)[...] /= len(order)
            for t in range(len(js)):
                for mask in masks:
                    # out of place: numpy rounds an in-place product of one
                    # element by its own formula, so a 1 x 1 tile would differ
                    prod, spare = np.multiply(prod, mask[t], out=spare), prod
        yield rs, cs, np.abs(prod)


def _window_max(m: TruncatedMeasure, shifts: _RationalSide, xs: _RationalSide) -> np.ndarray:
    """max over the shifts k of |m.mu_hat(x + k)| for each x, 0 with no shifts."""
    out = np.zeros(len(xs))
    for _, cs, mag in _split_phase_abs(m, shifts, xs):
        np.maximum(out[cs], mag.max(axis=0), out=out[cs])
    return out


def _b_energy(b_list: Sequence[DigitSet], points: _RationalSide) -> np.ndarray:
    """(1/|b_list|) * sum over B of |M_B(x)|^2 at each point x of the
    kernel side ``points``: the averaged B-mask energy.  |M_B| does not
    move when B is translated, so M_B is taken as the transform of the
    depth-1 measure (1, B - min B), whose digits, and so phases, stay
    small: one kernel pass per distinct translate, and the sum still goes
    over b_list in its order."""
    moved = [b.shifted(-b.digits[0]) for b in b_list]
    zero = _RationalSide(1, [0])
    energy = {b: _window_max(TruncatedMeasure(1, b, 1), zero, points) ** 2 for b in dict.fromkeys(moved)}
    return sum(energy[b] for b in moved) / len(b_list)


# Most squared products _row_sums holds while a band of rows is open.
_ROW_BAND = 1 << 19


def _row_sums(measures: Sequence[TruncatedMeasure], rows, cols, counts: Sequence[int] = ()) -> list[list[float]]:
    """For each n in counts, and for each row a, the math.fsum over the
    first n columns b of the product over the measures m of
    |m.mu_hat(a + b)|^2; by default one count, every column.

    One kernel pass per measure over every column, the kernels' tiles read
    side by side, for bands of at most _ROW_BAND products (a row at the
    least) over one array; each count sums a prefix of its rows."""
    counts = tuple(counts) or (len(cols),)
    band = max(1, _ROW_BAND // max(len(cols), 1))
    sq = np.empty((min(band, len(rows)), len(cols)))
    sums: list[list[float]] = [[] for _ in counts]
    for r0 in range(0, len(rows), band):
        part = rows[r0 : r0 + band]
        for (rs, cs, mag), *others in zip(*(_split_phase_abs(m, part, cols) for m in measures)):
            block = np.square(mag, out=sq[rs, cs])
            for _, _, other in others:
                block *= np.square(other)
        for n, out in zip(counts, sums):
            out += [math.fsum(row.tolist()) for row in sq[: len(part), :n]]
    return sums


# ---------------------------------------------------------------------------
# Sampling grids.


# Every Chebyshev point, sample or scan point, is a multiple of 2^-SAMPLE_BITS:
# an exact double, whose units d * k take the int64 route for |d| < 2^33.
SAMPLE_BITS = 30


def _chebyshev_numerators(count: int) -> np.ndarray:
    """k_i, the nearest integer to 2^SAMPLE_BITS * 0.5 * (1 + cos(pi * (2i +
    1) / (2 * count))), for 0 <= i < count, as int64."""
    points = 0.5 * (1.0 + np.cos(math.pi * (2 * np.arange(count) + 1) / (2 * count)))
    return np.rint(np.ldexp(points, SAMPLE_BITS)).astype(np.int64)


def chebyshev_grid(count: int) -> list[float]:
    """Chebyshev points mapped to [0, 1], each rounded to its nearest
    multiple of 2^-SAMPLE_BITS, which a double holds exactly."""
    return np.ldexp(_chebyshev_numerators(count), -SAMPLE_BITS).tolist()


def _scan_grid(base: int) -> _RationalSide:
    """The weakly-periodic grid, exactly: the SCAN_RESOLUTION Chebyshev
    points and every t/N^2 with 0 <= t < N^2 (mask zeros lie at such
    points) over den = lcm(2^SAMPLE_BITS, N^2), sorted, each once."""
    square = base * base
    den = math.lcm(1 << SAMPLE_BITS, square)
    cheb = _chebyshev_numerators(SCAN_RESOLUTION) * (den >> SAMPLE_BITS)
    nums = np.sort(np.concatenate((cheb, np.arange(square, dtype=np.int64) * (den // square))))
    return _RationalSide(den, nums[np.concatenate(([True], nums[1:] != nums[:-1]))])


# ---------------------------------------------------------------------------
# Finite-level identity.

# Most points a level-p aggregate (|T|^p) or a built spectrum's top level
# (|L2| * |T|^levels) may hold, T the anchored spectrum.  Both grow as powers
# of |T|: in process on fd24-1-4-1-1 (|T| = 4; 2-core x86) check-lemma42
# --p 8 takes 1.5 s and --p 9 9.8 s, verify-jp --levels 8 --scale 3 0.75 s
# and --levels 9 4.0 s (this limit and SAMPLE_LIMIT lifted).
POINT_LIMIT = 1 << 17
# Most (point, sample) pairs a frame-sum run may evaluate: the top-level
# points times the --grid samples of verify-jp or check-lemma42.  In
# process on fd24-1-4-1-1 with --scale 3 (2-core x86), verify-jp takes
# 0.26 s at --levels 5 --grid 512 (2^20 pairs, all six levels from one
# kernel pass) and 0.11 s at --levels 1 --grid 4096 (cli.JP_ROW_LIMIT caps
# its report rows).  check-lemma42 takes 0.31 s at --p 7 and, this limit
# lifted, 1.5 s at --p 8 with its 64 samples.
SAMPLE_LIMIT = 1 << 20


def check_frame_sum_size(
    form: OneStageForm, level: int, samples: int = 1, candidate: bool = False
) -> None:
    """Raise PointLimitExceeded, before any work, when the level-``level``
    point set of ``form`` holds more than POINT_LIMIT points, or more than
    SAMPLE_LIMIT (point, sample) pairs with ``samples`` samples.  The set is
    the aggregate of |T|^level points, T the anchored spectrum of |L1| * |L2|
    points, or with ``candidate`` the built spectrum's top level of
    |L2| * |T|^level.  Both sizes are read off the form, and the power is
    capped first, so a huge level costs nothing."""
    t = len(form.l1) * len(form.l2)
    factor = len(form.l2) if candidate else 1
    size = f"{factor} * {t}^{level}" if factor > 1 else f"{t}^{level}"
    what = f"the level-{level} {'candidate' if candidate else 'aggregate'} would hold {size} points"
    refuse_above("POINT_LIMIT", POINT_LIMIT, what, t, level, factor)
    refuse_above("SAMPLE_LIMIT", SAMPLE_LIMIT, f"{what} for {samples} samples", t, level, factor * samples)


def _anchored_spectrum(form: OneStageForm) -> tuple[int, ...]:
    """L1 (+) L2 reduced mod N and re-anchored at 0 (a shift keeps it a spectrum)."""
    n = form.base
    l_sum = direct_sum_digits(form.l1.digits, form.l2.digits)
    low = min(l_sum)
    return tuple(sorted((x - low) % n for x in l_sum))


def _require_normalized(form: OneStageForm) -> None:
    """The identity check and the spectrum construction need r = 1 and a
    normalized form; InputError (a ValueError) otherwise."""
    if form.r != 1 or not is_normalized(form):
        raise InputError("the form must have r = 1 and be normalized (0 in every B_s, gcd 1)")


def finite_level_identity_check(form: OneStageForm, p: int, xi_samples: Sequence[float]) -> float:
    """Max deviation in the averaged mask identity over the depths 1..p.

    For a normalized one-stage form, the weighted truncated-transform sum
    over the depth-q spectrum aggregate must equal the averaged squared
    masks of the B-sets at the base point, for every sample and every q.
    Returns the largest |LHS - RHS|.  The form is expanded, and the samples
    and their B-energy taken, once for all depths.  An aggregate of more
    than POINT_LIMIT points, or of more than SAMPLE_LIMIT pairs with the
    samples, raises PointLimitExceeded before any work.
    The samples are the kernel's rows at their exact dyadic values, as in
    the frame sums, and the aggregate its exact columns; M_B(xi) is the
    transform of the depth-1 measure (1, B) and M_B((xi + gamma)/N^q) that
    of (N^q, B), so every phase is reduced in integers and a digit past
    10^8 loses nothing.
    """
    _require_normalized(form)
    check_frame_sum_size(form, p, len(xi_samples))
    n = form.base
    anchored = _anchored_spectrum(form)
    m = form_measure(form)
    b_list = form.b_list()
    xs = _RationalSide.of([float(xi) for xi in xi_samples])
    rhs = _b_energy(b_list, xs)
    worst = 0.0
    for q in range(1, p + 1):
        aggregate = _RationalSide(1, stacked_digits(anchored, n, q))
        trunc = replace(m, depth=q)
        for b in dict.fromkeys(b_list):  # equal B-sets give equal sums
            (lhs,) = _row_sums([trunc, TruncatedMeasure(n**q, b, 1)], xs, aggregate)
            worst = max(worst, float(np.max(np.abs(np.subtract(lhs, rhs)), initial=0.0)))
    return worst


# ---------------------------------------------------------------------------
# Spectrum candidates.


@dataclass(frozen=True)
class SpectrumCandidate:
    """scale * ((1/N) L2 + Lambda) with Lambda built level by level.

    ``levels[k - 1]`` is the direct sum T + N*T + ... + N^(k-1)*T of the
    shifted elements T: level k - 1 followed by its new points, so the
    levels are nested as prefixes and each starts with 0.
    """

    base: int
    measure: TruncatedMeasure  # form_measure(form): mu_{N,D}, unscaled (jp_levels)
    scale: Fraction
    frac_shifts: tuple[Fraction, ...]
    shifts: tuple[tuple[int, int], ...]  # (gamma, accepted integer shift), shared by every level
    levels: tuple[tuple[int, ...], ...]

    def lambdas(self, k: int | None = None) -> tuple[int, ...]:
        if k is None:
            k = len(self.levels)
        if k == 0:
            return (0,)
        return self.levels[k - 1]

    def numerators(self) -> tuple[int, list[int], list[int]]:
        """(den, nums, counts): the distinct unscaled points of the top
        level as the integers nums over their reduced common denominator
        den, each under the first level that holds it, so that level k is
        nums[:counts[k]].  The points are l2 + N*lam over N, each formed
        once: a level adds the points of the lambdas past its predecessor."""
        n = self.base
        l2 = [fs.numerator * (n // fs.denominator) for fs in self.frac_shifts]
        first: dict[int, None] = {}
        counts = []
        done = 0
        for level in map(self.lambdas, range(len(self.levels) + 1)):
            first.update(dict.fromkeys([x + n * lam for lam in level[done:] for x in l2]))
            counts.append(len(first))
            done = len(level)
        g = math.gcd(n, *first)
        return n // g, [x // g for x in first], counts

    def points(self, k: int | None = None) -> list[Fraction]:
        """The distinct points of level k (by default the top level), times
        the scale, in increasing order, one Fraction per point."""
        den, nums, counts = self.numerators()
        return [self.scale * Fraction(x, den) for x in sorted(nums[: counts[len(self.levels) if k is None else k]])]


# build_spectrum accepts a shift once the transform magnitude clears this
# share of the averaged B-mask energy.
SHIFT_RATIO_THRESHOLD = 1e-4
# build_spectrum tries the shifts |k| <= SHIFT_WINDOW of each gamma.
SHIFT_WINDOW = 128


def build_spectrum(form: OneStageForm, levels: int, scale: Fraction = Fraction(1)) -> SpectrumCandidate:
    """Greedy construction of the candidate spectrum for a normalized form.

    Every element gamma of the anchored spectrum receives an integer shift
    k chosen as the first k in 0, 1, -1, 2, ... whose transform magnitude
    at gamma/N + k clears SHIFT_RATIO_THRESHOLD times the averaged B-mask
    energy there.  Both come from the kernel at exact phases: the energy
    and shift 0 of every gamma in one call each, then, for a gamma that
    shift 0 does not clear, the rest of the spiral in one more call.
    gamma = 0 always keeps shift 0.  The window |k| <= SHIFT_WINDOW
    exhausted without an acceptable shift raises
    ShiftSearchFailure: either the window is too small or the form
    genuinely fails equi-positivity there;
    the failure is reported, never papered over.  Level q is the direct
    sum of N^j times the shifted elements for j < q; every level uses the
    same shifts, which do not depend on the scale (jp_levels).  Before the
    search, a top level of more than POINT_LIMIT points raises
    PointLimitExceeded, and a digit past the doubles (form_measure), or a
    worst-case top-level height whose frame sums no depth within the
    doubles bounds, TailBoundUnavailable.
    """
    _require_normalized(form)
    if levels < 0:
        raise InputError("levels must be >= 0")
    check_frame_sum_size(form, levels, candidate=True)
    n = form.base
    anchored = _anchored_spectrum(form)
    whole = form_measure(form)
    d_set = whole.digits
    b_list = form.b_list()
    trunc = TruncatedMeasure(n, d_set, auto_depth(n, d_set, SHIFT_WINDOW + 2.0))
    # each shifted element g + N*k is below N*(1 + window) in size (0 when
    # L1 (+) L2 is one point), so each lam, a sum of N^j times them for j <
    # levels, is below that times (N^levels - 1)/(N - 1): the frame sums'
    # tail bound at the top level's worst-case unscaled height, (l2 +
    # N*lam)/N, is refused before the search (a power of N >= 2 past max_exp
    # is past the doubles already)
    t_bound = n * (1 + SHIFT_WINDOW) if len(anchored) > 1 else 0
    lam_bound = t_bound * (n ** min(levels, sys.float_info.max_exp) - 1) // (n - 1)
    auto_depth(n, d_set, _frame_height(Fraction(max(map(abs, form.l2.digits)) + n * lam_bound, n), scale))

    shifts: list[tuple[int, int]] = []
    # the averaged B-mask energy and shift 0 at every gamma/N, each in one
    # kernel call; level 0 needs no shifts
    origin = _RationalSide(1, [0])
    gammas = _RationalSide(n, anchored if levels else [])
    targets = _b_energy(b_list, gammas)
    zero = _window_max(trunc, origin, gammas) ** 2 / (targets + 1e-300)
    spiral = [k for i in range(1, SHIFT_WINDOW + 1) for k in (i, -i)]  # the rest of 0, 1, -1, 2, -2, ...
    for g, target, best in zip(anchored, targets.tolist(), zero.tolist()):
        accepted = 0 if g == 0 or target < 1e-12 or best >= SHIFT_RATIO_THRESHOLD else None
        if accepted is None and spiral:
            ratios = _window_max(trunc, origin, _RationalSide(n, [g + k * n for k in spiral])) ** 2 / (target + 1e-300)
            hits = np.flatnonzero(ratios >= SHIFT_RATIO_THRESHOLD)
            accepted = spiral[hits[0]] if hits.size else None
            best = max(best, float(ratios.max()))
        if accepted is None:
            raise ShiftSearchFailure(g, SHIFT_WINDOW, best)
        shifts.append((g, accepted))
    tilde = [g + n * k for g, k in shifts]
    if len(set(tilde)) < len(tilde):
        direct_sum_digits((0,), tilde)  # raises the OverlapError that names the repeat
    # level q is level q - 1 followed by its sums with N^(q-1) * t for the
    # nonzero t of tilde; the elements of tilde are distinct mod N, so no
    # sum repeats
    stacked = [(0,)]
    for j in range(levels):
        step = n**j
        stacked.append(stacked[-1] + tuple([lam + step * t for t in tilde if t for lam in stacked[-1]]))

    frac = tuple(sorted({Fraction(x, n) for x in form.l2.digits}))
    return SpectrumCandidate(
        base=n,
        measure=whole,
        scale=scale,
        frac_shifts=frac,
        shifts=tuple(shifts),
        levels=tuple(stacked[1:]),
    )


# ---------------------------------------------------------------------------
# Frame partial sums.


@dataclass(frozen=True)
class JPRow:
    xi: float
    count: int
    q_t: float
    target = 1.0  # what Q_T approaches for a full candidate; not a field

    @property
    def deficiency(self) -> float:
        return self.target - self.q_t


def jp_sum(
    digits: DigitSet,
    base: int,
    points: Iterable[Fraction],
    xi_samples: Sequence[float | Fraction],
) -> list[JPRow]:
    """Partial sums Q_T(xi) = sum over the points of |mu_hat(xi + point)|^2,
    with exact rational evaluation throughout.

    Each distinct point counts once.  The truncation depth is the smallest
    whose tail sum at the largest point height is below 1e-14.
    """
    cols = _RationalSide.of(list(points))
    cols = cols[np.unique(cols.nums, return_index=True)[1]]
    return _frame_sums(TruncatedMeasure(base, digits, 1), cols, [len(cols)], xi_samples, Fraction(1))[0]


def jp_levels(cand: SpectrumCandidate, xi_samples: Sequence[float | Fraction]) -> list[list[JPRow]]:
    """The frame sums of mu_{N,D/s}, s = cand.scale, over cand.points(k)
    for every level k = 0, ..., len(cand.levels), from one kernel pass over
    the top level that multiplies the masks of cand.measure's factors.  The
    transform of mu_{N,D/s} at x is that of mu_{N,D} at x/s, so the pass
    takes the unscaled points against the exact samples xi/s, and each row
    keeps its xi.  Every level is truncated at the top level's depth, which
    bounds each level's tail too, so a Q_T moves from jp_sum's (for an
    integral D/s), at the level's own depth, by less than a relative 1e-14.

    The points reach the kernel as integers over the top level's reduced
    denominator (SpectrumCandidate.numerators), so every level is a prefix
    of the columns, and its Q_T the math.fsum of a prefix of the next
    level's squared terms: math.fsum is correctly rounded and the terms are
    nonnegative, so each row is at least the same sample's row of the level
    before it, exactly.  Every level has the top level's denominator, since
    each holds every l2 and N*lam is 0 mod N; so while d * |num| stays below
    2^63 each unit, and so each row, equals bit for bit that of a pass over
    level k's points alone at the top level's depth, and past that within
    an ulp.
    """
    den, nums, counts = cand.numerators()
    return _frame_sums(cand.measure, _RationalSide(den, nums), counts, xi_samples, cand.scale)


def _frame_height(top: Fraction, scale: Fraction) -> float:
    """top + 2/|scale|: the height for points up to top and samples in [0, 1]
    over the scale, or past the doubles the largest, which auto_depth refuses."""
    return float(min(top, _DOUBLE_MAX)) + float(min(2 / abs(scale), _DOUBLE_MAX))


def _frame_sums(m: TruncatedMeasure, cols: _RationalSide, counts: Sequence[int], xi_samples, scale) -> list[list[JPRow]]:
    """The JPRows of m's transform at xi/scale over the first n columns,
    for each n in counts, all truncated at the depth for the largest point
    height of cols; each row keeps its xi."""
    # a float is taken at its exact dyadic value, so the rows' common
    # denominator is a power of two times s's numerator, whatever their number
    xs = [Fraction(x) for x in xi_samples]
    top = Fraction(int(abs(cols.nums).max(initial=0)), cols.den)
    depth = auto_depth(m.base, m.digits, _frame_height(top, scale))
    totals = _row_sums([replace(m, depth=depth)], _RationalSide.of([x / scale for x in xs]), cols, counts)
    return [[JPRow(float(x), n, q_t) for x, q_t in zip(xs, qs)] for n, qs in zip(counts, totals)]


# ---------------------------------------------------------------------------
# Weakly periodic set check.

# Grid points with averaged B-mask energy at or below this are outside the
# scanned region; a windowed maximum below FLAG_THRESHOLD flags its point.
MEMBERSHIP_THRESHOLD = 1e-6
FLAG_THRESHOLD = 1e-3

# The scan's window of integer shifts, each way, and its count of Chebyshev
# points.
SCAN_WINDOW = 64
SCAN_RESOLUTION = 4096
# Most points the scan grid may hold: the N^2 rational points t / N^2 and
# the SCAN_RESOLUTION Chebyshev points.  Every point gets a lower bound on
# shift 0 from a shallow depth, and only the points that can still be the
# minimum or flagged climb to the rest of the window.  In process (2-core
# x86, medians of 5 runs) the form N = 504, A = {0, 1}, B = {0, 504}, whose
# grid of 504^2 + 4,096 points is just under this limit, flags 741 points
# in 0.09 s; at N = 256 it flags 151 in 0.03 s.  The base-1,728 one-stage
# form that reduce-kstage emits for (2,3,2,ii) would scan 1728^2 points,
# over 11 times this limit; building its grid takes 0.06 s.
SCAN_POINT_LIMIT = 1 << 18


@dataclass(frozen=True)
class WeaklyPeriodicReport:
    min_max: float
    argmin_xi: float
    flagged: tuple[float, ...]
    excluded: int


# The scan's bulk pass runs at the smallest depth q whose tail sum at height
# 1 is at most _SHALLOW_TAIL, and keeps that bound less a relative
# _SHALLOW_MARGIN, far above the kernel's rounding.
_SHALLOW_TAIL = 0.25
_SHALLOW_MARGIN = 1e-9


def _shallow_rung(m: TruncatedMeasure) -> tuple[TruncatedMeasure, float]:
    """(m at depth q, c) for the smallest q <= m.depth whose tail sum S at
    height 1 is at most _SHALLOW_TAIL, with c = sqrt(1 - S) * (1 -
    _SHALLOW_MARGIN).  For x in [0, 1) the levels q + 1, ..., m.depth
    multiply |mu_hat| by at least sqrt(1 - S) (tail_sum bounds every tail,
    and a finite tail of factors of modulus at most 1 only lies higher), so
    c * |mu_hat_q(x)| is below |mu_hat(x)| at m's depth.  The scan's own
    depth always qualifies, since its tail sum at height window + 2 is at
    most 1e-12."""
    shallow = next(s for s in (replace(m, depth=q) for q in range(1, m.depth + 1)) if s.tail_sum(1.0) <= _SHALLOW_TAIL)
    return shallow, math.sqrt(1.0 - shallow.tail_sum(1.0)) * (1.0 - _SHALLOW_MARGIN)


def weakly_periodic_check(form: OneStageForm) -> WeaklyPeriodicReport:
    """Scan for grid points whose whole integer translate class nearly kills
    the transform.

    Over points xi with averaged B-mask energy above the membership
    threshold, computes max over |k| <= SCAN_WINDOW of |mu_hat(xi + k)| and
    reports the minimum of those maxima, with the smallest xi that comes
    within a relative 1e-9 of it, and flags the points whose maximum is
    below FLAG_THRESHOLD; a healthy form flags none.  x = 0 is always kept
    (B-energy 1, maximum 1), so with no flag the minimum is >= FLAG_THRESHOLD.
    The grid is exact (_scan_grid, with SCAN_RESOLUTION Chebyshev points),
    each t/N^2 a point of it; the report's floats are the doubles nearest
    its points.

    The scan is best first.  Every point first gets, in one kernel pass, a
    lower bound on its shift-0 value |mu_hat(x)| at the scan's depth p:
    c * |mu_hat_q(x)| at the smallest depth q whose tail sum S at height 1
    is at most 1/4, with c = sqrt(1 - S) less a relative 1e-9 (grid points
    lie in [0, 1); _shallow_rung).  From that rung the shifts, ordered by
    |k|, climb twice at depth p: the near shifts |k| <= 2 (shift 0
    among them), then the rest of the window; the maximum over the shifts
    a point has had is a lower bound on its full maximum.  Then the point
    with the lowest bound below the top rung picks the rung that moves
    next, and that rung's points climb one rung in increasing order of
    their bound, in batches that double for each rung alone (1, 1, 2, 4,
    ...), while the bound is at most the relative 1e-9 band of the smallest full
    maximum found so far or FLAG_THRESHOLD: only the points whose bound
    can still reach that band climb.  No point left below the top can be
    the minimum, the reported xi or flagged, and the kernel is elementwise
    per (shift, point) pair, so the report equals that of the full scan at
    depth p bit for bit.  On the seven four-digit frame-sums forms the
    bulk pass runs at depth 1 or 2, where p is 6 to 8, and two points of
    4,200 to 6,400 climb from it, on to the other shifts.  Within
    SCAN_POINT_LIMIT q < p always: N <= 512 and p's tail sum at height
    SCAN_WINDOW + 2 is at most 1e-12, so p >= 2 and depth p - 1 has S
    below 1e-7.  A grid above SCAN_POINT_LIMIT raises PointLimitExceeded
    before any work.
    """
    n = form.base
    what = f"the scan grid would hold {n}^2 + {SCAN_RESOLUTION} points"
    refuse_above("SCAN_POINT_LIMIT", SCAN_POINT_LIMIT, what, n * n + SCAN_RESOLUTION)
    m = form_measure(form)
    b_list = form.b_list()
    grid = _scan_grid(n)
    trunc = replace(m, depth=auto_depth(n, m.digits, SCAN_WINDOW + 2.0, 1e-12))

    energy = _b_energy(b_list, grid)
    keep = energy > MEMBERSHIP_THRESHOLD
    excluded = int(np.sum(~keep))
    xs = grid[keep]

    # nearest shifts first: climbs[r] takes a point from rung r to rung r +
    # 1, the near shifts |k| <= 2 and then the rest of the window
    shifts = _RationalSide(1, sorted(range(-SCAN_WINDOW, SCAN_WINDOW + 1), key=abs))
    climbs = [shifts[:5], shifts[5:]]
    # rung 0, a certified lower bound on shift 0; the near climb gives shift
    # 0 its value at the scan's depth, which lies above the bound
    shallow, factor = _shallow_rung(trunc)
    running = _window_max(shallow, shifts[:1], xs)
    running *= factor
    # queues[r]: the points on rung r, in increasing order of their bound;
    # the last queue stays empty, since a point on the top rung has its
    # full maximum
    queues = [np.argsort(running, kind="stable")] + [np.empty(0, dtype=np.intp)] * len(climbs)
    moved = [0] * len(queues)
    best = math.inf
    while True:
        limit = max(best * (1 + 1e-9), FLAG_THRESHOLD)
        heads = [(running[queue[0]], r) for r, queue in enumerate(queues[:-1]) if queue.size]
        if not heads:
            break
        # the lowest bound picks the rung; its points move up in batches
        # that double for each rung alone: one point at a time when two
        # points matter, full tiles when thousands are flagged
        bound, r = min(heads)
        if bound > limit:
            break
        batch = queues[r][: max(moved[r], 1)]
        batch = batch[running[batch] <= limit]
        queues[r] = queues[r][len(batch) :]
        moved[r] += len(batch)
        running[batch] = np.maximum(running[batch], _window_max(trunc, climbs[r], xs[batch]))
        if r + 1 == len(climbs):
            best = min(best, running[batch].min())
        else:
            queue = np.concatenate((queues[r + 1], batch))
            queues[r + 1] = queue[np.argsort(running[queue], kind="stable")]
    lowest = float(running.min())
    # mirror points xi and 1 - xi agree to rounding, so the reported point
    # is the smallest xi within a relative 1e-9 of the minimum
    first = int(np.argmax(running <= lowest * (1 + 1e-9)))
    values = xs.nums / xs.den  # each the double nearest its point: both are below 2^53
    return WeaklyPeriodicReport(
        min_max=lowest,
        argmin_xi=float(values[first]),
        flagged=tuple(values[running < FLAG_THRESHOLD].tolist()),
        excluded=excluded,
    )
