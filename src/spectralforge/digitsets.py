"""Digit sets over an integer base and residue-class sets.

Conventions used throughout the package:

* A digit set is a finite set of distinct integers attached to a base N >= 2.
  Digits are plain Python ints, so k-fold expansions like D + N*D + ... +
  N^(k-1)*D never overflow.
* The canonical form of a digit set has min(digits) == 0; ``canonicalize``
  produces it and records the translation offset, since translating a digit
  set leaves every spectrum question unchanged.
* All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import (
    BaseTooSmall,
    DistinctnessFailure,
    EmptyInput,
    ModulusMismatch,
    OverlapError,
)


@dataclass(frozen=True)
class DigitSet:
    """A finite set of distinct integers with a base N >= 2.

    ``offset`` is bookkeeping only: ``canonicalize`` stores there the
    translation that was subtracted, so results computed for the canonical
    set can be reported for the original one.  Two tables, not fields,
    keep answers about the digits, so a repeated question costs no hash of
    them: ``order_verdicts`` maps a root order m to whether the sum of
    zeta_m^d over the digits vanishes (``cyclotomic.vanishing_sum_test``
    fills it), and ``modulus_facts`` maps a modulus N to the duplicate
    residues and ordered differences mod N (``hadamard.check_triple``
    fills it).
    """

    base: int
    digits: tuple[int, ...]
    offset: int = field(default=0, compare=False)

    def __post_init__(self):
        if self.base < 2:
            raise BaseTooSmall(f"base must be >= 2, got {self.base}")
        if not self.digits:
            raise EmptyInput("digit set must be non-empty")
        ordered = tuple(sorted(self.digits))
        if len(set(ordered)) != len(ordered):
            raise ValueError("digits must be pairwise distinct (multisets rejected)")
        object.__setattr__(self, "digits", ordered)
        object.__setattr__(self, "order_verdicts", {})
        object.__setattr__(self, "modulus_facts", {})

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits)

    def __len__(self) -> int:
        return len(self.digits)

    @property
    def is_canonical(self) -> bool:
        return self.digits[0] == 0

    @cached_property
    def deviation_bound(self) -> float:
        """An upper bound on the population standard deviation sigma of the
        digits, taken once per set: (isqrt(V) + 1) / |D| from the exact
        integer V = |D| * sum d^2 - (sum d)^2 = |D|^2 * sigma^2, rounded
        once to a double; inf past the largest double."""
        n = len(self.digits)
        root = math.isqrt(n * sum(d * d for d in self.digits) - sum(self.digits) ** 2) + 1
        return root / n if root <= sys.float_info.max else math.inf

    def shifted(self, c: int) -> "DigitSet":
        return DigitSet(self.base, tuple(d + c for d in self.digits))



def canonicalize(raw: Iterable[int], base: int) -> DigitSet:
    """Sort, deduplicate and translate so the least digit is 0.

    The subtracted minimum is kept in ``offset``.
    """
    items = sorted(set(int(x) for x in raw))
    if not items:
        raise EmptyInput("digit set must be non-empty")
    if base < 2:
        raise BaseTooSmall(f"base must be >= 2, got {base}")
    low = items[0]
    return DigitSet(base, tuple(d - low for d in items), offset=low)


def gcd_normalize(d: DigitSet) -> tuple[DigitSet, int]:
    """Divide out g = gcd of the nonzero digits; returns (D/g, g).

    Requires the canonical form (0 in D).  For the trivial set {0} the gcd
    is taken to be 1 so normalization is a no-op.  Any spectrum of the
    measure attached to D/g turns into one for D after division by g.
    """
    if not d.is_canonical:
        raise ValueError("gcd_normalize expects a canonical digit set (min 0)")
    g = math.gcd(*d.digits) or 1
    if g == 1:
        return d, 1
    return DigitSet(d.base, tuple(x // g for x in d.digits), offset=d.offset), g


@dataclass(frozen=True)
class ResidueClassSet:
    """Distinct residues modulo a positive modulus."""

    modulus: int
    residues: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise ModulusMismatch(f"modulus must be positive, got {self.modulus}")
        ordered = tuple(sorted(self.residues))
        if any(r < 0 or r >= self.modulus for r in ordered):
            raise ValueError("residues must lie in [0, modulus)")
        if len(set(ordered)) != len(ordered):
            raise ValueError("residues must be pairwise distinct")
        object.__setattr__(self, "residues", ordered)

    def __len__(self) -> int:
        return len(self.residues)


def direct_sum(a: ResidueClassSet, b: ResidueClassSet) -> ResidueClassSet:
    """A (+) B mod the shared modulus; raises if any two sums collide."""
    if a.modulus != b.modulus:
        raise ModulusMismatch(f"{a.modulus} != {b.modulus}")
    m = a.modulus
    seen: dict[int, tuple[int, int]] = {}
    for x in a.residues:
        for y in b.residues:
            s = (x + y) % m
            if s in seen:
                raise DistinctnessFailure(seen[s], (x, y), m)
            seen[s] = (x, y)
    return ResidueClassSet(m, tuple(sorted(seen)))


# ---------------------------------------------------------------------------
# Plain integer-tuple helpers.  The product-form machinery builds lots of
# direct sums of raw digit lists before wrapping them in DigitSet.


def direct_sum_digits(*sets: Iterable[int]) -> tuple[int, ...]:
    """Direct sum over the integers; raises OverlapError on a repeated sum,
    naming the (partial sum, summand) pair of each production."""
    stages = [(None, 1, lambda d, part=tuple(part): part) for part in sets]
    return tuple(_expand_layers((0,), stages)[-1])


def stacked_digits(digits: Sequence[int], base: int, count: int) -> tuple[int, ...]:
    """D + N*D + ... + N^(count-1)*D as a direct sum."""
    return direct_sum_digits(*[[base**j * x for x in digits] for j in range(count)])


def _expand_layers(start: Iterable[int], stages) -> list[list[int]]:
    """Layered expansion x = d + scale * e over the digits d of each level.

    ``stages`` lists (label, scale, layer) with ``layer(d)`` giving the
    layer digits e attached to the parent d.  Returns the sorted digits of
    every level, ``start`` first.  A stage is checked by counting its sums;
    only when some repeat does ``_stage_witnesses`` run, to raise the
    OverlapError that names the stage's label and the first repeated digit.
    """
    levels = [sorted(start)]
    for stage in stages:
        _, scale, layer = stage
        current = levels[-1]
        sums = [d + scale * e for d in current for e in layer(d)]
        distinct = set(sums)
        if len(distinct) != len(sums):
            _stage_witnesses(current, stage)
        levels.append(sorted(distinct))
    return levels


def _stage_witnesses(current: Sequence[int], stage) -> None:
    """Walk one ``_expand_layers`` stage over the level ``current`` and
    raise the OverlapError that names the first repeated x and its two
    productions (d, e)."""
    label, scale, layer = stage
    seen: dict[int, tuple[int, int]] = {}
    for d in current:
        for e in layer(d):
            x = d + scale * e
            if x in seen:
                raise OverlapError(x, seen[x], (d, e), stage=label)
            seen[x] = (d, e)
