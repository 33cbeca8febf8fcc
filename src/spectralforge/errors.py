"""Exception hierarchy shared by all spectralforge modules.

Every failure mode that a caller might want to branch on gets its own class;
witness data (the offending pair, stage index, ...) rides on attributes so
reports can name the exact culprit instead of re-deriving it.
"""

from __future__ import annotations


class SpectralForgeError(Exception):
    """Base class for all library errors."""


class InputError(SpectralForgeError, ValueError):
    """Malformed user input (bad JSON, missing field, unparsable digit), or
    an argument a library call refuses; also a ValueError, so callers that
    catch ValueError catch it."""


class EmptyInput(SpectralForgeError):
    pass


class BaseTooSmall(SpectralForgeError):
    pass


class ModulusMismatch(SpectralForgeError):
    pass


class DistinctnessFailure(SpectralForgeError):
    """A direct sum had a colliding pair: a1 + b1 == a2 + b2 (mod modulus)."""

    def __init__(self, pair1, pair2, modulus):
        self.pair1 = pair1
        self.pair2 = pair2
        self.modulus = modulus
        super().__init__(
            f"direct sum not distinct mod {modulus}: "
            f"{pair1[0]}+{pair1[1]} == {pair2[0]}+{pair2[1]}"
        )


class OverlapError(SpectralForgeError):
    """A digit-set union produced the same digit twice."""

    def __init__(self, digit, first, second, stage=None):
        self.digit = digit
        self.first = first
        self.second = second
        self.stage = stage
        where = "" if stage is None else f" at stage {stage}"
        super().__init__(
            f"digit collision{where}: {digit} produced by {first} and {second}"
        )


class HadamardFailure(SpectralForgeError):
    """A triple failed exact verification; .report carries the witness."""

    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


class ValidationFailure(SpectralForgeError):
    """A product form failed one of its defining conditions."""

    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


class CoverageFailure(SpectralForgeError):
    """The per-factor cyclotomic index sets do not cover the requested set."""


class KernelDivisibilityFailure(SpectralForgeError):
    """Internal assertion: the kernel polynomial must divide the mask."""


class TDivisibleByBeta(SpectralForgeError):
    """Four-digit construction rejected: the 2-adic shift lands on r = 0."""


class ShiftSearchFailure(SpectralForgeError):
    """No integer shift in the search window met the positivity threshold."""

    def __init__(self, gamma, window, best_ratio):
        self.gamma = gamma
        self.window = window
        self.best_ratio = best_ratio
        super().__init__(
            f"no shift in [-{window}, {window}] accepted for gamma={gamma} "
            f"(best ratio {best_ratio:.3e})"
        )


class TailBoundUnavailable(SpectralForgeError):
    """Truncation depth too small for a rigorous tail estimate at this point."""


class InvalidVariantParams(SpectralForgeError):
    pass


class NotCompleteResidues(SpectralForgeError):
    pass


class CMConditionFailure(SpectralForgeError):
    def __init__(self, which, condition):
        self.which = which
        self.condition = condition
        super().__init__(f"{condition} fails for {which}")


class SearchLimitReached(SpectralForgeError):
    """An exhaustive search reached its module cap before it could decide."""


class PointLimitExceeded(SpectralForgeError):
    """A point set would be larger than its module limit allows."""


def refuse_above(name: str, limit: int, what: str, base: int, power: int = 1, factor: int = 1) -> None:
    """Raise PointLimitExceeded("<what>, above <name> = <limit>") when
    factor * base^power is above ``limit``; a power-of-two limit prints as
    2^k.  The power is capped at limit.bit_length() first, so a huge one
    costs nothing.  The cap is sound for base >= 0 and factor >= 0: past it
    a base of at least 2 gives at least 2^bit_length > limit either way, and
    a base of 0 or 1 gives the same value at every positive power."""
    if factor * base ** min(power, limit.bit_length()) > limit:
        shown = f"2^{limit.bit_length() - 1}" if limit & (limit - 1) == 0 else str(limit)
        raise PointLimitExceeded(f"{what}, above {name} = {shown}")
