import time

import pytest

from spectralforge.cyclotomic import FACTOR_DEGREE_LIMIT, MaskPolynomial, cyclotomic_factorization
from spectralforge.errors import PointLimitExceeded, refuse_above


def _refuses(*args) -> bool:
    try:
        refuse_above("LIMIT", *args)
    except PointLimitExceeded:
        return True
    return False


def test_capped_power_refuses_exactly_above_the_limit():
    """Capping the power at limit.bit_length() never changes the verdict:
    over bases 0-5, powers 0-40, factors 1-3 and small power-of-two limits,
    the helper refuses exactly when factor * base^power > limit."""
    for limit in (1, 2, 4, 8, 16, 1 << 10):
        for base in range(6):
            for power in range(41):
                for factor in (1, 2, 3):
                    expected = factor * base**power > limit
                    assert _refuses(limit, "x", base, power, factor) == expected, (limit, base, power, factor)


def test_capped_power_decides_a_huge_power_at_once():
    t0 = time.perf_counter()
    with pytest.raises(PointLimitExceeded):
        refuse_above("LIMIT", 1 << 20, "x", 10**300, 10**30)
    refuse_above("LIMIT", 1 << 20, "x", 1, 10**30)
    refuse_above("LIMIT", 1 << 20, "x", 0, 10**30)
    assert time.perf_counter() - t0 < 0.1


def test_limit_message_shape():
    with pytest.raises(PointLimitExceeded, match=r"^a tiling of Z_5, above TILE = 2\^2$"):
        refuse_above("TILE", 4, "a tiling of Z_5", 5)
    with pytest.raises(PointLimitExceeded, match=r"^degree 11, above DEGREE = 10$"):
        refuse_above("DEGREE", 10, "degree 11", 11)


def test_factorization_degree_limit():
    """Degree FACTOR_DEGREE_LIMIT still factors; one more is refused."""
    fac = cyclotomic_factorization(MaskPolynomial.from_digits((0, FACTOR_DEGREE_LIMIT)))
    assert sum(m for _, m in fac.factors) >= 1
    with pytest.raises(PointLimitExceeded, match=f"degree {FACTOR_DEGREE_LIMIT + 1}, above FACTOR_DEGREE_LIMIT"):
        cyclotomic_factorization(MaskPolynomial.from_digits((0, FACTOR_DEGREE_LIMIT + 1)))
