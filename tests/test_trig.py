import math

import pytest

from lisscheb.trig import cos_pi_ratio


def test_exact_quarter_period_values():
    assert cos_pi_ratio(0, 4) == 1.0
    assert cos_pi_ratio(4, 4) == -1.0
    assert cos_pi_ratio(2, 4) == 0.0
    assert cos_pi_ratio(8, 4) == 1.0
    assert cos_pi_ratio(6, 4) == 0.0


def test_reflection_symmetry_is_exact():
    # cos((m-k) pi/m) must be the exact negation, bit for bit.
    for m in (3, 5, 7, 12, 100):
        for k in range(m + 1):
            assert cos_pi_ratio(m - k, m) == -cos_pi_ratio(k, m)


def test_periodicity_is_exact():
    for m in (3, 8):
        for k in range(-3 * m, 3 * m):
            assert cos_pi_ratio(k, m) == cos_pi_ratio(k + 2 * m, m)
            assert cos_pi_ratio(k, m) == cos_pi_ratio(-k, m)


def test_agrees_with_math_cos():
    for m in (5, 9, 16):
        for k in range(2 * m):
            assert cos_pi_ratio(k, m) == pytest.approx(
                math.cos(math.pi * k / m), abs=1e-15
            )


def test_bad_denominator():
    with pytest.raises(ValueError):
        cos_pi_ratio(1, 0)
