"""Exact-symmetry evaluation of cos(k*pi/m) for integer k, m.

The argument is reduced modulo 2*pi in exact rational units of pi before any
floating-point call.  This guarantees the sign symmetries
cos((m-k)*pi/m) = -cos(k*pi/m) and the exact values 0 and +-1 at the
quarter-period points, which downstream code relies on when comparing curve
samples with node coordinates.
"""

from __future__ import annotations

import math


def cos_pi_ratio(k: int, m: int) -> float:
    """Return cos(k*pi/m) with exact reduction of (k mod 2m)."""
    if m <= 0:
        raise ValueError("denominator must be positive")
    k %= 2 * m
    if k > m:
        k = 2 * m - k
    sign = 1.0
    if 2 * k > m:
        k = m - k
        sign = -1.0
    if k == 0:
        return sign
    if 2 * k == m:
        return 0.0
    # Reduce the fraction so equal angles hit cos with identical operands,
    # making results reproducible across different (k, m) representations.
    g = math.gcd(k, m)
    return sign * math.cos(math.pi * (k // g) / (m // g))

