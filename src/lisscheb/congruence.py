"""Exact integer arithmetic: coprimality validation and simultaneous congruences.

Everything in this module is pure integer arithmetic; no floating point is
involved anywhere.  All index-set combinatorics in the rest of the library
rest on these primitives being bit-exact.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from collections.abc import Iterable
from typing import Optional, Sequence, Tuple

from .errors import (
    CoprimalityViolation,
    EmptyDimension,
    IncompatibleCongruences,
    InvalidParameter,
    OverflowDimension,
    ZeroEntry,
    as_tuple,
)

# Explicit 64-bit guard: Python ints never wrap, but downstream array code and
# serialized output assume the doubled products stay inside int64.
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class DimensionVector:
    """A vector of pairwise relatively prime frequencies n_1..n_d.

    Carries the derived products: ``product`` is the product of all entries
    and ``coproducts[i]`` the product with entry i left out.
    """

    entries: Tuple[int, ...]
    product: int = field(compare=False)
    coproducts: Tuple[int, ...] = field(compare=False)

    @property
    def dim(self) -> int:
        return len(self.entries)


def integer_tuple(values: Iterable[int], what: str,
                  length: Optional[int] = None) -> Tuple[int, ...]:
    """The values as a tuple of Python ints, length of them if one is given.

    Python and numpy integers are accepted; anything else (a float, a
    string, a bool), values that are not iterable and a tuple of another
    length raise InvalidParameter instead of being truncated.
    """
    values = as_tuple(values, what, length)
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise InvalidParameter(f"{what} entries must be integers, got {v!r}")
    return tuple(map(int, values))


def validate_pairwise_coprime(entries: Iterable[int]) -> DimensionVector:
    """Validate a frequency vector and populate its derived products.

    entries is a sequence of integers or a DimensionVector, whose entries
    are checked again.  Raises InvalidParameter, EmptyDimension, ZeroEntry,
    CoprimalityViolation or OverflowDimension on invalid input.  Indices in
    CoprimalityViolation are 1-based to match the usual n_1..n_d naming.
    """
    if isinstance(entries, DimensionVector):
        entries = entries.entries
    entries = integer_tuple(entries, "frequency")
    if not entries:
        raise EmptyDimension("frequency vector must be non-empty")
    for e in entries:
        if e == 0:
            raise ZeroEntry("frequency entries must be positive")
        if e < 0:
            raise ZeroEntry(f"frequency entries must be positive, got {e}")
    for (i, a), (j, b) in itertools.combinations(enumerate(entries, 1), 2):
        if (g := math.gcd(a, b)) > 1:
            raise CoprimalityViolation(i, j, g)
    product = math.prod(entries)
    # Guard the largest integer any construction needs: 4 * P[2n].
    if 4 * 2 ** len(entries) * product > _INT64_MAX:
        raise OverflowDimension(
            f"product {product} too large for 64-bit index arithmetic"
        )
    coproducts = tuple(product // e for e in entries)
    return DimensionVector(entries=entries, product=product, coproducts=coproducts)


def crt_solve(congruences: Sequence[Tuple[int, int]]) -> int:
    """Solve a system of simultaneous congruences l = a_i mod k_i.

    The moduli need not be pairwise coprime; the compatibility condition
    a_i = a_j mod gcd(k_i, k_j) is checked for every pair first and
    IncompatibleCongruences raised when it fails.  Solutions are merged
    pairwise with modular inverses, so the result is the unique l in
    [0, lcm(k_1..k_d)).  A system that is not a sequence of pairs of
    integers raises InvalidParameter.
    """
    pairs = [integer_tuple(pair, "congruence", 2)
             for pair in as_tuple(congruences, "congruences")]
    if not pairs:
        raise EmptyDimension("congruence system must be non-empty")
    if min(k for _, k in pairs) < 1:
        raise ZeroEntry("moduli must be positive")
    for (i, (a, k)), (j, (b, m)) in itertools.combinations(
        enumerate(pairs, 1), 2
    ):
        if (a - b) % math.gcd(k, m) != 0:
            raise IncompatibleCongruences(i, j)
    a, k = pairs[0]
    a %= k
    for b, m in pairs[1:]:
        g = math.gcd(k, m)
        lcm = k // g * m
        # l = a + k*t with k*t = (b - a) mod m; solvable since g | (b - a).
        t = (b - a) // g * pow(k // g, -1, m // g) % (m // g)
        a = (a + k * t) % lcm
        k = lcm
    return a
