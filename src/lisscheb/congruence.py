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
from typing import Sequence, Tuple

from .errors import (
    CoprimalityViolation,
    EmptyDimension,
    IncompatibleCongruences,
    InvalidParameter,
    OverflowDimension,
    ZeroEntry,
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


def integer_tuple(values: Iterable[int], what: str) -> Tuple[int, ...]:
    """The values as a tuple of Python ints.

    Python and numpy integers are accepted; anything else (a float, a
    string, a bool) or values that are not iterable raise InvalidParameter
    instead of being truncated.
    """
    if not isinstance(values, Iterable):
        raise InvalidParameter(f"{what} must be a sequence, got {values!r}")
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise InvalidParameter(f"{what} entries must be integers, got {v!r}")
        out.append(int(v))
    return tuple(out)


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
    [0, lcm(k_1..k_d)).  A residue or modulus that is not an integer
    raises InvalidParameter.
    """
    if not congruences:
        raise EmptyDimension("congruence system must be non-empty")
    residues = integer_tuple((a for a, _ in congruences), "residue")
    moduli = integer_tuple((k for _, k in congruences), "modulus")
    if min(moduli) < 1:
        raise ZeroEntry("moduli must be positive")
    pairs = list(zip(residues, moduli))
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
