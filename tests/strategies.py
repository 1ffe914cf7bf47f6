"""Hypothesis strategies shared by the property tests."""

import math

from hypothesis import strategies as st

from lisscheb.congruence import validate_pairwise_coprime
from lisscheb.nodes import NodeSpec


def _coprime_vectors(limit, max_dim):
    """Every pairwise-coprime n of at most max_dim entries, prod(n) <= limit."""
    out = []

    def grow(prefix, product):
        if prefix:
            out.append(tuple(prefix))
        if len(prefix) < max_dim:
            for e in range(1, limit // product + 1):
                if all(math.gcd(e, p) == 1 for p in prefix):
                    grow(prefix + [e], product * e)

    grow([], 1)
    return out


# Vectors of up to five entries whose shifted node box, prod(2 n_j + 1)
# cells, holds at most 4,096; that box bounds N for both variants.  Every
# vector of up to three entries with prod(n) <= 200 fits.
_SMALL_N = [
    n for n in _coprime_vectors(200, 5)
    if math.prod(2 * e + 1 for e in n) <= 4096
]


# Shift entries: negative ones, ones of 2 and more, and one of each parity
# beyond int64.  The node set depends on kappa mod 2 only.
_KAPPA_ENTRIES = st.integers(-5, 5) | st.sampled_from([2**64, -(2**63) - 1])


@st.composite
def small_specs(draw):
    n = draw(st.sampled_from(_SMALL_N))
    kappa = draw(st.none() | st.tuples(*[_KAPPA_ENTRIES for _ in n]))
    return NodeSpec(n=validate_pairwise_coprime(n), kappa=kappa)
