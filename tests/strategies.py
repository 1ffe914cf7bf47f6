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


@st.composite
def small_specs(draw):
    n = draw(st.sampled_from(_coprime_vectors(200, 3)))
    kappa = draw(st.none() | st.tuples(*[st.integers(0, 1) for _ in n]))
    return NodeSpec(n=validate_pairwise_coprime(n), kappa=kappa)
