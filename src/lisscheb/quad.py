"""Quadrature: the weighted node sum and its exactness bookkeeping.

The rule integrates against the product Chebyshev measure
w(x) dx / pi^d with w(x) = prod_j (1 - x_j^2)^(-1/2).  It is exact for
every basis polynomial whose frequency avoids the alias lattice; on the
lattice the rule returns the signed alias value instead of the integral.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .nodes import NodeSet, NodeSpec, build_node_set
from .spectral import SpectralIndex
from .transform import (
    SampleVector,
    _transform_all_axes,
    alias_integral,
    discrete_integral,
)


@dataclass(frozen=True)
class ExactnessEntry:
    rule_value: float
    true_value: float
    ok: bool


def integrate(
    h: SampleVector, node_set: Optional[NodeSet] = None
) -> float:
    """Apply the quadrature rule sum_i w_i h(i) to node samples."""
    return discrete_integral(h, node_set=node_set)


def exactness_table(
    spec: NodeSpec,
    box: Sequence[int],
    tol: float = 1e-12,
    node_set: Optional[NodeSet] = None,
) -> Dict[SpectralIndex, ExactnessEntry]:
    """Check the rule against every basis polynomial in a frequency box.

    For each gamma with 0 <= gamma_j <= box_j the rule value
    sum_i w_i T_gamma(z_i) is compared to the analytic integral (1 at
    gamma = 0, else 0) when gamma is off the alias lattice, and to the
    predicted signed alias value otherwise.

    The rule is separable: one cosine transform of the weights embedded in
    the (m_j + 1) box grid gives S_k for 0 <= k_j <= m_j.  Since
    cos(pi k i / m) is even and 2m-periodic in k, S_k = S_{2m-k} and any
    frequency reads S at min(k mod 2m_j, 2m_j - k mod 2m_j), so every
    box_j >= 0 is accepted, including boxes wider than 2m_j - 1.
    """
    if node_set is None:
        node_set = build_node_set(spec)
    grid = np.zeros(tuple(mj + 1 for mj in spec.m))
    grid[tuple(node_set.indices.T)] = node_set.weights
    sums = _transform_all_axes(grid)
    folded = []
    for b, mj in zip(box, spec.m):
        k = np.arange(b + 1) % (2 * mj)
        folded.append(np.minimum(k, 2 * mj - k))
    rules = sums[np.ix_(*folded)].ravel().tolist()

    table: Dict[SpectralIndex, ExactnessEntry] = {}
    gammas = itertools.product(*(range(b + 1) for b in box))
    for gamma, rule in zip(gammas, rules):
        predicted = alias_integral(spec, gamma)
        true = 1.0 if all(g == 0 for g in gamma) else 0.0
        if predicted == 0:
            ok = abs(rule - true) < tol
        else:
            ok = abs(rule - predicted) < tol
        table[gamma] = ExactnessEntry(
            rule_value=rule, true_value=true, ok=ok
        )
    return table
