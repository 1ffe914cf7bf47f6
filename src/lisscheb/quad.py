"""Quadrature: the weighted node sum and its exactness bookkeeping.

The rule integrates against the product Chebyshev measure
w(x) dx / pi^d with w(x) = prod_j (1 - x_j^2)^(-1/2).  It is exact for
every basis polynomial whose frequency avoids the alias lattice; on the
lattice the rule returns the signed alias value instead of the integral.
"""

from __future__ import annotations

import itertools
import numbers
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .congruence import integer_tuple
from .errors import InvalidParameter, check_type
from .nodes import NodeSet, check_box_size
from .transform import (
    _scatter_grid,
    _transform_all_axes,
    alias_integral,
    discrete_integral,
)


@dataclass(frozen=True)
class ExactnessTable:
    """Arrays of shape (box_j + 1), indexed by gamma."""

    rule_value: np.ndarray
    true_value: np.ndarray
    ok: np.ndarray


# The quadrature rule sum_i w_i h(i) applied to node samples.
integrate = discrete_integral


def exactness_table(
    node_set: NodeSet, box: Sequence[int], tol: float = 1e-12
) -> ExactnessTable:
    """Check the rule of a node set against every basis polynomial in a box.

    The rule audited is the node set's own weights w_i.  For each gamma
    with 0 <= gamma_j <= box_j the rule value sum_i w_i T_gamma(z_i) is
    compared to the analytic integral (1 at gamma = 0, else 0) when gamma
    is off the alias lattice, and to the predicted signed alias value
    otherwise.

    The rule is separable: one cosine transform of the weights embedded in
    the (m_j + 1) box grid gives S_k for 0 <= k_j <= m_j.  Since
    cos(pi k i / m) is even and 2m-periodic in k, S_k = S_{2m-k} and any
    frequency reads S at min(k mod 2m_j, 2m_j - k mod 2m_j), so every
    box_j >= 0 is accepted, including boxes wider than 2m_j - 1.  Raises
    InvalidParameter for any other box, a node_set that is not a NodeSet or
    a tol that is not a finite real number >= 0, and OverflowDimension for
    a box of more than nodes.MAX_BOX_CELLS cells.
    """
    check_type(node_set, NodeSet)
    if not isinstance(tol, numbers.Real) or not (
            0 <= tol <= sys.float_info.max):
        raise InvalidParameter(f"tol must be a finite real >= 0, got {tol!r}")
    spec = node_set.spec
    box = integer_tuple(box, "box")
    if len(box) != spec.dim or min(box) < 0:
        raise InvalidParameter(f"box needs {spec.dim} entries >= 0: {box}")
    check_box_size(box)
    sums = _transform_all_axes(_scatter_grid(node_set, node_set.weights))
    ks = [np.arange(b + 1) % (2 * mj) for b, mj in zip(box, spec.m)]
    folded = [np.minimum(k, 2 * mj - k) for k, mj in zip(ks, spec.m)]
    rule = sums[np.ix_(*folded)]

    true = np.zeros(rule.shape)
    true[(0,) * spec.dim] = 1.0
    # On the lattice a nonzero alias value replaces the integral as target.
    target = true.copy()
    for gamma in itertools.product(
        *(range(0, b + 1, mj) for b, mj in zip(box, spec.m))
    ):
        target[gamma] = alias_integral(spec, gamma) or target[gamma]
    ok = np.abs(rule - target) < tol
    return ExactnessTable(rule_value=rule, true_value=true, ok=ok)
