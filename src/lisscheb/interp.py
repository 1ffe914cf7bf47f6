"""Polynomial interpolation: tensor Chebyshev expansions over a spectral set.

An expansion is a coefficient map over the spectral basis T_gamma(x) =
prod_j cos(gamma_j arccos x_j).  Interpolation of node samples reduces to
the coefficient transforms of the transform module; the reproducing kernel
and the fundamental polynomials are materialized as expansions so they can
be inspected, serialized and re-evaluated.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

from .errors import IndexOutOfRange, SpecMismatch
from .nodes import MultiIndex, NodeSpec, build_node_set, check_point
from .spectral import GammaSet, SpectralIndex, build_gamma
from .transform import ChebExpansion, SampleVector, chi_matrix, coefficients_fast

Scalar = Union[float, complex]


def cheb_T_eval(gamma: SpectralIndex, x: Sequence[float]) -> float:
    """Evaluate the tensor Chebyshev polynomial T_gamma at a point."""
    x = check_point(x, len(gamma))
    out = 1.0
    for gj, xj in zip(gamma, x):
        out *= math.cos(gj * math.acos(xj))
    return out


def _cheb_tables(
    gamma_set: GammaSet, x: Sequence[float]
) -> list:
    """Per-dimension tables of T_k(x_j) by the three-term recurrence."""
    tables = []
    for j, xj in enumerate(x):
        top = int(gamma_set.elements[:, j].max())
        t = np.empty(top + 1)
        t[0] = 1.0
        if top >= 1:
            t[1] = xj
        for k in range(2, top + 1):
            t[k] = 2.0 * xj * t[k - 1] - t[k - 2]
        tables.append(t)
    return tables


def expansion_eval(p: ChebExpansion, x: Sequence[float]) -> Scalar:
    """Evaluate sum_gamma c_gamma T_gamma(x).

    Uses recurrence tables of one-dimensional Chebyshev values, so the
    cost is linear in the spectral set size; the result matches the
    arccos formula to rounding error.
    """
    gs = p.gamma_set
    x = check_point(x, gs.spec.dim)
    if not p.coeffs:
        return 0.0
    tables = _cheb_tables(gs, x)
    acc = 0.0
    for gamma, c in p.coeffs.items():
        term = c
        for j, gj in enumerate(gamma):
            term = term * tables[j][gj]
        acc = acc + term
    return acc


def interpolate(h: SampleVector) -> ChebExpansion:
    """The unique polynomial in the spec's space matching h at every node.

    Its coefficients come from the fast cosine transforms;
    transform.coefficients_naive is the direct-sum oracle for them.
    """
    return coefficients_fast(h)


def kernel_eval(
    spec: NodeSpec, x: Sequence[float], y: Sequence[float]
) -> float:
    """The reproducing kernel sum_gamma T_gamma(x) T_gamma(y) / ||T_gamma||^2.

    The continuous norm is 2^(-e(gamma)) for every element of the
    spectral set, the special corner included.
    """
    gs = build_gamma(spec)
    x = check_point(x, spec.dim)
    y = check_point(y, spec.dim)
    tx = _cheb_tables(gs, x)
    ty = _cheb_tables(gs, y)
    terms = np.ones(len(gs))
    for j in range(spec.dim):
        col = gs.elements[:, j]
        terms *= tx[j][col] * ty[j][col]
    return float(np.dot(np.exp2(gs.e_counts.astype(np.float64)), terms))


def fundamental(spec: NodeSpec, i: MultiIndex) -> ChebExpansion:
    """The polynomial taking value 1 at node i and 0 at every other node.

    Its coefficients have the closed form w_i chi_gamma(i) / ||chi_gamma||^2,
    with the column chi_gamma(i) over the whole spectral set taken from the
    per-axis tables of nodes.chi_tables.
    """
    node_set = build_node_set(spec)
    pos = node_set.lookup.get(tuple(i))
    if pos is None:
        raise IndexOutOfRange(f"{i} is not in the index set")
    gs = build_gamma(spec)
    row = node_set.indices[pos : pos + 1]
    chi = chi_matrix(spec, gs.elements, row)[:, 0]
    cvec = node_set.weights[pos] * chi / gs.norm_sq
    return ChebExpansion(gamma_set=gs, coeffs=dict(zip(gs, cvec.tolist())))


def expansion_inner_product(p: ChebExpansion, q: ChebExpansion) -> Scalar:
    """The weighted-integral inner product, evaluated through orthogonality.

    Equals sum_gamma p_gamma conj(q_gamma) 2^(-e(gamma)); only the shared
    support contributes.
    """
    if p.gamma_set.spec != q.gamma_set.spec:
        raise SpecMismatch("expansions built from different specs")
    gs = p.gamma_set
    lookup = gs.lookup
    acc = 0.0
    for gamma, c in p.coeffs.items():
        other = q.coeffs.get(gamma)
        if other is None:
            continue
        e = int(gs.e_counts[lookup[gamma]])
        acc = acc + c * np.conj(other) * 2.0 ** (-e)
    if isinstance(acc, complex) or np.iscomplexobj(acc):
        return complex(acc)
    return float(acc)
