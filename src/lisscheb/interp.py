"""Polynomial interpolation: tensor Chebyshev expansions over a spectral set.

An expansion is a coefficient array, in gamma-set order, over the spectral
basis T_gamma(x) = prod_j cos(gamma_j arccos x_j).  Interpolation of node
samples reduces to the coefficient transforms of the transform module; the
reproducing kernel and the fundamental polynomials are materialized as
expansions so they can be inspected, serialized and re-evaluated.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Union

import numpy as np

from .congruence import integer_tuple
from .errors import IndexOutOfRange, SpecMismatch, check_real, check_type
from .nodes import MultiIndex, NodeSpec, cached_node_set, check_points
from .spectral import SpectralIndex, build_gamma
from .transform import ChebExpansion, SampleVector, chi_matrix, coefficients_fast

Scalar = Union[float, complex]

# Most term entries, points x coefficients, that one block of the batched
# evaluation holds: 2 MB of float64, whatever the number of points.
_EVAL_BLOCK = 1 << 18


def cheb_T_eval(gamma: SpectralIndex, x: Sequence[float]) -> float:
    """Evaluate the tensor Chebyshev polynomial T_gamma at a point.

    Raises InvalidParameter for a degree that is not an integer or whose
    product with arccos x_j a float cannot hold.
    """
    gamma = integer_tuple(gamma, "gamma")
    x = check_points([x], len(gamma))[0].tolist()
    out = 1.0
    for gj, xj in zip(gamma, x):
        angle = check_real(gj, "a degree of gamma") * math.acos(xj)
        out *= math.cos(check_real(angle, "a degree of gamma times arccos x"))
    return out


def _cheb_table(x: np.ndarray, m: Sequence[int]) -> np.ndarray:
    """Array (M, d, max(m) + 1) of T_k(x_ij) = cos(k arccos x_ij).

    x is a checked (M, d) array; row i, axis j holds T_k at x_ij for every
    degree k up to max(m), which covers every gamma_j <= m_j.  Each entry
    depends only on x_ij and k, so a point gives the same row alone or in a
    block.
    """
    return np.cos(np.arccos(x)[:, :, None] * np.arange(max(m) + 1))


def _eval_points(p: ChebExpansion, x: np.ndarray) -> np.ndarray:
    """sum_gamma c_gamma T_gamma at the rows of a checked (M, d) array.

    Works through blocks of at most _EVAL_BLOCK term entries.  Each block
    takes its rows of _cheb_table as the one-point loop does, multiplies
    the terms in the same axis order as that loop and sums them with a
    cumulative sum, which adds one term after another in gamma-set order,
    so every value equals the one-point loop's bit for bit.
    """
    g = p.gamma_set.elements
    c = p.coeffs
    n = c.shape[0]
    m, d = x.shape
    out = np.empty(m, dtype=c.dtype)
    rows = max(1, _EVAL_BLOCK // n)
    for start in range(0, m, rows):
        t = _cheb_table(x[start : start + rows], p.gamma_set.spec.m)
        term = np.multiply(c, t[:, 0, g[:, 0]])
        for j in range(1, d):
            term *= t[:, j, g[:, j]]
        out[start : start + rows] = np.cumsum(term, axis=1, out=term)[:, -1]
    # The loop's sum starts from 0.0, which turns a -0.0 total into 0.0.
    return out + 0.0


def expansion_eval(p: ChebExpansion, x: Sequence[float]) -> Scalar:
    """Evaluate sum_gamma c_gamma T_gamma(x) at one point or at M points.

    A point of d coordinates gives a scalar.  An (M, d) array gives an
    array of the M values, float, or complex when a coefficient is.  Both
    take one-dimensional tables T_k(x_j) = cos(k arccos x_j), so the cost
    is linear in the spectral set size, and both sum the terms in
    gamma-set order, so the values agree bit for bit.  Points are checked
    by nodes.check_points.  Raises InvalidParameter for a p that is not a
    ChebExpansion.
    """
    check_type(p, ChebExpansion)
    gs = p.gamma_set
    # An array of rows, or a sequence of rows even of different lengths;
    # anything else, a scalar, None or a mapping too, is one point for
    # check_points.
    rows = isinstance(x, Sequence) and len(x) and hasattr(x[0], "__len__")
    if getattr(x, "ndim", 1) > 1 or rows:
        return _eval_points(p, check_points(x, gs.spec.dim))
    tables = _cheb_table(check_points([x], gs.spec.dim), gs.spec.m)[0]
    columns = [t[gs.elements[:, j]] for j, t in enumerate(tables)]
    acc = 0.0
    for c, *ts in zip(p.coeffs, *columns):
        term = c
        for t in ts:
            term = term * t
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
    tx, ty = _cheb_table(check_points([x, y], spec.dim), spec.m)
    terms = np.ones(len(gs))
    for j in range(spec.dim):
        col = gs.elements[:, j]
        terms *= tx[j, col] * ty[j, col]
    return float(np.dot(np.exp2(gs.e_counts.astype(np.float64)), terms))


def fundamental(spec: NodeSpec, i: MultiIndex) -> ChebExpansion:
    """The polynomial taking value 1 at node i and 0 at every other node.

    Its coefficients have the closed form w_i chi_gamma(i) / ||chi_gamma||^2,
    with the column chi_gamma(i) over the whole spectral set taken from the
    per-axis tables of nodes.chi_tables.  Raises InvalidParameter for an
    index entry that is not an integer.
    """
    i = integer_tuple(i, "node index")
    node_set = cached_node_set(spec)
    pos = node_set.lookup.get(i)
    if pos is None:
        raise IndexOutOfRange(f"{i} is not in the index set")
    gs = build_gamma(spec)
    row = node_set.indices[pos : pos + 1]
    chi = chi_matrix(spec, gs.elements, row)[:, 0]
    return ChebExpansion(
        gamma_set=gs, coeffs=node_set.weights[pos] * chi / gs.norm_sq
    )


def expansion_inner_product(p: ChebExpansion, q: ChebExpansion) -> Scalar:
    """The weighted-integral inner product, evaluated through orthogonality.

    Equals sum_gamma p_gamma conj(q_gamma) 2^(-e(gamma)), one weighted sum
    over the spectral set.  Raises InvalidParameter for an argument that is
    not a ChebExpansion.
    """
    check_type(p, ChebExpansion)
    check_type(q, ChebExpansion)
    if p.gamma_set.spec != q.gamma_set.spec:
        raise SpecMismatch("expansions built from different specs")
    weights = np.exp2(-p.gamma_set.e_counts.astype(np.float64))
    total = np.dot(p.coeffs * np.conj(q.coeffs), weights)
    return complex(total) if np.iscomplexobj(total) else float(total)
