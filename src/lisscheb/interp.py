"""Polynomial interpolation: tensor Chebyshev expansions over a spectral set.

An expansion is a coefficient array, in gamma-set order, over the spectral
basis T_gamma(x) = prod_j cos(gamma_j arccos x_j).  Interpolation of node
samples reduces to the coefficient transforms of the transform module; the
reproducing kernel and the fundamental polynomials are materialized as
expansions so they can be inspected, serialized and re-evaluated.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

from .congruence import integer_tuple
from .errors import IndexOutOfRange, SpecMismatch
from .nodes import (
    MultiIndex,
    NodeSpec,
    build_node_set,
    check_point,
    check_points,
)
from .spectral import GammaSet, SpectralIndex, build_gamma
from .transform import ChebExpansion, SampleVector, chi_matrix, coefficients_fast

Scalar = Union[float, complex]

# Most term entries, points x coefficients, that one block of the batched
# evaluation holds: 2 MB of float64, whatever the number of points.
_EVAL_BLOCK = 1 << 18


def cheb_T_eval(gamma: SpectralIndex, x: Sequence[float]) -> float:
    """Evaluate the tensor Chebyshev polynomial T_gamma at a point.

    Raises InvalidParameter for a degree that is not an integer.
    """
    gamma = integer_tuple(gamma, "gamma")
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


def _cheb_rows(xj: np.ndarray, top: int) -> np.ndarray:
    """Table (M, top + 1) of T_k(xj), by the recurrence of _cheb_tables."""
    x2 = 2.0 * xj
    t = np.empty((xj.shape[0], top + 1))
    t[:, 0] = 1.0
    if top >= 1:
        t[:, 1] = xj
    for k in range(2, top + 1):
        t[:, k] = x2 * t[:, k - 1] - t[:, k - 2]
    return t


def _eval_points(p: ChebExpansion, x: np.ndarray) -> np.ndarray:
    """sum_gamma c_gamma T_gamma at the rows of a checked (M, d) array.

    Works through blocks of at most _EVAL_BLOCK term entries.  Each block
    builds its per-axis recurrence tables as _cheb_tables does, multiplies
    the terms in the same axis order as the one-point loop and sums them
    with a cumulative sum, which adds one term after another in gamma-set
    order, so every value equals the one-point loop's bit for bit.
    """
    g = p.gamma_set.elements
    c = p.coeffs
    n = c.shape[0]
    m, d = x.shape
    tops = g.max(axis=0).tolist()
    out = np.empty(m, dtype=c.dtype)
    rows = max(1, _EVAL_BLOCK // n)
    for start in range(0, m, rows):
        xb = x[start : start + rows]
        term = np.multiply(c, _cheb_rows(xb[:, 0], tops[0])[:, g[:, 0]])
        for j in range(1, d):
            term *= _cheb_rows(xb[:, j], tops[j])[:, g[:, j]]
        out[start : start + rows] = np.cumsum(term, axis=1, out=term)[:, -1]
    # The loop's sum starts from 0.0, which turns a -0.0 total into 0.0.
    return out + 0.0


def expansion_eval(p: ChebExpansion, x: Sequence[float]) -> Scalar:
    """Evaluate sum_gamma c_gamma T_gamma(x) at one point or at M points.

    A point of d coordinates gives a scalar.  An (M, d) array gives an
    array of the M values, float, or complex when a coefficient is.  Both
    use recurrence tables of one-dimensional Chebyshev values, so the cost
    is linear in the spectral set size, and both sum the terms in
    gamma-set order, so the values agree bit for bit; they match the
    arccos formula to rounding error.  Points are checked by
    nodes.check_points' rule.
    """
    gs = p.gamma_set
    # An array of rows, or a sequence of rows even of different lengths.
    if getattr(x, "ndim", 1) == 2 or len(x) and hasattr(x[0], "__len__"):
        return _eval_points(p, check_points(x, gs.spec.dim))
    x = check_point(x, gs.spec.dim)
    tables = _cheb_tables(gs, x)
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
    per-axis tables of nodes.chi_tables.  Raises InvalidParameter for an
    index entry that is not an integer.
    """
    i = integer_tuple(i, "node index")
    node_set = build_node_set(spec)
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
    over the spectral set.
    """
    if p.gamma_set.spec != q.gamma_set.spec:
        raise SpecMismatch("expansions built from different specs")
    weights = np.exp2(-p.gamma_set.e_counts.astype(np.float64))
    total = np.dot(p.coeffs * np.conj(q.coeffs), weights)
    return complex(total) if np.iscomplexobj(total) else float(total)
