"""Discrete inner products and coefficient computation on node samples.

The basis functions chi_gamma(i) = prod_j cos(gamma_j i_j pi / m_j) are
orthogonal under the weighted counting measure on the index set.  The
coefficients of a sample vector in that basis are computed twice: a direct
sum c = X (w h) / ||chi||^2 with the chi matrix X, evaluated in row blocks
from exact per-axis cosine tables and kept permanently as the reference
oracle, and a fast path that embeds the weighted samples into the full grid
and runs an endpoint-inclusive cosine transform along each axis via a real
FFT of the mirror extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

import numpy as np

from .errors import DomainViolation, IndexOutOfRange, SpecMismatch
from .nodes import MultiIndex, NodeSet, NodeSpec, build_node_set, chi_tables
from .spectral import GammaSet, SpectralIndex, build_gamma
from .trig import cos_pi_ratio

Scalar = Union[float, complex]

# Largest number of chi-matrix entries coefficients_naive holds at once.
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class SampleVector:
    """Data values h(i) given on the full index set of a spec."""

    spec: NodeSpec
    values: Dict[MultiIndex, Scalar]


@dataclass(frozen=True)
class ChebExpansion:
    """A polynomial written in the spectral basis of a spec."""

    gamma_set: GammaSet
    coeffs: Dict[SpectralIndex, Scalar]


def chi_eval(spec: NodeSpec, gamma: SpectralIndex, i: MultiIndex) -> float:
    """Evaluate prod_j cos(gamma_j i_j pi / m_j) with exact angle reduction."""
    out = 1.0
    for gj, ij, mj in zip(gamma, i, spec.m):
        out *= cos_pi_ratio(gj * ij, mj)
    return out


def chi_matrix(
    spec: NodeSpec,
    gammas: np.ndarray,
    indices: np.ndarray,
    tables: Optional[List[np.ndarray]] = None,
) -> np.ndarray:
    """Matrix X[p, k] = chi_{gammas[p]}(indices[k]) from per-axis tables.

    Each axis looks up its chi_tables entry and multiplies in the same axis
    order as chi_eval, so every entry equals chi_eval bit for bit.  Pass
    ``tables`` to reuse them across blocks of one spec.
    """
    if tables is None:
        tables = chi_tables(spec)
    x = np.ones((gammas.shape[0], indices.shape[0]))
    for j, (table, mj) in enumerate(zip(tables, spec.m)):
        x *= table[np.outer(gammas[:, j], indices[:, j]) % (2 * mj)]
    return x


def aligned_values(
    h: SampleVector, node_set: NodeSet
) -> np.ndarray:
    """Order the sample dict along the node set, validating its domain.

    Raises IndexOutOfRange for a sample count or index that does not match
    the node set and DomainViolation for a NaN or infinite sample.
    """
    if h.spec != node_set.spec:
        raise SpecMismatch("sample vector and node set use different specs")
    n = len(node_set)
    if len(h.values) != n:
        raise IndexOutOfRange(
            f"sample vector has {len(h.values)} entries, expected {n}"
        )
    is_complex = any(isinstance(v, complex) for v in h.values.values())
    out = np.empty(n, dtype=np.complex128 if is_complex else np.float64)
    lookup = node_set.lookup
    try:
        for key, val in h.values.items():
            out[lookup[key]] = val
    except KeyError:
        raise IndexOutOfRange(
            f"sample index {key} is not in the index set"
        ) from None
    finite = np.isfinite(out)
    if not finite.all():
        pos = int(np.argmin(finite))
        bad = tuple(int(v) for v in node_set.indices[pos])
        raise DomainViolation(f"sample {out[pos]} at node {bad} is not finite")
    return out


def discrete_integral(
    h: SampleVector, node_set: Optional[NodeSet] = None
) -> Scalar:
    """The weighted sum over all nodes, sum_i w_i h(i)."""
    if node_set is None:
        node_set = build_node_set(h.spec)
    vals = aligned_values(h, node_set)
    total = np.dot(node_set.weights, vals)
    return complex(total) if np.iscomplexobj(vals) else float(total)


def alias_integral(spec: NodeSpec, gamma: SpectralIndex) -> int:
    """The discrete integral of chi_gamma, evaluated combinatorially.

    Nonzero only when every gamma_i is the n_i-th (standard) or 2n_i-th
    (shifted) multiple h_i with even sum of the h_i; the value is then 1,
    with an extra sign (-1)^(sum h_i kappa_i) in the shifted case.
    """
    step = 2 if spec.is_shifted else 1
    hs = []
    for g, ni in zip(gamma, spec.n.entries):
        q, r = divmod(g, step * ni)
        if r != 0:
            return 0
        hs.append(q)
    if sum(hs) % 2 != 0:
        return 0
    if spec.is_shifted:
        theta = sum(hi * ki for hi, ki in zip(hs, spec.kappa))
        return -1 if theta % 2 else 1
    return 1


def coefficients_naive(
    h: SampleVector,
    node_set: Optional[NodeSet] = None,
    gamma_set: Optional[GammaSet] = None,
):
    """Basis coefficients by the direct sum; the reference oracle.

    c_gamma = <h, chi_gamma> / ||chi_gamma||^2 with the discrete inner
    product, evaluated as c = X (w h) / ||chi||^2 with no FFT.  The chi
    matrix X is built from the exact per-axis tables in blocks of at most
    _BLOCK_ENTRIES entries, so time is O(N^2) and memory is bounded.
    """
    if node_set is None:
        node_set = build_node_set(h.spec)
    if gamma_set is None:
        gamma_set = build_gamma(h.spec)
    wv = node_set.weights * aligned_values(h, node_set)
    tables = chi_tables(h.spec)
    n = len(node_set)
    rows = max(1, _BLOCK_ENTRIES // n)
    cols = min(n, _BLOCK_ENTRIES)
    acc = np.zeros(len(gamma_set), dtype=wv.dtype)
    for r in range(0, len(gamma_set), rows):
        gammas = gamma_set.elements[r : r + rows]
        for k in range(0, n, cols):
            x = chi_matrix(
                h.spec, gammas, node_set.indices[k : k + cols], tables
            )
            acc[r : r + rows] += x @ wv[k : k + cols]
    cvec = acc / gamma_set.norm_sq
    return ChebExpansion(
        gamma_set=gamma_set, coeffs=dict(zip(gamma_set, cvec.tolist()))
    )


def embed_grid(h: SampleVector, node_set: NodeSet) -> np.ndarray:
    """Scatter w_i h(i) into the (m_j + 1) box grid, zero off the index set."""
    vals = aligned_values(h, node_set)
    shape = tuple(mj + 1 for mj in h.spec.m)
    array = np.zeros(shape, dtype=vals.dtype)
    array[tuple(node_set.indices[:, j] for j in range(h.spec.dim))] = (
        node_set.weights * vals
    )
    return array


def _cosine_transform_axis(grid: np.ndarray, axis: int) -> np.ndarray:
    """Endpoint-inclusive cosine sums along one axis.

    Computes S_k = sum_{i=0}^m g_i cos(pi k i / m) for k = 0..m by
    mirror-extending to length 2m and taking the real part of an rfft:
    the extension's DFT equals 2 S_k - g_0 - (-1)^k g_m.
    """
    m = grid.shape[axis] - 1
    g0 = np.take(grid, [0], axis=axis)
    gm = np.take(grid, [m], axis=axis)
    interior = np.take(grid, range(m - 1, 0, -1), axis=axis)
    ext = np.concatenate([grid, interior], axis=axis)
    y = np.fft.rfft(ext, axis=axis)
    signs_shape = [1] * grid.ndim
    signs_shape[axis] = m + 1
    signs = (-1.0) ** np.arange(m + 1)
    signs = signs.reshape(signs_shape)
    return (y.real + g0 + signs * gm) / 2.0


def coefficients_fast(
    h: SampleVector,
    node_set: Optional[NodeSet] = None,
    gamma_set: Optional[GammaSet] = None,
):
    """Basis coefficients via nested fast cosine transforms.

    Embeds the weighted samples into the box grid, transforms each axis in
    turn and reads off c_gamma = 2^(e - f) g_gamma (g_gamma for the
    special element).  Matches coefficients_naive to rounding error.
    Raises DomainViolation when finite samples overflow to a coefficient
    that is not finite.
    """
    if node_set is None:
        node_set = build_node_set(h.spec)
    if gamma_set is None:
        gamma_set = build_gamma(h.spec)

    array = embed_grid(h, node_set)
    # Overflow is reported below as DomainViolation, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if np.iscomplexobj(array):
            real = _transform_all_axes(array.real)
            imag = _transform_all_axes(array.imag)
            g = real + 1j * imag
        else:
            g = _transform_all_axes(array)

        scale = np.exp2(
            (gamma_set.e_counts - gamma_set.f_counts).astype(np.float64)
        )
        scale[gamma_set.special_pos] = 1.0
        raw = g[tuple(gamma_set.elements[:, j] for j in range(h.spec.dim))]
        cvec = scale * raw

    finite = np.isfinite(cvec)
    if not finite.all():
        pos = int(np.argmin(finite))
        raise DomainViolation(
            f"coefficient {cvec[pos]} at gamma "
            f"{tuple(gamma_set.elements[pos].tolist())} is not finite: "
            "the samples overflow the transform"
        )
    return ChebExpansion(
        gamma_set=gamma_set, coeffs=dict(zip(gamma_set, cvec.tolist()))
    )


def _transform_all_axes(array: np.ndarray) -> np.ndarray:
    out = array
    for axis in range(array.ndim):
        out = _cosine_transform_axis(out, axis)
    return out
