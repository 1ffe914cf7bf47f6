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

import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain, islice
from typing import Dict, List, Optional, Union

import numpy as np

from .congruence import integer_tuple
from .errors import DomainViolation, IndexOutOfRange, InvalidParameter
from .errors import NotInGammaSet, SpecMismatch
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


@dataclass(frozen=True, eq=False)
class ChebExpansion:
    """A polynomial written in the spectral basis of a spec.

    ``coeffs`` is a float64 or complex128 array of shape (len(gamma_set),)
    in gamma-set order; an array of that dtype is kept, not copied.  Other
    numeric arrays are converted.  The constructor also takes a mapping
    {gamma: value}, where a missing gamma stands for 0.  It raises
    InvalidParameter for a key that is not a d-tuple of integers, a value
    that is not a number or an array of another shape, NotInGammaSet for
    a gamma outside the set and DomainViolation for a NaN or infinite
    value or an int too large for a float.  An error about a mapping
    entry carries the entry's position in the mapping as ``row``.
    """

    gamma_set: GammaSet
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = _coefficient_array(self.gamma_set, self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)


def _coefficient_array(gamma_set: GammaSet, given) -> np.ndarray:
    """The coefficients in gamma-set order from an array or a mapping."""
    n = len(gamma_set)
    if not isinstance(given, Mapping):
        try:
            shape = np.shape(given)
        except ValueError:  # sequences of unequal length
            shape = None
        if shape != (n,):
            raise InvalidParameter(
                f"coefficient array has shape {shape}, expected ({n},)"
            )
        return _number_vector(given, gamma_set, "coefficient", "gamma")
    d = gamma_set.spec.dim
    # Tuples of d plain ints pass in bulk; the loop only names the culprit.
    if (
        set(map(type, given)) - {tuple}
        or set(map(len, given)) - {d}
        or set(map(type, chain.from_iterable(given))) - {int}
    ):
        for row, gamma in enumerate(given):
            try:
                if not isinstance(gamma, tuple) or len(gamma) != d:
                    raise InvalidParameter(
                        f"gamma {gamma!r} is not a tuple of {d} integers"
                    )
                integer_tuple(gamma, "gamma")
            except InvalidParameter as exc:
                exc.row = row
                raise
    rows = np.fromiter(chain.from_iterable(given), object, len(given) * d)
    pos = gamma_set.positions(rows.reshape(-1, d))
    if (pos < 0).any():
        row = int(np.argmin(pos))
        gamma = next(islice(given, row, None))
        raise NotInGammaSet(f"gamma {gamma} is not in the spectral set", row)
    vals = _number_vector(list(given.values()), given, "coefficient", "gamma")
    out = np.zeros(n, dtype=vals.dtype)
    out[pos] = vals
    return out


def _number_vector(values, keys, what: str, where: str) -> np.ndarray:
    """The values as a finite float64 or complex128 vector.

    Raises InvalidParameter for a value that is not a number and
    DomainViolation for an int too large for a float or a NaN or infinite
    value, naming its key; ``row`` is the value's position.
    """
    try:
        vals = np.asarray(values)
    except ValueError:  # sequences of unequal length among the values
        vals = np.array(None)
    kind = vals.dtype.kind
    if vals.ndim != 1 or kind not in "biufc":
        for row, (key, val) in enumerate(zip(keys, values)):
            if not isinstance(val, numbers.Number):
                raise InvalidParameter(
                    f"{what} {val!r} at {where} {key} is not a number", row
                )
            try:
                complex(val)
            except OverflowError:
                raise DomainViolation(
                    f"{what} at {where} {key} is too large for a float", row
                ) from None
        # Numbers numpy keeps as objects: ints beyond 64 bits, Fraction.
        kind = "c" if any(isinstance(v, complex) for v in values) else "f"
    dtype = np.complex128 if kind == "c" else np.float64
    vals = vals.astype(dtype, copy=False)
    finite = np.isfinite(vals)
    if not finite.all():
        row = int(np.argmin(finite))
        key = next(islice(keys, row, None))
        raise DomainViolation(
            f"{what} {vals[row]} at {where} {key} is not finite", row
        )
    return vals


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

    Raises IndexOutOfRange for a wrong sample count or index,
    InvalidParameter for a non-number and DomainViolation for NaN, inf or
    an int too large for a float.
    """
    if h.spec != node_set.spec:
        raise SpecMismatch("sample vector and node set use different specs")
    n = len(node_set)
    if len(h.values) != n:
        raise IndexOutOfRange(
            f"sample vector has {len(h.values)} entries, expected {n}"
        )
    lookup = node_set.lookup
    try:
        pos = np.fromiter(map(lookup.__getitem__, h.values), np.intp, n)
    except KeyError as exc:
        raise IndexOutOfRange(
            f"sample index {exc.args[0]} is not in the index set"
        ) from None
    vals = _number_vector(list(h.values.values()), h.values, "sample", "node")
    out = np.empty(n, dtype=vals.dtype)
    out[pos] = vals
    return out


def discrete_integral(h: SampleVector) -> Scalar:
    """The weighted sum over all nodes, sum_i w_i h(i)."""
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
    h: SampleVector, node_set: Optional[NodeSet] = None
) -> ChebExpansion:
    """Basis coefficients by the direct sum; the reference oracle.

    c_gamma = <h, chi_gamma> / ||chi_gamma||^2 with the discrete inner
    product, evaluated as c = X (w h) / ||chi||^2 with no FFT.  The chi
    matrix X is built from the exact per-axis tables in blocks of at most
    _BLOCK_ENTRIES entries, so time is O(N^2) and memory is bounded.
    Pass ``node_set`` to reuse the spec's node set across calls.
    """
    if node_set is None:
        node_set = build_node_set(h.spec)
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
    return ChebExpansion(gamma_set=gamma_set, coeffs=acc / gamma_set.norm_sq)


def _scatter_grid(node_set: NodeSet, values: np.ndarray) -> np.ndarray:
    """Scatter values in node-set order into the (m_j + 1) box grid."""
    shape = tuple(mj + 1 for mj in node_set.spec.m)
    array = np.zeros(shape, dtype=values.dtype)
    array[tuple(node_set.indices.T)] = values
    return array


def embed_grid(h: SampleVector, node_set: NodeSet) -> np.ndarray:
    """Scatter w_i h(i) into the (m_j + 1) box grid, zero off the index set."""
    vals = aligned_values(h, node_set)
    return _scatter_grid(node_set, node_set.weights * vals)


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
    h: SampleVector, node_set: Optional[NodeSet] = None
) -> ChebExpansion:
    """Basis coefficients via nested fast cosine transforms.

    Embeds the weighted samples into the box grid, transforms each axis in
    turn and reads off c_gamma = g_gamma / ||chi_gamma||^2.  Matches
    coefficients_naive to rounding error.  Pass ``node_set`` to reuse the
    spec's node set across calls.  Raises DomainViolation when finite
    samples overflow to a coefficient that is not finite.
    """
    if node_set is None:
        node_set = build_node_set(h.spec)
    gamma_set = build_gamma(h.spec)

    array = embed_grid(h, node_set)
    # The ChebExpansion constructor reports overflow as DomainViolation,
    # not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if np.iscomplexobj(array):
            real = _transform_all_axes(array.real)
            imag = _transform_all_axes(array.imag)
            g = real + 1j * imag
        else:
            g = _transform_all_axes(array)
        cvec = g[tuple(gamma_set.elements.T)] / gamma_set.norm_sq
    return ChebExpansion(gamma_set=gamma_set, coeffs=cvec)


def _transform_all_axes(array: np.ndarray) -> np.ndarray:
    out = array
    for axis in range(array.ndim):
        out = _cosine_transform_axis(out, axis)
    return out
