"""Discrete inner products and coefficient computation on node samples.

The basis functions chi_gamma(i) = prod_j cos(gamma_j i_j pi / m_j) are
orthogonal under the weighted counting measure on the index set.  The
coefficients of a sample vector in that basis are computed twice: a direct
sum c = X (w h) / ||chi||^2 with the chi matrix X, evaluated in row blocks
from exact per-axis cosine tables and kept permanently as the reference
oracle, and a fast path that embeds the weighted samples into the full grid
and runs an endpoint-inclusive cosine transform along each axis: a product
with a dense cosine matrix on short axes, a real FFT of the mirror extension
on long ones.
"""

from __future__ import annotations

import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from typing import Dict, List, Optional, Union

import numpy as np

from .congruence import integer_tuple
from .errors import DomainViolation, IndexOutOfRange, InvalidParameter
from .errors import NotInGammaSet, SpecMismatch, check_type
from .nodes import MultiIndex, NodeSet, NodeSpec, _cos_table, build_node_set
from .nodes import check_spec, chi_tables
from .spectral import GammaSet, SpectralIndex, build_gamma
from .trig import cos_pi_ratio

Scalar = Union[float, complex]

# Largest number of chi-matrix entries coefficients_naive holds at once.
_BLOCK_ENTRIES = 1 << 16

# Longest axis, in points, that the cosine transform computes with a dense
# matrix rather than the FFT.  On 2 vCPUs dense won or tied at every length
# up to 450 points on 1-D and 2-D grids, BLAS capped and uncapped
# (CHANGES.md has the table); the FFT's cost swings with the factors of 2m,
# 8.7 ms against 0.7 ms dense on a (258, 257) grid, where 2m = 2 * 257.
# The limit stays at 258 so that the matrix cache stays small.
_DENSE_AXIS = 258


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
        check_type(self.gamma_set, GammaSet)
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
    return coefficient_rows(gamma_set, list(given), list(given.values()))


def coefficient_rows(gamma_set: GammaSet, gammas, values) -> np.ndarray:
    """The coefficients in gamma-set order from lists of gammas and values.

    Each gamma, a tuple or list of d integers, comes at most once; one not
    listed stands for 0.  Errors are those of ChebExpansion for a mapping,
    with the list position as ``row``; a list inside a gamma is TypeError.
    """
    d = gamma_set.spec.dim
    # Rows of d plain ints pass in bulk; _check_rows only names the culprit.
    if (
        set(map(type, gammas)) - {tuple, list}
        or set(map(len, gammas)) - {d}
        or set(map(type, chain.from_iterable(gammas))) - {int}
    ):
        _check_rows(gammas, d)
    size = len(gammas) * d
    try:
        rows = np.fromiter(chain.from_iterable(gammas), np.int64, size)
    except OverflowError:  # an entry beyond int64, which positions clamps
        rows = np.fromiter(chain.from_iterable(gammas), object, size)
    pos = gamma_set.positions(rows.reshape(-1, d))
    if (pos < 0).any():
        row = int(np.argmin(pos))
        gamma = tuple(gammas[row])
        raise NotInGammaSet(f"gamma {gamma} is not in the spectral set", row)
    if np.bincount(pos, minlength=len(gamma_set)).max(initial=0) > 1:
        _check_rows(gammas, d)  # equal positions come from equal rows
    vals = _number_vector(values, gammas, "coefficient", "gamma")
    out = np.zeros(len(gamma_set), dtype=vals.dtype)
    out[pos] = vals
    return out


def _check_rows(gammas, d: int) -> None:
    """Raise the error of the first gamma not of d integers or repeated."""
    seen = set()
    for row, gamma in enumerate(gammas):
        key = tuple(gamma) if isinstance(gamma, (tuple, list)) else gamma
        try:
            if type(key) is not tuple or len(key) != d:
                raise InvalidParameter(
                    f"gamma {key!r} is not a tuple of {d} integers"
                )
            if key in seen:
                raise InvalidParameter(f"repeated gamma {key}")
            seen.add(integer_tuple(key, "gamma"))
        except InvalidParameter as exc:
            exc.row = row
            raise


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
        for row, (key, val) in enumerate(zip(map(tuple, keys), values)):
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
        key = tuple(next(islice(keys, row, None)))
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

    Raises InvalidParameter for an h that is not a SampleVector, a node_set
    that is not a NodeSet, values that are not a mapping or a value that is
    not a number, IndexOutOfRange for a wrong sample count or index and
    DomainViolation for NaN, inf or an int too large for a float.
    """
    check_type(h, SampleVector)
    check_type(node_set, NodeSet)
    if h.spec != node_set.spec:
        raise SpecMismatch("sample vector and node set use different specs")
    if not isinstance(h.values, Mapping):
        kind = type(h.values).__name__
        raise InvalidParameter(f"sample values must map node indices, not {kind}")
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
    check_type(h, SampleVector)
    node_set = build_node_set(h.spec)
    vals = aligned_values(h, node_set)
    total = np.dot(node_set.weights, vals)
    return complex(total) if np.iscomplexobj(vals) else float(total)


def alias_integral(spec: NodeSpec, gamma: SpectralIndex) -> int:
    """The discrete integral of chi_gamma, evaluated combinatorially.

    Nonzero only when every gamma_i is a multiple h_i m_i of the grid
    denominator, with even sum of the h_i; the value is then the sign
    (-1)^(sum h_i kappa_i), 1 for the standard family (kappa = 0).  Raises
    InvalidParameter for a gamma that is not d integers.
    """
    check_spec(spec)
    gamma = integer_tuple(gamma, "gamma")
    if len(gamma) != spec.dim:
        raise InvalidParameter(f"gamma {gamma} must have {spec.dim} entries")
    hs = []
    for g, mi in zip(gamma, spec.m):
        q, r = divmod(g, mi)
        if r != 0:
            return 0
        hs.append(q)
    if sum(hs) % 2 != 0:
        return 0
    theta = sum(hi * ki for hi, ki in zip(hs, spec.shift))
    return -1 if theta % 2 else 1


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
    check_type(h, SampleVector)
    if node_set is None:
        node_set = build_node_set(h.spec)
    gamma_set = build_gamma(h.spec)
    wv = aligned_values(h, node_set) * node_set.weights
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
    # The constructor reports overflow as DomainViolation, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = acc / gamma_set.norm_sq
    return ChebExpansion(gamma_set=gamma_set, coeffs=coeffs)


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


@lru_cache(maxsize=16)
def _cosine_matrix(m: int) -> np.ndarray:
    """The read-only matrix C[k, i] = cos(pi k i / m) for 0 <= k, i <= m.

    Entries come from the exact-reduction table of nodes.chi_tables.  The
    cache keeps at most 16 matrices of at most _DENSE_AXIS**2 float64
    entries, 8.5 MB at worst.
    """
    k = np.arange(m + 1)
    c = _cos_table(m)[np.outer(k, k) % (2 * m)]
    c.setflags(write=False)
    return c


def _cosine_transform_axis(grid: np.ndarray) -> np.ndarray:
    """Endpoint-inclusive cosine sums along the first axis, moved last.

    Computes S_k = sum_{i=0}^m g_i cos(pi k i / m) for k = 0..m along axis
    0 and returns them as the last axis, so d calls transform every axis
    of a d-D grid and restore its axis order.  An axis of at most
    _DENSE_AXIS points is one product with _cosine_matrix(m).  A longer
    one is mirror-extended to length 2m and transformed by an rfft, whose
    real part is 2 S_k - g_0 - (-1)^k g_m.  The FFT runs on the halved
    grid, so finite samples whose sum is finite do not overflow.
    """
    m = grid.shape[0] - 1
    if m + 1 <= _DENSE_AXIS:
        # The transposed view costs no copy; C is symmetric.
        out = grid.reshape(m + 1, -1).T @ _cosine_matrix(m)
        return out.reshape(grid.shape[1:] + (m + 1,))
    half = 0.5 * np.moveaxis(grid, 0, -1)
    ext = np.concatenate([half, half[..., m - 1 : 0 : -1]], axis=-1)
    y = np.fft.rfft(ext).real
    return y + half[..., :1] + (-1.0) ** np.arange(m + 1) * half[..., m:]


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
    check_type(h, SampleVector)
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
    for _ in range(array.ndim):
        out = _cosine_transform_axis(out)
    return out
