"""Spectral index sets: the frequency tuples spanning the interpolation space.

For a standard spec the set contains all gamma with gamma_i < n_i and
gamma_i/n_i + gamma_j/n_j < 1 for every pair, plus the single special
element (0, ..., 0, n_d).  For a shifted spec the box grows to gamma_i < 2n_i
with the pairwise bound gamma_i/n_i + gamma_j/n_j <= 2, strict whenever
kappa_i and kappa_j differ in parity, plus (0, ..., 0, 2n_d).  All ratio
comparisons are done in cross-multiplied integer form; the distinction
between <= and < at the boundary is essential and floating point would
blur it.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .errors import NotInGammaSet
from .nodes import NodeSpec, _index_grid, check_box_size, int_tuples

SpectralIndex = Tuple[int, ...]


class GammaSet:
    """The ordered spectral basis of a spec.

    ``elements`` is an (N, d) integer array in graded lexicographic order;
    ``norm_sq`` the parallel vector of squared discrete norms; ``special``
    the unique corner element (0, ..., 0, m_d).  ``e_counts`` holds the
    number of nonzero entries of each element, which sets the continuous
    norm 2^(-e) of T_gamma.
    """

    def __init__(
        self,
        spec: NodeSpec,
        elements: np.ndarray,
        norm_sq: np.ndarray,
        e_counts: np.ndarray,
        special_pos: int,
    ):
        self.spec = spec
        self.elements = elements
        self.norm_sq = norm_sq
        self.e_counts = e_counts
        self.special_pos = special_pos
        self._lookup: Optional[Dict[SpectralIndex, int]] = None

    def __len__(self) -> int:
        return self.elements.shape[0]

    def __iter__(self):
        return int_tuples(self.elements)

    @property
    def special(self) -> SpectralIndex:
        pos = self.special_pos
        return next(int_tuples(self.elements[pos : pos + 1]))

    @property
    def lookup(self) -> Dict[SpectralIndex, int]:
        if self._lookup is None:
            self._lookup = dict(zip(self, range(len(self))))
        return self._lookup


def _graded_lex_order(elements: np.ndarray) -> np.ndarray:
    degrees = elements.sum(axis=1)
    keys = tuple(elements[:, j] for j in range(elements.shape[1] - 1, -1, -1))
    return np.lexsort(keys + (degrees,))


def _pairwise_keep(spec: NodeSpec, cand: np.ndarray) -> np.ndarray:
    """Which rows of an (N, d) array of in-box tuples meet the pairwise bounds."""
    n = spec.n.entries
    d = spec.dim
    keep = np.ones(cand.shape[0], dtype=bool)
    for i in range(d):
        for j in range(i + 1, d):
            lhs = cand[:, i] * n[j] + cand[:, j] * n[i]
            if not spec.is_shifted:
                keep &= lhs < n[i] * n[j]
            elif (spec.kappa[i] - spec.kappa[j]) % 2 == 1:
                keep &= lhs < 2 * n[i] * n[j]
            else:
                keep &= lhs <= 2 * n[i] * n[j]
    return keep


def _special(spec: NodeSpec) -> SpectralIndex:
    return (0,) * (spec.dim - 1) + (spec.m[-1],)


def _norm_terms(spec: NodeSpec, elements: np.ndarray):
    """Support counts e and squared norms 2^(f - e), 1 for the special row."""
    e_counts = (elements > 0).sum(axis=1).astype(np.int64)
    if spec.is_shifted:
        at_n = (elements == np.array(spec.n.entries, dtype=np.int64)).sum(axis=1)
        f_counts = np.maximum(at_n - 1, 0).astype(np.int64)
    else:
        f_counts = np.zeros(elements.shape[0], dtype=np.int64)
    norm = np.exp2((f_counts - e_counts).astype(np.float64))
    norm[(elements == _special(spec)).all(axis=1)] = 1.0
    return e_counts, norm


def build_gamma(spec: NodeSpec) -> GammaSet:
    """Enumerate the spectral set of a spec in graded lexicographic order."""
    check_box_size(spec)
    cand = _index_grid([np.arange(mj, dtype=np.int64) for mj in spec.m])
    cand = cand[_pairwise_keep(spec, cand)]

    special = np.array([_special(spec)], dtype=np.int64)
    elements = np.concatenate([cand, special], axis=0)
    elements = elements[_graded_lex_order(elements)]

    special_pos = int(np.nonzero((elements == special).all(axis=1))[0][0])
    e_counts, norm = _norm_terms(spec, elements)
    return GammaSet(spec, elements, norm, e_counts, special_pos)


def contains_rows(spec: NodeSpec, gammas: np.ndarray) -> np.ndarray:
    """Which rows of an (M, d) integer array lie in the spectral set.

    The set is not built: a row is a member when it lies in the box and
    meets the pairwise bounds, or when it is the special element.
    """
    in_box = ((gammas >= 0) & (gammas < np.array(spec.m))).all(axis=1)
    keep = in_box & _pairwise_keep(spec, gammas)
    return keep | (gammas == _special(spec)).all(axis=1)


def contains(spec: NodeSpec, gamma: SpectralIndex) -> bool:
    """Membership test for one tuple: the one-row case of contains_rows."""
    if len(gamma) != spec.dim:
        return False
    # An entry outside [0, m_j] is outside the set, and ints beyond int64
    # would not fit the row.
    if not all(0 <= g <= mj for g, mj in zip(gamma, spec.m)):
        return False
    return bool(contains_rows(spec, np.array([gamma], dtype=np.int64))[0])


def involution(m: Tuple[int, ...], gamma: SpectralIndex) -> SpectralIndex:
    """Reflect gamma at the boundary in its dominant dimension.

    The dominant dimension k is the largest index attaining the maximum of
    gamma_i/m_i; the image replaces gamma_k by m_k - gamma_k.  On the
    odd-parity part of the spectral set this map is an involution pairing
    it with the complement of the even part.
    """
    k = 0
    for i in range(1, len(gamma)):
        # gamma_i/m_i >= gamma_k/m_k, compared in integers.
        if gamma[i] * m[k] >= gamma[k] * m[i]:
            k = i
    out = list(gamma)
    out[k] = m[k] - gamma[k]
    return tuple(out)


def norm_sq(spec: NodeSpec, gamma: SpectralIndex) -> float:
    """Squared discrete norm of the basis function indexed by gamma."""
    if not contains(spec, gamma):
        raise NotInGammaSet(f"{gamma} not in the spectral set")
    _, norm = _norm_terms(spec, np.array([gamma], dtype=np.int64))
    return float(norm[0])
