"""Spectral index sets: the frequency tuples spanning the interpolation space.

With grid denominators m = eps n (eps = 1 standard, 2 shifted) and shift
kappa (0 standard) the set holds every gamma with gamma_i < m_i and
gamma_i/n_i + gamma_j/n_j <= eps for every pair, strict where kappa_i and
kappa_j differ in parity, plus the special element (0, ..., 0, m_d).  All
ratio comparisons are done in cross-multiplied integer form; the
distinction between <= and < at the boundary is essential and floating
point would blur it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .congruence import integer_tuple
from .errors import InvalidParameter, NotInGammaSet
from .nodes import NodeSpec, check_box_size, check_spec, int_tuples
from .nodes import spec_cached

SpectralIndex = Tuple[int, ...]


@dataclass(frozen=True, eq=False)
class GammaSet:
    """The ordered spectral basis of a spec.

    ``elements`` is an (N, d) integer array in graded lexicographic order;
    ``norm_sq`` the parallel vector of squared discrete norms; ``special``
    the unique corner element (0, ..., 0, m_d).  ``e_counts`` holds the
    number of nonzero entries of each element, which sets the continuous
    norm 2^(-e) of T_gamma.  The fields are frozen: build_gamma shares a
    set among its callers, and makes its arrays read-only.
    """

    spec: NodeSpec
    elements: np.ndarray
    norm_sq: np.ndarray
    e_counts: np.ndarray
    special_pos: int

    def __len__(self) -> int:
        return self.elements.shape[0]

    def __iter__(self):
        return int_tuples(self.elements)

    @property
    def special(self) -> SpectralIndex:
        pos = self.special_pos
        return next(int_tuples(self.elements[pos : pos + 1]))

    def positions(self, rows: np.ndarray) -> np.ndarray:
        """Positions in the set of the rows of an (M, d) integer array.

        A row that is not a member maps to -1.  Entries may be Python ints
        of any size in an object array: each is clamped to [-1, max(m) + 1]
        first, which keeps an entry outside the box outside and makes it
        fit int64.  Members are found in a box grid of positions, which
        build_gamma's sets keep and any other set builds on each call.
        Raises InvalidParameter for rows that are not an (M, d) array.
        """
        dims = np.array(self.spec.m) + 1
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != len(dims):
            raise InvalidParameter(f"rows form an array of shape {rows.shape},"
                                   f" expected (M, {len(dims)})")
        rows = rows.clip(-1, dims.max()).astype(np.int64)
        inside = ((rows >= 0) & (rows < dims)).all(axis=1)
        grid = self._grid if "_grid" in vars(self) else self._box_grid()
        out = np.full(rows.shape[0], -1, dtype=np.intp)
        out[inside] = grid[np.ravel_multi_index(rows[inside].T, dims)]
        return out

    def _box_grid(self) -> np.ndarray:
        """The position of each cell of the box [0, m] in the set, or -1."""
        dims = np.array(self.spec.m) + 1
        grid = np.full(int(np.prod(dims)), -1, dtype=np.intp)
        grid[np.ravel_multi_index(self.elements.T, dims)] = np.arange(len(self))
        return grid


def _pairwise_keep(spec: NodeSpec, cols) -> np.ndarray:
    """Where the cells of a box meet the pairwise bounds.

    cols are np.ix_ ranges, one per axis, so each pair compares one
    m_i x m_j slice.  In the standard family <= acts as the paper's <:
    inside the box, equality needs n_i | gamma_i, so gamma_i = 0 and
    gamma_j = n_j, which lies outside.
    """
    n, m, kappa = spec.n.entries, spec.m, spec.shift
    keep = np.ones(np.broadcast_shapes(*[c.shape for c in cols]), dtype=bool)
    for i in range(spec.dim):
        for j in range(i + 1, spec.dim):
            lhs = cols[i] * n[j] + cols[j] * n[i]
            keep &= lhs <= m[i] * n[j] - (kappa[i] - kappa[j]) % 2
    return keep


def build_gamma(spec: NodeSpec) -> GammaSet:
    """The spectral set of a spec, enumerated once and then reused.

    Equal specs get the same GammaSet while nodes.spec_cached keeps it,
    its arrays and box grid counted against the budget it shares with node
    lookups; a set over the budget is returned but not kept.
    """
    check_spec(spec)
    return spec_cached("gamma", spec, _new_gamma)


def _new_gamma(spec: NodeSpec) -> Tuple[GammaSet, int]:
    """The spec's set with its box grid, all arrays read-only, and bytes."""
    gs = _enumerate_gamma(spec)
    object.__setattr__(gs, "_grid", gs._box_grid())
    arrays = (gs.elements, gs.norm_sq, gs.e_counts, gs._grid)
    for array in arrays:
        array.setflags(write=False)
    return gs, sum(array.nbytes for array in arrays)


def _enumerate_gamma(spec: NodeSpec) -> GammaSet:
    """Enumerate the spectral set of a spec in graded lexicographic order.

    The pairwise bounds are evaluated on np.ix_ ranges over the box [0, m)
    with the last axis widened to take m_d.  There m_d/n_d is eps, so the
    bounds hold at most where every other entry is 0: at the special
    element (0, ..., 0, m_d), which is set.  np.argwhere lists the kept
    cells in lexicographic order; a stable sort by degree grades them.
    """
    check_box_size(spec.m)
    special = (0,) * (spec.dim - 1) + (spec.m[-1],)
    widths = spec.m[:-1] + (spec.m[-1] + 1,)
    keep = _pairwise_keep(spec, np.ix_(*map(np.arange, widths)))
    keep[special] = True
    elements = np.argwhere(keep)
    elements = elements[np.argsort(elements.sum(axis=1), kind="stable")]

    special_pos = int(np.nonzero((elements == special).all(axis=1))[0][0])
    # Support counts e and squared norms 2^(f - e), f = #{j: gamma_j = n_j}
    # less 1 (at least 0); 1 for the special row.
    e_counts = (elements > 0).sum(axis=1).astype(np.int64)
    at_n = (elements == np.array(spec.n.entries, dtype=np.int64)).sum(axis=1)
    f_counts = np.maximum(at_n - 1, 0).astype(np.int64)
    norm = np.exp2((f_counts - e_counts).astype(np.float64))
    norm[special_pos] = 1.0
    return GammaSet(spec, elements, norm, e_counts, special_pos)


def involution(m: Tuple[int, ...], gamma: SpectralIndex) -> SpectralIndex:
    """Reflect gamma at the boundary in its dominant dimension.

    The dominant dimension k is the largest index attaining the maximum of
    gamma_i/m_i; the image replaces gamma_k by m_k - gamma_k.  On the
    odd-parity part of the spectral set this map is an involution pairing
    it with the complement of the even part.  Raises InvalidParameter for
    an m or gamma that is not integers, a gamma not as long as m, or an
    m_i below 1.
    """
    m, gamma = integer_tuple(m, "m"), integer_tuple(gamma, "gamma")
    if not gamma or len(gamma) != len(m):
        raise InvalidParameter(f"gamma {gamma} must have one entry per m_i")
    if min(m) < 1:
        raise InvalidParameter(f"m entries must be at least 1, got {m}")
    k = 0
    for i in range(1, len(gamma)):
        # gamma_i/m_i >= gamma_k/m_k, compared in integers.
        if gamma[i] * m[k] >= gamma[k] * m[i]:
            k = i
    out = list(gamma)
    out[k] = m[k] - gamma[k]
    return tuple(out)


def norm_sq(spec: NodeSpec, gamma: SpectralIndex) -> float:
    """Squared discrete norm of the basis function indexed by gamma.

    Raises InvalidParameter for an entry that is not an integer and
    NotInGammaSet for a gamma outside the spectral set.
    """
    gamma = integer_tuple(gamma, "gamma")
    gs = build_gamma(spec)
    row = np.array([gamma], dtype=object)
    if len(gamma) != spec.dim or (pos := gs.positions(row)[0]) < 0:
        raise NotInGammaSet(f"{gamma} not in the spectral set")
    return float(gs.norm_sq[pos])
