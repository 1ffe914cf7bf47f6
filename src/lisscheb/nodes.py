"""Node sets on the Chebyshev-Gauss-Lobatto grid with shared parity.

A node set is specified by a pairwise-coprime frequency vector n and,
optionally, an integer shift vector kappa.  Without kappa the multi-indices
live in the box [0, n] with all components sharing one parity; with kappa
they live in [0, 2n] with component j congruent to kappa_j + r mod 2 for a
single parity bit r.  Each index i maps to the grid point
z_i = (cos(i_1 pi/m_1), ..., cos(i_d pi/m_d)) and carries a quadrature
weight determined by how many components are strictly interior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .congruence import DimensionVector, integer_tuple
from .errors import (
    DomainViolation,
    IndexOutOfRange,
    InvalidParameter,
    OverflowDimension,
)
from .trig import cos_pi_ratio

MultiIndex = Tuple[int, ...]

# Largest grid box, prod_j (m_j + 1) cells, that build_node_set and
# build_gamma allocate: about 60x the largest spec the tests and the
# benchmark use, shifted (257, 256) with 264,195 cells.
MAX_BOX_CELLS = 1 << 24

_DOMAIN_SLACK = 1e-12


@dataclass(frozen=True)
class NodeSpec:
    """Handle identifying a node family: the vector n plus an optional shift.

    ``kappa is None`` selects the standard family (grid denominators n_j);
    otherwise the shifted family (denominators 2n_j).
    """

    n: DimensionVector
    kappa: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.kappa is None:
            return
        integer_tuple(self.kappa, "kappa")
        if len(self.kappa) != self.n.dim:
            raise InvalidParameter("kappa must match the dimension of n")

    @property
    def is_shifted(self) -> bool:
        return self.kappa is not None

    @property
    def dim(self) -> int:
        return self.n.dim

    @property
    def m(self) -> Tuple[int, ...]:
        """Per-dimension grid denominators: n (standard) or 2n (shifted)."""
        if self.is_shifted:
            return tuple(2 * e for e in self.n.entries)
        return self.n.entries

    @property
    def g_index(self) -> int:
        """The distinguished dimension of the shifted class map (0-based).

        All other entries of n must be odd; since the entries are pairwise
        coprime there is at most one even entry, which forces g.  With all
        entries odd any choice works and the first dimension is used.
        """
        for j, e in enumerate(self.n.entries):
            if e % 2 == 0:
                return j
        return 0


@dataclass(frozen=True)
class Node:
    """One node: multi-index, point, weight, parity class and face set."""

    index: MultiIndex
    point: Tuple[float, ...]
    weight: float
    parity: int
    face: FrozenSet[int]


class NodeSet:
    """The full enumerated node family, ordered lexicographically by index.

    The primary storage is array-based (``indices``, ``points``, ``weights``,
    ``parities`` are parallel numpy arrays); the Node object list and the
    index-to-position lookup are materialized lazily on first access.
    """

    def __init__(
        self,
        spec: NodeSpec,
        indices: np.ndarray,
        points: np.ndarray,
        weights: np.ndarray,
        parities: np.ndarray,
    ):
        self.spec = spec
        self.indices = indices
        self.points = points
        self.weights = weights
        self.parities = parities
        self._nodes: Optional[List[Node]] = None
        self._lookup: Optional[Dict[MultiIndex, int]] = None

    def __len__(self) -> int:
        return self.indices.shape[0]

    @property
    def nodes(self) -> List[Node]:
        if self._nodes is None:
            m = self.spec.m
            out = []
            for row, pt, w, r in zip(
                self.indices, self.points, self.weights, self.parities
            ):
                idx = tuple(int(v) for v in row)
                face = frozenset(
                    j for j, v in enumerate(idx) if 0 < v < m[j]
                )
                out.append(
                    Node(
                        index=idx,
                        point=tuple(float(v) for v in pt),
                        weight=float(w),
                        parity=int(r),
                        face=face,
                    )
                )
            self._nodes = out
        return self._nodes

    @property
    def lookup(self) -> Dict[MultiIndex, int]:
        if self._lookup is None:
            keys = int_tuples(self.indices)
            self._lookup = dict(zip(keys, range(len(self))))
        return self._lookup


def int_tuples(rows: np.ndarray) -> Iterator[Tuple[int, ...]]:
    """The rows of an (N, d) integer array as tuples of Python ints.

    Zipping the d column lists builds the tuples in C, without the list of
    N row lists that ``map(tuple, rows.tolist())`` would hold.
    """
    return zip(*rows.T.tolist())


def cgl_point(m: int, i: int) -> float:
    """The i-th Chebyshev-Gauss-Lobatto point cos(i*pi/m) on [-1, 1]."""
    m, i = integer_tuple((m, i), "cgl_point argument")
    if m < 1:
        raise InvalidParameter(f"cgl_point order m must be positive, got {m}")
    if not 0 <= i <= m:
        raise IndexOutOfRange(f"index {i} outside [0, {m}]")
    return cos_pi_ratio(i, m)


def chi_tables(spec: NodeSpec) -> List[np.ndarray]:
    """Per-axis tables cos(k pi / m_j), k < 2 m_j, with exact angle reduction.

    Entry i <= m_j is the grid coordinate of index i; the full period
    serves the products chi_gamma(i) after reducing gamma_j i_j mod 2 m_j.
    """
    return [
        np.array([cos_pi_ratio(k, mj) for k in range(2 * mj)])
        for mj in spec.m
    ]


def check_box_size(corner: Sequence[int]) -> None:
    """Raise OverflowDimension if the box [0, corner] exceeds MAX_BOX_CELLS."""
    cells = math.prod(c + 1 for c in corner)
    if cells > MAX_BOX_CELLS:
        raise OverflowDimension(
            f"grid box of {cells} cells exceeds the limit of "
            f"{MAX_BOX_CELLS} cells"
        )


def _index_grid(axis_values: Sequence[np.ndarray]) -> np.ndarray:
    """Cartesian product of per-axis index values, as an (N, d) array."""
    mesh = np.meshgrid(*axis_values, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


def build_node_set(spec: NodeSpec) -> NodeSet:
    """Enumerate the node family of a spec with points, weights and parities."""
    check_box_size(spec.m)
    d = spec.dim
    m = spec.m
    kappa = spec.kappa if spec.is_shifted else (0,) * d

    blocks = []
    parity_blocks = []
    for r in (0, 1):
        axes = [
            np.arange((kappa[j] + r) % 2, m[j] + 1, 2, dtype=np.int64)
            for j in range(d)
        ]
        if any(a.size == 0 for a in axes):
            continue
        block = _index_grid(axes)
        blocks.append(block)
        parity_blocks.append(np.full(block.shape[0], r, dtype=np.uint8))
    indices = np.concatenate(blocks, axis=0)
    parities = np.concatenate(parity_blocks, axis=0)

    # Lexicographic order over the merged parity classes.
    order = np.lexsort(tuple(indices[:, j] for j in range(d - 1, -1, -1)))
    indices = indices[order]
    parities = parities[order]

    tables = chi_tables(spec)
    points = np.column_stack(
        [tables[j][indices[:, j]] for j in range(d)]
    )

    interior = np.zeros(indices.shape[0], dtype=np.int64)
    for j in range(d):
        interior += (indices[:, j] > 0) & (indices[:, j] < m[j])
    if spec.is_shifted:
        denom = 2 ** (d + 1) * spec.n.product
    else:
        denom = 2 * spec.n.product
    weights = np.exp2(interior.astype(np.float64)) / denom

    return NodeSet(spec, indices, points, weights, parities)


def class_map_standard(n: DimensionVector, l: int) -> MultiIndex:
    """Fold a curve parameter index l in [0, 2P[n]) onto its multi-index.

    Component j is the representative of +-l mod 2n_j inside [0, n_j].
    """
    (l,) = integer_tuple((l,), "parameter index")
    if not 0 <= l < 2 * n.product:
        raise IndexOutOfRange(f"l={l} outside [0, {2 * n.product})")
    out = []
    for nj in n.entries:
        a = l % (2 * nj)
        out.append(a if a <= nj else 2 * nj - a)
    return tuple(out)


def class_map_shifted(
    spec: NodeSpec, l: int, rho: Tuple[int, ...]
) -> MultiIndex:
    """Fold (l, rho) onto the shifted multi-index.

    l runs over [0, 4P[n]) and rho supplies one bit for each dimension
    other than g_index (in increasing dimension order).  Component g is
    the representative of +-(l - kappa_g) mod 4n_g inside [0, 2n_g]; the
    remaining components fold +-(l + 2 rho_i n_i - kappa_i) the same way.
    """
    if not spec.is_shifted:
        raise InvalidParameter("class_map_shifted needs a shifted spec")
    (l,) = integer_tuple((l,), "parameter index")
    rho = integer_tuple(rho, "rho")
    n = spec.n
    if not 0 <= l < 4 * n.product:
        raise IndexOutOfRange(f"l={l} outside [0, {4 * n.product})")
    g = spec.g_index
    if len(rho) != spec.dim - 1:
        raise IndexOutOfRange("rho must have one bit per non-g dimension")
    if any(b not in (0, 1) for b in rho):
        raise IndexOutOfRange("rho entries must be bits")

    out = []
    pos = 0
    for j, nj in enumerate(n.entries):
        if j == g:
            a = (l - spec.kappa[j]) % (4 * nj)
        else:
            a = (l + 2 * rho[pos] * nj - spec.kappa[j]) % (4 * nj)
            pos += 1
        out.append(a if a <= 2 * nj else 4 * nj - a)
    return tuple(out)


def check_points(points, dim: int) -> np.ndarray:
    """Validate M points of the cube [-1, 1]^dim and clamp off rounding slack.

    ``points`` is an (M, dim) array or a sequence of M coordinate
    sequences; the result is the (M, dim) float64 array of the points, the
    input array itself when it is one and needs no clamping.  Raises
    DomainViolation at the first point, in order, with a wrong number of
    coordinates, a NaN or infinite coordinate, or one outside [-1, 1] by
    more than _DOMAIN_SLACK; the exception's ``row`` is that point's
    position.
    """
    try:
        x = np.asarray(points, dtype=np.float64).reshape(len(points), dim)
    except ValueError:
        # Ragged rows or rows of another length; anything else re-raises.
        row = next((k for k, p in enumerate(points) if len(p) != dim), None)
        if row is None:
            raise
        raise DomainViolation(
            f"point has {len(points[row])} coordinates, expected {dim}", row
        ) from None
    # A NaN makes the maximum NaN, which fails the comparison.
    if np.abs(x).max(initial=0.0) <= 1.0:
        return x
    inside = np.abs(x) <= 1.0 + _DOMAIN_SLACK
    if not inside.all():
        row, col = np.argwhere(~inside)[0].tolist()
        xj = float(x[row, col])
        reason = "outside [-1, 1]" if math.isfinite(xj) else "is not finite"
        raise DomainViolation(f"coordinate {xj} {reason}", row)
    return x.clip(-1.0, 1.0)


def check_point(x: Sequence[float], dim: int) -> List[float]:
    """Validate one point of the cube [-1, 1]^dim by check_points' rule."""
    return check_points([x], dim)[0].tolist()


def variety_membership(
    spec: NodeSpec, x: Sequence[float], tol: float = 1e-9
) -> bool:
    """Check whether x lies on the spec's Chebyshev variety.

    The variety is the set where T_{n_1}(x_1) = ... = T_{n_d}(x_d)
    (standard), or (-1)^{kappa_i} T_{2n_i}(x_i) all equal (shifted).
    Raises DomainViolation for a point that check_point rejects.
    """
    vals = []
    for j, xj in enumerate(check_point(x, spec.dim)):
        mj = spec.m[j]
        v = math.cos(mj * math.acos(xj))
        if spec.is_shifted and spec.kappa[j] % 2 == 1:
            v = -v
        vals.append(v)
    return max(vals) - min(vals) <= tol
